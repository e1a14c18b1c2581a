#include "core/signature.h"

#include <algorithm>
#include <climits>

#include "common/logging.h"

namespace kjoin {

SignatureGenerator::SignatureGenerator(const Hierarchy& hierarchy, ElementMetric metric,
                                       SignatureScheme scheme, double delta)
    : hierarchy_(&hierarchy),
      metric_(metric),
      scheme_(scheme),
      delta_(delta),
      token_base_(hierarchy.num_nodes()) {
  KJOIN_CHECK(delta > 0.0 && delta <= 1.0) << "delta out of range: " << delta;
  d_delta_ = (delta >= 1.0) ? INT_MAX / 2 : ElementSimilarity::MinSignatureDepth(delta, metric);
}

void SignatureGenerator::AppendForMapping(const ElementMapping& mapping, int32_t element_index,
                                          std::vector<Signature>* out) const {
  const NodeId node = mapping.node;
  const int depth = hierarchy_->depth(node);
  switch (scheme_) {
    case SignatureScheme::kNode: {
      const NodeId sig =
          depth < d_delta_ ? node : hierarchy_->AncestorAtDepth(node, d_delta_);
      out->push_back({static_cast<SigId>(sig), element_index, 1.0f});
      return;
    }
    case SignatureScheme::kShallowPath: {
      const int hi = std::max(1, ElementSimilarity::MinLcaDepthFor(depth, delta_, metric_));
      const int lo = std::max(1, ElementSimilarity::MinLcaDepthFor(hi, delta_, metric_));
      for (int d = std::min(lo, depth); d <= std::min(hi, depth); ++d) {
        out->push_back(
            {static_cast<SigId>(hierarchy_->AncestorAtDepth(node, d)), element_index, 1.0f});
      }
      return;
    }
    case SignatureScheme::kDeepPath: {
      const int lo =
          std::max(1, ElementSimilarity::MinLcaDepthFor(depth, delta_, metric_));
      for (int d = std::min(lo, depth); d <= depth; ++d) {
        const double weight =
            mapping.phi * ElementSimilarity::MaxSimThroughDepth(d, depth, metric_);
        out->push_back({static_cast<SigId>(hierarchy_->AncestorAtDepth(node, d)), element_index,
                        static_cast<float>(weight)});
      }
      return;
    }
  }
}

std::vector<Signature> SignatureGenerator::Generate(const Object& object) const {
  std::vector<Signature> sigs;
  sigs.reserve(object.elements.size() * 2);
  AppendSignatures(object, &sigs);
  return sigs;
}

void SignatureGenerator::AppendSignatures(const Object& object,
                                          std::vector<Signature>* out) const {
  for (int32_t i = 0; i < object.size(); ++i) {
    const Element& element = object.elements[i];
    if (!element.has_node()) {
      out->push_back({TokenSignature(element.token_id), i, 1.0f});
      continue;
    }
    const size_t start = out->size();
    for (const ElementMapping& mapping : element.mappings) {
      AppendForMapping(mapping, i, out);
    }
    // Deduplicate the element's run in place, keeping the max weight:
    // several mappings (or the depth sweep of one mapping) can emit the
    // same ancestor.
    const auto run = out->begin() + static_cast<std::ptrdiff_t>(start);
    std::sort(run, out->end(), [](const Signature& a, const Signature& b) {
      if (a.id != b.id) return a.id < b.id;
      return a.weight > b.weight;
    });
    out->erase(std::unique(run, out->end(),
                           [](const Signature& a, const Signature& b) { return a.id == b.id; }),
               out->end());
  }
}

void SignatureGenerator::AppendNodeSignatures(const Element& element,
                                              std::vector<SigId>* out) const {
  if (!element.has_node()) {
    out->push_back(TokenSignature(element.token_id));
    return;
  }
  const size_t start = out->size();
  for (const ElementMapping& mapping : element.mappings) {
    const int depth = hierarchy_->depth(mapping.node);
    const NodeId sig = depth < d_delta_
                           ? mapping.node
                           : hierarchy_->AncestorAtDepth(mapping.node, d_delta_);
    const SigId id = static_cast<SigId>(sig);
    if (std::find(out->begin() + start, out->end(), id) == out->end()) out->push_back(id);
  }
}

}  // namespace kjoin
