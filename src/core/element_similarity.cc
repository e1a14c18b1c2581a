#include "core/element_similarity.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace kjoin {
namespace {

// ceil with protection against 2.9999999 style float noise just below an
// integer: such values round to the integer, never one above it. Erring
// low only loosens filters (keeps them sound).
int CeilSafe(double x) { return static_cast<int>(std::ceil(x - 1e-9)); }

}  // namespace

ElementSimilarity::ElementSimilarity(const LcaIndex& lca, ElementMetric metric,
                                     const SimCache* cache)
    : lca_(&lca), metric_(metric), cache_(cache) {}

double ElementSimilarity::NodeSim(NodeId x, NodeId y) const {
  if (x == y) return 1.0;
  return NodeSimFromDepth(x, y, lca_->LcaDepth(x, y));
}

double ElementSimilarity::NodeSimFromDepth(NodeId x, NodeId y, int lca_depth) const {
  // x == y needs no special case: there lca_depth == depth(x) ==
  // depth(y), and both metrics evaluate to exactly 1.0.
  const int dx = hierarchy().depth(x);
  const int dy = hierarchy().depth(y);
  switch (metric_) {
    case ElementMetric::kKJoin: {
      const int denom = std::max(dx, dy);
      return denom == 0 ? 1.0 : static_cast<double>(lca_depth) / denom;
    }
    case ElementMetric::kWuPalmer: {
      const int denom = dx + dy;
      return denom == 0 ? 1.0 : 2.0 * lca_depth / denom;
    }
  }
  return 0.0;
}

double ElementSimilarity::Sim(const Element& x, const Element& y) const {
  // Identical tokens are maximally similar regardless of mappings.
  if (x.token_id >= 0 && x.token_id == y.token_id) return 1.0;
  if (x.token == y.token && !x.token.empty()) return 1.0;
  // Anything else is a pure function of the token-id pair (ObjectBuilder
  // interning: equal ids ⇒ equal mapping sets), so on a hit the whole
  // mapping-pair loop collapses to one probe, with a value bit-identical
  // to what SimUncached would return.
  if (cache_ != nullptr && x.token_id >= 0 && y.token_id >= 0 && !x.mappings.empty() &&
      !y.mappings.empty()) {
    return cache_->GetOrCompute(SimCache::TokenKey(x.token_id, y.token_id),
                                [&] { return SimUncached(x, y); });
  }
  return SimUncached(x, y);
}

double ElementSimilarity::SimUncached(const Element& x, const Element& y) const {
  // NodeSim <= 1 caps the maximum at max(φ_x)·max(φ_y); a `best >= 1`
  // exit could never fire with φ < 1.
  const double bound = x.max_phi() * y.max_phi();
  double best = 0.0;
  for (const ElementMapping& mx : x.mappings) {
    for (const ElementMapping& my : y.mappings) {
      const double cap = mx.phi * my.phi;
      if (cap <= best) continue;  // cannot improve, whatever the node pair
      const double node_sim = NodeSim(mx.node, my.node);
      best = std::max(best, node_sim * cap);
      if (best >= bound) return best;
    }
  }
  return best;
}

int ElementSimilarity::MinSignatureDepth(double delta, ElementMetric metric) {
  KJOIN_CHECK(delta > 0.0 && delta < 1.0) << "delta must be in (0, 1), got " << delta;
  switch (metric) {
    case ElementMetric::kKJoin:
      return CeilSafe(delta / (1.0 - delta));
    case ElementMetric::kWuPalmer:
      return CeilSafe(delta / (2.0 * (1.0 - delta)));
  }
  return 0;
}

int ElementSimilarity::MinLcaDepthFor(int node_depth, double delta, ElementMetric metric) {
  switch (metric) {
    case ElementMetric::kKJoin:
      return CeilSafe(delta * node_depth);
    case ElementMetric::kWuPalmer:
      return CeilSafe(delta * node_depth / (2.0 - delta));
  }
  return 0;
}

double ElementSimilarity::MaxSimToDistinctNode(int node_depth, ElementMetric metric) {
  const double d = node_depth;
  switch (metric) {
    case ElementMetric::kKJoin:
      return d / (d + 1.0);
    case ElementMetric::kWuPalmer:
      return 2.0 * d / (2.0 * d + 1.0);
  }
  return 1.0;
}

double ElementSimilarity::MaxSimThroughDepth(int lca_depth, int node_depth,
                                             ElementMetric metric) {
  KJOIN_DCHECK(lca_depth <= node_depth);
  if (node_depth == 0) return 1.0;
  const double l = lca_depth;
  const double d = node_depth;
  switch (metric) {
    case ElementMetric::kKJoin:
      return l / d;
    case ElementMetric::kWuPalmer:
      return 2.0 * l / (l + d);
  }
  return 1.0;
}

}  // namespace kjoin
