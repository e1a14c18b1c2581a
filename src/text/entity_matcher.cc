#include "text/entity_matcher.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/string_util.h"
#include "text/edit_distance.h"
#include "text/tokenizer.h"

namespace kjoin {
namespace {

// Lower-case alphanumerics only: "BurgerKing" -> "burgerking",
// "San Francisco" -> "sanfrancisco". Returns `label` itself when it is
// already normal, otherwise its normal form written over `*buffer`.
std::string_view NormalizeLabel(std::string_view label, std::string* buffer) {
  auto normal = [](char c) { return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'); };
  size_t i = 0;
  while (i < label.size() && normal(label[i])) ++i;
  if (i == label.size()) return label;
  buffer->assign(label.substr(0, i));
  for (; i < label.size(); ++i) {
    const char c = label[i];
    if (c >= 'A' && c <= 'Z') {
      buffer->push_back(static_cast<char>(c - 'A' + 'a'));
    } else if (normal(c)) {
      buffer->push_back(c);
    }
  }
  return *buffer;
}

}  // namespace

void EntityMatcher::NodeTable::StartKey(std::string key) {
  keys.push_back(std::move(key));
  offsets.push_back(offsets.back());
}

void EntityMatcher::NodeTable::AppendNode(NodeId node) {
  nodes.push_back(node);
  ++offsets.back();
}

EntityMatcher::EntityMatcher(const Hierarchy& hierarchy, EntityMatcherOptions options)
    : hierarchy_(&hierarchy), options_(options) {
  KJOIN_CHECK_GT(options_.max_matches, 0);
  // One sort of the labelled nodes by (normalized label, node) groups each
  // label's nodes in ascending order.
  const auto n = static_cast<size_t>(hierarchy.num_nodes());
  std::vector<std::string> normalized(n);
  std::vector<NodeId> order;
  order.reserve(n);
  std::string buffer;
  for (NodeId v = 1; v < static_cast<NodeId>(n); ++v) {
    normalized[static_cast<size_t>(v)] = NormalizeLabel(hierarchy.label(v), &buffer);
    if (!normalized[static_cast<size_t>(v)].empty()) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const int c = normalized[static_cast<size_t>(a)].compare(normalized[static_cast<size_t>(b)]);
    return c < 0 || (c == 0 && a < b);
  });
  for (const NodeId v : order) {
    std::string& label = normalized[static_cast<size_t>(v)];
    if (labels_.keys.empty() || labels_.keys.back() != label) labels_.StartKey(std::move(label));
    labels_.AppendNode(v);
  }
  labels_.Seal();
}

int EntityMatcher::AddSynonym(std::string_view alias, std::string_view node_label) {
  KJOIN_CHECK(!frozen_.load(std::memory_order_relaxed))
      << "register synonyms before the first lookup";
  std::string buffer;
  const int32_t entry = labels_.Find(NormalizeLabel(node_label, &buffer));
  const std::string_view normalized_alias = NormalizeLabel(alias, &buffer);
  if (entry < 0 || normalized_alias.empty()) return 0;
  pending_synonyms_.emplace_back(std::string(normalized_alias), entry);
  return static_cast<int>(labels_.NodesOf(entry).size());
}

void EntityMatcher::Finalize() const {
  std::call_once(finalize_once_, [this] {
    frozen_.store(true, std::memory_order_relaxed);
    // A stable sort keeps each alias's registrations in order; an alias
    // registered twice for the same node keeps its first position.
    std::stable_sort(pending_synonyms_.begin(), pending_synonyms_.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [alias, entry] : pending_synonyms_) {
      if (synonyms_.keys.empty() || synonyms_.keys.back() != alias) {
        synonyms_.StartKey(std::move(alias));
      }
      const int32_t group = synonyms_.offsets[synonyms_.offsets.size() - 2];
      for (const NodeId node : labels_.NodesOf(entry)) {
        if (std::find(synonyms_.nodes.begin() + group, synonyms_.nodes.end(), node) ==
            synonyms_.nodes.end()) {
          synonyms_.AppendNode(node);
        }
      }
    }
    pending_synonyms_ = {};
    synonyms_.Seal();
    if (options_.enable_approximate) approx_index_ = std::make_unique<QGramIndex>(labels_.keys);
  });
}

std::optional<EntityMatch> EntityMatcher::MatchOne(std::string_view token) const {
  Finalize();
  std::string buffer;
  const std::string_view normalized = NormalizeLabel(token, &buffer);
  if (normalized.empty()) return std::nullopt;
  if (const int32_t entry = labels_.Find(normalized); entry >= 0) {
    return EntityMatch{labels_.NodesOf(entry).front(), 1.0};
  }
  if (const int32_t alias = synonyms_.Find(normalized); alias >= 0) {
    return EntityMatch{synonyms_.NodesOf(alias).front(), 1.0};
  }
  return std::nullopt;
}

std::vector<EntityMatch> EntityMatcher::MatchAll(std::string_view token) const {
  Finalize();
  std::vector<EntityMatch> matches;
  std::string buffer;
  const std::string_view normalized = NormalizeLabel(token, &buffer);
  if (normalized.empty()) return matches;

  auto add = [&](NodeId node, double phi) {
    for (EntityMatch& existing : matches) {
      if (existing.node == node) {
        existing.phi = std::max(existing.phi, phi);
        return;
      }
    }
    matches.push_back({node, phi});
  };

  if (const int32_t entry = labels_.Find(normalized); entry >= 0) {
    for (const NodeId node : labels_.NodesOf(entry)) add(node, 1.0);
  }
  if (const int32_t alias = synonyms_.Find(normalized); alias >= 0) {
    for (const NodeId node : synonyms_.NodesOf(alias)) add(node, 1.0);
  }

  if (options_.enable_approximate) {
    // The edit budget is the largest e with e <= MaxEditErrors(|query| + e):
    // a label e edits away differs from the query in length by at most e,
    // so φ >= min_phi needs that, and the bound minus e never grows with
    // e. Each step jumps to the bound for one more edit, which never
    // overshoots. No distance exceeds the query length plus the longest
    // label, which also ends the loop when min_phi <= 0.
    const int query_len = static_cast<int>(normalized.size());
    const int cap = query_len + static_cast<int>(approx_index_->max_length());
    int budget = std::min(MaxEditErrors(query_len, options_.min_phi), cap);
    while (budget < cap) {
      const int next = MaxEditErrors(query_len + budget + 1, options_.min_phi);
      if (next <= budget) break;
      budget = std::min(next, cap);
    }
    for (const QGramIndex::Hit& hit : approx_index_->SearchWithDistances(normalized, budget)) {
      if (hit.distance == 0) continue;  // already exact
      const std::string& label = labels_.keys[static_cast<size_t>(hit.id)];
      const double phi = EditSimilarityOfDistance(hit.distance, normalized.size(), label.size());
      if (phi < options_.min_phi) continue;
      for (const NodeId node : labels_.NodesOf(hit.id)) add(node, phi);
    }
  }

  std::sort(matches.begin(), matches.end(), [](const EntityMatch& a, const EntityMatch& b) {
    if (a.phi != b.phi) return a.phi > b.phi;
    return a.node < b.node;
  });
  if (static_cast<int>(matches.size()) > options_.max_matches) {
    matches.resize(options_.max_matches);
  }
  return matches;
}

}  // namespace kjoin
