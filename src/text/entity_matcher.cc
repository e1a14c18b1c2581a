#include "text/entity_matcher.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "common/logging.h"
#include "common/string_util.h"
#include "text/edit_distance.h"
#include "text/tokenizer.h"

namespace kjoin {
namespace {

std::string NormalizeLabel(std::string_view label) {
  // Lower-case alphanumerics only: "BurgerKing" -> "burgerking",
  // "San Francisco" -> "sanfrancisco".
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    if (c >= 'A' && c <= 'Z') {
      out.push_back(static_cast<char>(c - 'A' + 'a'));
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

EntityMatcher::EntityMatcher(const Hierarchy& hierarchy, EntityMatcherOptions options)
    : hierarchy_(&hierarchy), options_(options) {
  KJOIN_CHECK_GT(options_.max_matches, 0);
  std::unordered_map<std::string, std::vector<NodeId>> by_label;
  for (NodeId v = 1; v < hierarchy.num_nodes(); ++v) {
    std::string normalized = NormalizeLabel(hierarchy.label(v));
    if (normalized.empty()) continue;
    by_label[std::move(normalized)].push_back(v);
  }
  entries_.reserve(by_label.size());
  for (auto& [label, nodes] : by_label) {
    entries_.push_back({label, std::move(nodes)});
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const LabelEntry& a, const LabelEntry& b) { return a.normalized < b.normalized; });
}

int EntityMatcher::AddSynonym(std::string_view alias, std::string_view node_label) {
  KJOIN_CHECK(!frozen_.load(std::memory_order_relaxed))
      << "register synonyms before the first lookup";
  const std::string normalized_alias = NormalizeLabel(alias);
  const int32_t entry = FindEntry(NormalizeLabel(node_label));
  if (entry < 0 || normalized_alias.empty()) return 0;
  auto it = std::lower_bound(synonyms_.begin(), synonyms_.end(), normalized_alias,
                             [](const auto& a, const std::string& key) { return a.first < key; });
  if (it == synonyms_.end() || it->first != normalized_alias) {
    it = synonyms_.insert(it, {normalized_alias, {}});
  }
  for (NodeId node : entries_[entry].nodes) {
    if (std::find(it->second.begin(), it->second.end(), node) == it->second.end()) {
      it->second.push_back(node);
    }
  }
  return static_cast<int>(it->second.size());
}

int32_t EntityMatcher::FindEntry(std::string_view normalized) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), normalized,
      [](const LabelEntry& entry, std::string_view key) { return entry.normalized < key; });
  if (it == entries_.end() || it->normalized != normalized) return -1;
  return static_cast<int32_t>(it - entries_.begin());
}

void EntityMatcher::EnsureApproxIndex() const {
  std::call_once(approx_once_, [this] {
    std::vector<std::string> labels;
    labels.reserve(entries_.size());
    for (const LabelEntry& entry : entries_) labels.push_back(entry.normalized);
    approx_index_ = std::make_unique<QGramIndex>(std::move(labels), options_.qgram_q);
  });
}

std::optional<EntityMatch> EntityMatcher::MatchOne(std::string_view token) const {
  Freeze();
  const std::string normalized = NormalizeLabel(token);
  if (normalized.empty()) return std::nullopt;
  const int32_t entry = FindEntry(normalized);
  if (entry >= 0) return EntityMatch{entries_[entry].nodes.front(), 1.0};
  auto it = std::lower_bound(synonyms_.begin(), synonyms_.end(), normalized,
                             [](const auto& a, const std::string& key) { return a.first < key; });
  if (it != synonyms_.end() && it->first == normalized) {
    return EntityMatch{it->second.front(), 1.0};
  }
  return std::nullopt;
}

std::vector<EntityMatch> EntityMatcher::MatchAll(std::string_view token) const {
  Freeze();
  std::vector<EntityMatch> matches;
  const std::string normalized = NormalizeLabel(token);
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

  const int32_t entry = FindEntry(normalized);
  if (entry >= 0) {
    for (NodeId node : entries_[entry].nodes) add(node, 1.0);
  }
  auto it = std::lower_bound(synonyms_.begin(), synonyms_.end(), normalized,
                             [](const auto& a, const std::string& key) { return a.first < key; });
  if (it != synonyms_.end() && it->first == normalized) {
    for (NodeId node : it->second) add(node, 1.0);
  }

  if (options_.enable_approximate) {
    EnsureApproxIndex();
    const int max_len = static_cast<int>(normalized.size());
    // φ >= min_phi constrains errors relative to the longer string; use
    // the query-side length plus that budget as the longest admissible
    // label, then verify φ per candidate.
    int budget = MaxEditErrors(max_len, options_.min_phi);
    // Longer labels allow more absolute errors; widen until stable.
    for (int iter = 0; iter < 4; ++iter) {
      const int next = MaxEditErrors(max_len + budget, options_.min_phi);
      if (next == budget) break;
      budget = next;
    }
    for (int32_t id : approx_index_->SearchWithinDistance(normalized, budget)) {
      const LabelEntry& candidate = entries_[id];
      if (candidate.normalized == normalized) continue;  // already exact
      const double phi = EditSimilarity(normalized, candidate.normalized);
      if (phi < options_.min_phi) continue;
      for (NodeId node : candidate.nodes) add(node, phi);
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
