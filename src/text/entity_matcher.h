#ifndef KJOIN_TEXT_ENTITY_MATCHER_H_
#define KJOIN_TEXT_ENTITY_MATCHER_H_

// Mapping record tokens onto knowledge-hierarchy nodes.
//
// K-Join assumes each element maps to a single tree node (exact label
// match); K-Join+ lets an element map to multiple nodes through three
// channels (paper §2.1.1 and §6.4):
//   1. ambiguity — several nodes share the surface form (e.g. after a
//      DAG was unfolded into a tree);
//   2. synonyms — registered aliases map with confidence φ = 1;
//   3. typos — approximate label matches with φ = normalized edit
//      similarity, kept when φ >= min_phi.
// Tokens that match nothing are still elements (they can only match an
// identical token on the other side).

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hierarchy/hierarchy.h"
#include "text/qgram_index.h"

namespace kjoin {

// One candidate node for a token, with the mapping confidence φ.
struct EntityMatch {
  NodeId node = kInvalidNode;
  double phi = 0.0;

  friend bool operator==(const EntityMatch&, const EntityMatch&) = default;
};

struct EntityMatcherOptions {
  // Minimum φ for approximate matches; also the default element threshold
  // δ is a sensible value here, since lower-φ mappings can never produce
  // a δ-similar pair on their own.
  double min_phi = 0.6;
  // Approximate (typo) matching on/off; off = exact + synonyms only.
  bool enable_approximate = true;
  // q for the q-gram index behind approximate matching.
  int qgram_q = 2;
  // Cap on mappings returned per token (highest φ first).
  int max_matches = 8;
};

class EntityMatcher {
 public:
  // Indexes every node label except the root. Labels are normalized to
  // lower-case alphanumerics for lookup. The hierarchy must outlive the
  // matcher. Call AddSynonym before the first Match* call.
  EntityMatcher(const Hierarchy& hierarchy, EntityMatcherOptions options = {});

  // Registers `alias` as a synonym of every node labeled `node_label`
  // (φ = 1). Returns the number of nodes the alias now points at.
  // CHECK-fails once any MatchOne/MatchAll has run: a token's mappings
  // are a function of the token alone from the first lookup on, which is
  // what lets ObjectBuilder resolve each token once.
  int AddSynonym(std::string_view alias, std::string_view node_label);

  // K-Join mode: the single best mapping — exact label match first, then
  // synonym; approximate matches are not used in single mode (the paper's
  // K-Join maps an element to one node or none). nullopt when unmatched.
  std::optional<EntityMatch> MatchOne(std::string_view token) const;

  // K-Join+ mode: all mappings (exact + synonyms + approximate), sorted
  // by φ descending then NodeId, truncated to options.max_matches.
  // MatchOne and MatchAll are safe to call from many threads at once.
  std::vector<EntityMatch> MatchAll(std::string_view token) const;

  const Hierarchy& hierarchy() const { return *hierarchy_; }

 private:
  struct LabelEntry {
    std::string normalized;
    std::vector<NodeId> nodes;
  };

  // Index of `normalized` in entries_, or -1.
  int32_t FindEntry(std::string_view normalized) const;
  void EnsureApproxIndex() const;
  // Marks the synonym table frozen (every Match* call).
  void Freeze() const {
    if (!frozen_.load(std::memory_order_relaxed)) frozen_.store(true, std::memory_order_relaxed);
  }

  const Hierarchy* hierarchy_;
  EntityMatcherOptions options_;
  std::vector<LabelEntry> entries_;  // sorted by normalized label
  // alias (normalized) -> nodes; sorted by alias.
  std::vector<std::pair<std::string, std::vector<NodeId>>> synonyms_;
  // Lazily built q-gram index over entries_ labels (mutable: built on
  // first approximate lookup, after synonyms are registered). The
  // once_flag makes the first build safe under concurrent MatchAll calls.
  mutable std::once_flag approx_once_;
  mutable std::unique_ptr<QGramIndex> approx_index_;
  // Set by the first MatchOne/MatchAll; AddSynonym refuses after it.
  mutable std::atomic<bool> frozen_{false};
};

}  // namespace kjoin

#endif  // KJOIN_TEXT_ENTITY_MATCHER_H_
