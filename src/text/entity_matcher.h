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
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hierarchy/hierarchy.h"
#include "text/qgram_index.h"
#include "text/token_index.h"

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
  // (φ = 1). Returns the number of nodes labeled `node_label` (0 when
  // there is none, or when the alias normalizes to nothing; either way
  // nothing is registered). Registration only appends: the first lookup
  // sorts and groups every alias once, keeping each alias's nodes in
  // registration order, so MatchOne answers the first-registered node.
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
  // Sorted distinct normalized keys, each owning a run of nodes in one
  // flat array: key i maps to nodes[offsets[i], offsets[i + 1]).
  struct NodeTable {
    std::vector<std::string> keys;
    std::vector<int32_t> offsets{0};
    std::vector<NodeId> nodes;
    TokenIndex index;  // over keys, built by Seal

    // Starts key `key`'s run; the caller appends its nodes.
    void StartKey(std::string key);
    void AppendNode(NodeId node);
    // Indexes the keys once the last one is in.
    void Seal() { index = TokenIndex(keys); }
    // Index of `key`, or -1. Requires Seal.
    int32_t Find(std::string_view key) const { return index.Find(key, keys); }
    std::span<const NodeId> NodesOf(int32_t i) const {
      return {nodes.data() + offsets[static_cast<size_t>(i)],
              nodes.data() + offsets[static_cast<size_t>(i) + 1]};
    }
  };

  // Runs once, on the first lookup: freezes registration, sorts and
  // groups the registered synonyms and, with approximate matching on,
  // builds the q-gram index over the labels. std::call_once makes racing
  // first lookups safe.
  void Finalize() const;

  const Hierarchy* hierarchy_;
  EntityMatcherOptions options_;
  NodeTable labels_;  // normalized label -> nodes, ascending
  // (normalized alias, labels_ index) in registration order; emptied by
  // Finalize into synonyms_.
  mutable std::vector<std::pair<std::string, int32_t>> pending_synonyms_;
  mutable NodeTable synonyms_;  // normalized alias -> nodes
  mutable std::unique_ptr<QGramIndex> approx_index_;  // over labels_.keys
  mutable std::once_flag finalize_once_;
  // Set by the first MatchOne/MatchAll; AddSynonym refuses after it.
  mutable std::atomic<bool> frozen_{false};
};

}  // namespace kjoin

#endif  // KJOIN_TEXT_ENTITY_MATCHER_H_
