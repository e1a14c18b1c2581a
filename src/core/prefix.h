#ifndef KJOIN_CORE_PREFIX_H_
#define KJOIN_CORE_PREFIX_H_

// Global signature ordering and prefix computation (paper §3.1, §4.2).
//
// All signatures of all objects are sorted by document frequency
// ascending (rare signatures first), then each object keeps only a prefix
// of its sorted signature list:
//   * distinct-element rule (node prefix / path prefix, Definitions 5, 8):
//     drop suffix signatures while the dropped ones touch at most
//     τ_S − 1 distinct elements;
//   * weighted rule (weighted path prefix, Definition 9): drop suffix
//     signatures while the per-element-deduplicated maximum-similarity
//     mass of the dropped ones stays < τ|S|. An element whose signatures
//     are all dropped is accounted with mass max(1, its max weight):
//     an identical copy of the element on the other side matches it with
//     similarity 1 through any of its signatures.
// If two objects' prefixes share no signature, the objects cannot be
// τ-similar (Lemmas 2, 6, 7).

#include <cstdint>
#include <span>
#include <vector>

#include "core/signature.h"

namespace kjoin {

// Maps SigId -> dense rank. Rank order = (document frequency ascending,
// SigId ascending). Build by feeding every object's signature list, then
// Finalize.
//
// Counts and ranks live in dense arrays indexed by `SigId + 1` (so
// kUnknownTokenSignature, -1, is countable like any other id), sized by
// the largest id counted. Ids are dense by construction — hierarchy
// nodes, then `num_nodes + token_id` (SignatureGenerator), or interned
// ids in the baselines — so the arrays hold one slot per id in that
// range, once per join.
class GlobalSignatureOrder {
 public:
  // Counts each distinct SigId of the object once (document frequency).
  // Ids must be >= kUnknownTokenSignature.
  void CountObject(std::span<const Signature> sigs);

  // Sizes the dense arrays for ids up to `max_id`, so counting objects
  // whose largest id is known up front never regrows them. Optional.
  void Reserve(SigId max_id);

  // Freezes the order. No CountObject afterwards.
  void Finalize();

  // Dense rank in [0, num_signatures()). The id must have been counted:
  // any other id CHECK-fails.
  int32_t Rank(SigId id) const;

  int32_t num_signatures() const { return static_cast<int32_t>(by_rank_.size()); }

  // Final document frequency (0 for ids never counted). Like Rank, only
  // answerable once the order is frozen.
  int32_t DocumentFrequency(SigId id) const;

 private:
  void Grow(size_t slots);

  bool finalized_ = false;
  std::vector<int32_t> df_;       // by id + 1: objects carrying the id
  std::vector<uint32_t> stamp_;   // by id + 1: last object that counted it; freed at Finalize
  uint32_t objects_counted_ = 0;
  std::vector<int32_t> rank_;     // by id + 1, after Finalize: -1 = never counted
  std::vector<SigId> by_rank_;
};

// Sorts `sigs` by global rank (ties: element index) — the layout the
// prefix routines and the join driver expect.
void SortByGlobalOrder(const GlobalSignatureOrder& order, std::vector<Signature>* sigs);

// SortByGlobalOrder in place on one object's slice of a flat signature
// arena, also writing the per-signature ranks (parallel to the sorted
// `sigs`, ascending with ties across elements) into `ranks` so the join
// driver never re-resolves Rank() in the hot path.
void SortByGlobalOrderWithRanks(const GlobalSignatureOrder& order, std::span<Signature> sigs,
                                std::vector<int32_t>* ranks);

// Prefix length under the distinct-element rule. `sigs` must be sorted by
// global order. `min_similar_elements` is τ_S. Returns a value in
// [1, sigs.size()] for non-empty input (0 only for empty input).
//
// Both prefix routines keep their per-element walk state in thread-local
// arrays indexed by Signature::element (an index within the object, so
// >= 0 and below the object's size) and clear what they touched before
// returning: no allocation once a thread has seen its largest object.
int32_t PrefixLengthDistinct(std::span<const Signature> sigs, int32_t min_similar_elements);

// Prefix length under the weighted rule; `overlap_budget` is τ|S| (or the
// metric-equivalent from MinSimilarElements' derivation).
int32_t PrefixLengthWeighted(std::span<const Signature> sigs, double overlap_budget);

}  // namespace kjoin

#endif  // KJOIN_CORE_PREFIX_H_
