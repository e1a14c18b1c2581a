#ifndef KJOIN_CORE_KJOIN_INDEX_H_
#define KJOIN_CORE_KJOIN_INDEX_H_

// Knowledge-aware similarity *search*: index a collection once (and grow
// it incrementally), then answer per-object queries.
//
// The paper's related work (§2.3) distinguishes joins from searches; the
// same signature machinery supports both. KJoinIndex stores every indexed
// object's FULL signature set in an inverted index; a query probes with
// its own prefix only. That asymmetry keeps the index insertable and the
// search complete: if a τ-similar indexed object shared no signature with
// the query's prefix, all its common signatures would sit in the query's
// suffix — which the prefix rules cap below the τ requirement.
//
//   KJoinIndex index(tree, options, objects);
//   index.Insert(more_objects[i]);
//   std::vector<SearchHit> hits;
//   index.SearchTopK(query, /*k=*/0, options.tau, JoinControl{}, &hits);
//
// Delta layering (the serving write path): a KJoinIndex built over a
// shared_ptr base stores only its own objects and postings; probes merge
// the chain's posting lists at query time, so publishing an update epoch
// costs O(batch), not O(index) (serve/index_manager.h folds deep chains
// back into a flat base via Flatten()). Tombstones make objects
// deletable anywhere in the chain without touching the layers below:
// object indexes are never reused, deleted entries are skipped at probe
// time and dropped when the chain is flattened.
//
// Thread safety: SearchTopK is safe for any number of concurrent callers
// — every mutable state it touches (verifier and probe scratch) is
// per-thread, and concurrent results are identical to serial execution.
// Insert and DeleteObject mutate the index and require
// external synchronization: no search may run concurrently with them
// (serve/index_manager.h never mutates a published index; it layers a
// delta over it instead). A base an immutable delta chain is built over
// must no longer be mutated.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/kjoin.h"
#include "core/posting_store.h"
#include "core/verifier.h"

namespace kjoin {

struct SearchHit {
  int32_t object_index = -1;  // position in the indexed collection
  double similarity = 0.0;

  friend bool operator==(const SearchHit&, const SearchHit&) = default;
};

// Hit ordering used by every search entry point, total so concurrent and
// sharded executions re-rank reproducibly: similarity descending, then
// object index ascending. (KOIOS-style progressive top-k and the serving
// router's gather both rely on the order being a strict total order.)
inline bool HitBefore(const SearchHit& a, const SearchHit& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.object_index < b.object_index;
}

// A monotonically-tightening similarity floor shared by the probes of one
// logical top-k query (the scatter-gather serving path fans a query to
// every shard and hands them all one bound). Each probe reports its own
// running k-th-best similarity through Tighten(); every probe polls
// value() to skip candidates — and whole prefix posting lists — that can
// no longer place in the global top-k.
//
// Soundness: a probe only offers the k-th best of the hits it has itself
// verified, and any subset's k-th best is <= the full result's k-th best,
// so value() never exceeds the final k-th-best similarity. Probes prune
// strictly below value() minus a float-safety slack, so ties survive and
// the merged top-k is byte-identical to a single-index search (see
// docs/serving.md, "Progressive τ contract").
//
// Lock-free: similarities are non-negative IEEE doubles, whose bit
// patterns order like the values, so the fetch-max is a CAS loop over one
// atomic uint64. Relaxed ordering suffices — the bound is a monotone
// hint, and every use tolerates a stale read.
class SearchBound {
 public:
  explicit SearchBound(double floor = 0.0) : bits_(Encode(floor)) {}

  // The current floor (never decreases).
  double value() const { return Decode(bits_.load(std::memory_order_relaxed)); }

  // Raises the bound to at least `similarity`; returns true when this
  // call advanced it.
  bool Tighten(double similarity) {
    const uint64_t proposed = Encode(similarity);
    uint64_t current = bits_.load(std::memory_order_relaxed);
    while (proposed > current) {
      if (bits_.compare_exchange_weak(current, proposed, std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

 private:
  static uint64_t Encode(double v) {
    if (v < 0.0) v = 0.0;  // similarities are non-negative; clamp sentinels
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double Decode(uint64_t bits) {
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::atomic<uint64_t> bits_;
};

// Per-call observability for SearchTopK. The bound_* counters record how
// often this probe advanced the bound and how much probe/verify work the
// tightened bound let it skip.
struct SearchStats {
  // Probed objects sent to verification: live, sharing a prefix signature,
  // and not ruled out by their sizes at τ.
  int64_t candidates = 0;
  // Tighten() calls that advanced the shared bound.
  int64_t bound_tightenings = 0;
  // Prefix posting lists never probed because the risen bound shortened
  // the prefix, the entries those lists held, and the posting blocks the
  // skip saved decoding.
  int64_t bound_pruned_lists = 0;
  int64_t bound_pruned_entries = 0;
  int64_t bound_pruned_blocks = 0;
  // Verifications that ran at a threshold above the index's configured
  // tau (each rejects earlier than a tau-level verification would).
  int64_t bound_raised_verifies = 0;
  // Candidates dropped before verification because their sizes cannot
  // reach the current bound: fuzzy overlap is a matching with per-pair
  // weights <= 1, so it never exceeds min(|x|, |y|); when the overlap the
  // bound demands is above that, VerifyAt could only reject.
  int64_t bound_skipped_verifies = 0;
  VerifyStats verify;
};

class KJoinIndex {
 public:
  // Copies `objects` into the index (it owns its collection so that
  // Insert can grow it). The hierarchy must outlive the index. Options
  // are interpreted as for KJoin; verify_mode/prunings control how
  // candidates are checked at query time.
  KJoinIndex(const Hierarchy& hierarchy, KJoinOptions options, std::vector<Object> objects);

  // Snapshot/clone adoption: the inverted index and the LCA tables are
  // supplied instead of being re-derived from `objects` (serve/snapshot.h
  // restores them from disk; serve/index_manager.h shares them across
  // epochs). `lca` may be shared between indexes over the same hierarchy;
  // `postings` is the frozen CSR store holding exactly the posting lists
  // IndexObject would build; `tombstones` are the deleted object indexes
  // (sorted or not).
  struct RestoredParts {
    std::shared_ptr<const LcaIndex> lca;  // null = build from the hierarchy
    PostingStore postings;
    std::vector<int32_t> tombstones;
  };
  KJoinIndex(const Hierarchy& hierarchy, KJoinOptions options, std::vector<Object> objects,
             RestoredParts parts);

  // Delta layer: an initially-empty index over `base` (which must no
  // longer be mutated). Shares the base's hierarchy, options and LCA
  // tables; Insert/DeleteObject touch only this layer, searches see the
  // whole chain. Object indexes continue the base's numbering.
  explicit KJoinIndex(std::shared_ptr<const KJoinIndex> base);

  // Appends one object; it becomes immediately searchable. Returns its
  // (chain-global) index. NOT safe to call concurrently with SearchTopK
  // (see header).
  int32_t Insert(const Object& object);

  // Tombstones an object anywhere in the chain: it stops matching
  // queries immediately and is dropped by the next Flatten(). Idempotent
  // — returns false when the object was already deleted. `index` must be
  // in [0, num_indexed()). NOT safe to call concurrently with SearchTopK.
  bool DeleteObject(int32_t index);

  // The one search entry point: the top-k most similar indexed objects
  // with SIMδ(query, object) >= min_similarity, in the documented total
  // order (HitBefore: similarity descending, ties by ascending object
  // index), so the k-th cut is reproducible even through similarity ties.
  // k <= 0 is a threshold search: every object at or above the floor.
  // The query must come from the same ObjectBuilder as the indexed
  // collection. Candidates are generated at the index's configured τ, so
  // min_similarity < τ would be incomplete and returns kInvalidArgument.
  //
  // The deadline and cancel token of `control` are polled between
  // verifications; on a trip (kDeadlineExceeded / kCancelled) *hits holds
  // the similar objects proven so far, sorted, filtered to
  // min_similarity and truncated to k. The byte-budget fields of
  // JoinControl do not apply to a single-probe search and are ignored.
  //
  // `bound` is a shared, monotonically-tightening similarity floor,
  // possibly advanced concurrently by other probes of the same logical
  // query (the scatter-gather serving path); null means a probe-local
  // bound seeded at min_similarity. The probe skips work that can no
  // longer place in the final top-k:
  //  - the signature prefix is recomputed at the risen bound, so whole
  //    posting lists (and their blocks) are never probed;
  //  - candidates verify at max(τ, bound - slack), so the count-pruning
  //    and adaptive bounds reject earlier;
  //  - once this probe holds k hits it reports its running k-th best
  //    back through Tighten().
  // Hits with similarity >= the final k-th best are never pruned (the
  // slack keeps ties float-safe), so results — including tie-break order
  // — do not depend on the bound. A shared bound's floor should be the
  // caller's min_similarity (lower floors are sound, just less pruned).
  Status SearchTopK(const Object& query, int32_t k, double min_similarity,
                    const JoinControl& control, std::vector<SearchHit>* hits,
                    SearchStats* stats = nullptr, SearchBound* bound = nullptr) const;

  // Objects ever indexed across the chain, deleted ones included (object
  // indexes are stable, never compacted away while the chain lives).
  int64_t num_indexed() const {
    return base_total_ + static_cast<int64_t>(objects_.size());
  }
  // num_indexed() minus tombstoned objects.
  int64_t num_live() const { return num_indexed() - total_dead_; }
  // Whether `index` is tombstoned in this layer or any layer below.
  bool deleted(int32_t index) const {
    for (const KJoinIndex* layer = this; layer != nullptr; layer = layer->base_.get()) {
      if (layer->dead_.find(index) != layer->dead_.end()) return true;
      // The owning layer reached: deeper layers predate the object.
      if (index >= layer->base_total_) return false;
    }
    return false;
  }
  const Object& object_at(int32_t index) const {
    const KJoinIndex* layer = this;
    while (index < layer->base_total_) layer = layer->base_.get();
    return layer->objects_[index - layer->base_total_];
  }
  // Objects stored by THIS layer only (the full collection for a flat
  // index; the tail past the base for a delta). Snapshot writers flatten
  // first (see Flatten).
  const std::vector<Object>& objects() const { return objects_; }
  const KJoinOptions& options() const { return options_; }
  const Hierarchy& hierarchy() const { return *hierarchy_; }

  // Delta-chain observability: 0 for a flat index, layers above the
  // flat base otherwise.
  int delta_depth() const { return depth_; }
  const std::shared_ptr<const KJoinIndex>& base() const { return base_; }

  // Collapses the chain into flat parts: the full object collection
  // (dead objects kept in place so indexes stay stable), merged postings
  // re-frozen into one CSR store with tombstoned entries dropped, and the
  // union of tombstones sorted ascending. Feeding the results to the
  // RestoredParts constructor yields a flat index that answers every
  // query identically — no signature regeneration, O(total postings)
  // work.
  void Flatten(std::vector<Object>* objects, RestoredParts* parts) const;

  // Posting entries stored by THIS layer (frozen + mutable tail). The
  // serving layer sizes epochs by this; benches report it.
  int64_t posting_entries() const { return store_.num_entries() + tail_entries_; }

  // This layer's frozen CSR store (empty for delta layers, which keep
  // their postings in the mutable tail until a Flatten/compaction).
  const PostingStore& packed_postings() const { return store_; }

  // Calls fn(SigId, const int32_t* docs, int32_t count) for every posting
  // list of THIS layer in ascending SigId order, frozen store and mutable
  // tail merged (tail entries follow store entries; both halves ascend,
  // so the combined list is ascending). The pointer is only valid during
  // the call. This is the snapshot writer's traversal: SigId-sorted
  // without building a map copy.
  template <typename Fn>
  void ForEachPosting(Fn&& fn) const {
    std::vector<std::pair<SigId, const std::vector<int32_t>*>> tail_sorted;
    tail_sorted.reserve(tail_.size());
    for (const auto& [id, list] : tail_) tail_sorted.emplace_back(id, &list);
    std::sort(tail_sorted.begin(), tail_sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<int32_t> scratch;
    size_t t = 0;
    for (int32_t slot = 0; slot < store_.num_lists(); ++slot) {
      const SigId id = store_.key(slot);
      // Tail-only signatures below this store key first.
      for (; t < tail_sorted.size() && tail_sorted[t].first < id; ++t) {
        fn(tail_sorted[t].first, tail_sorted[t].second->data(),
           static_cast<int32_t>(tail_sorted[t].second->size()));
      }
      const int32_t n = store_.length(slot);
      const std::vector<int32_t>* extra =
          (t < tail_sorted.size() && tail_sorted[t].first == id) ? tail_sorted[t].second
                                                                 : nullptr;
      scratch.resize(static_cast<size_t>(n) + (extra != nullptr ? extra->size() : 0));
      store_.Decode(slot, scratch.data());
      if (extra != nullptr) {
        std::copy(extra->begin(), extra->end(), scratch.begin() + n);
        ++t;
      }
      fn(id, scratch.data(), static_cast<int32_t>(scratch.size()));
    }
    for (; t < tail_sorted.size(); ++t) {
      fn(tail_sorted[t].first, tail_sorted[t].second->data(),
         static_cast<int32_t>(tail_sorted[t].second->size()));
    }
  }

  std::shared_ptr<const LcaIndex> shared_lca() const { return lca_; }

 private:
  // Signature-prefix probe: the live objects sharing a prefix signature
  // with the query whose sizes do not rule them out at τ. The prefix
  // length is re-derived from the bound's current value before each
  // posting list; lists past the tightened prefix are skipped and
  // accounted in `stats` (which may be null).
  std::vector<int32_t> Candidates(const Object& query, const SearchBound& bound,
                                  SearchStats* stats) const;
  void IndexObject(int32_t index);
  // Moves the mutable tail into the frozen CSR store (only legal while
  // the store is empty — the flat build path).
  void FreezeTail();
  void CollectLayers(std::vector<const KJoinIndex*>* layers) const;

  const Hierarchy* hierarchy_;
  KJoinOptions options_;
  // This layer's objects; chain-global index = base_total_ + local slot.
  std::vector<Object> objects_;
  // Delta layering: null base_ = flat index. base_total_ caches the
  // base's num_indexed() (fixed — a layered-over base is immutable);
  // depth_ counts layers above the flat root; dead_ holds the indexes
  // THIS layer tombstoned; total_dead_ the chain-wide count.
  std::shared_ptr<const KJoinIndex> base_;
  int32_t base_total_ = 0;
  int depth_ = 0;
  int64_t total_dead_ = 0;
  std::unordered_set<int32_t> dead_;
  // Shared so snapshot restores and epoch clones reuse one table.
  std::shared_ptr<const LcaIndex> lca_;
  ElementSimilarity element_sim_;
  SignatureGenerator signatures_;
  ObjectSimilarity object_sim_;
  Verifier verifier_;
  // signature -> objects of THIS layer carrying it (full sets,
  // deduplicated per object, chain-global indexes). The chain-summed
  // list length doubles as the signature's document frequency for
  // ordering query prefixes. Frozen lists live in the CSR store; objects
  // inserted after the freeze go to the mutable tail (their indexes are
  // strictly above everything frozen, so per-signature the concatenation
  // store-then-tail stays ascending). Delta layers are tail-only.
  PostingStore store_;
  std::unordered_map<SigId, std::vector<int32_t>> tail_;
  int64_t tail_entries_ = 0;
};

}  // namespace kjoin

#endif  // KJOIN_CORE_KJOIN_INDEX_H_
