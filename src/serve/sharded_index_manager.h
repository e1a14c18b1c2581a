#ifndef KJOIN_SERVE_SHARDED_INDEX_MANAGER_H_
#define KJOIN_SERVE_SHARDED_INDEX_MANAGER_H_

// Shard-per-core serving: hash-partitions the object collection across N
// independent IndexManager epoch chains so probes, rebuilds, and WAL
// appends on different shards never contend on one epoch swap lock.
//
// Numbering contract (the reason sharded and single-index results can be
// byte-identical, tested in tests/shard_test.cc): every object keeps the
// *global* arrival index it would have had in a single index. An object's
// shard is a pure function of that global index — ShardOf(g) =
// splitmix64(g) % N — so placement is reproducible from the count alone,
// with no mapping table to persist. Each shard numbers its objects
// locally (0.. in arrival order); `GlobalIndexes(s)` returns the
// strictly-increasing local -> global table a gatherer uses to translate
// hits. Strict monotonicity means per-shard HitBefore order (similarity
// desc, object index asc) survives translation unchanged — the global
// merge never re-ranks ties differently than a single index would.
//
// Durability: AttachWal(prefix) attaches "<prefix>.shard-<i>" to shard i
// and, after replay, *reconstructs* the mapping by re-running ShardOf
// over g = 0..M-1 (M = sum of shard sizes) and checking each shard got
// exactly its recovered count — a mismatch means the WAL set is not the
// product of this placement function (e.g. a partially-failed insert)
// and fails with kDataLoss rather than serving misnumbered hits.
// InsertBatch gates on every shard being healthy up front to make such
// partial failures rare, but a crash mid-batch can still produce them;
// recover from a snapshot in that case (docs/serving.md, "Sharded
// serving").
//
// Writes fan out per batch: objects are assigned global indexes in
// arrival order, partitioned, and appended to each owning shard (token
// table extensions go to every shard so none lags). Reads go through
// ShardRouter (serve/shard_router.h), which scatters a query to all
// shards and gathers the global top-k under a shared progressive bound.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/kjoin_index.h"
#include "serve/index_manager.h"

namespace kjoin::serve {

// Deterministic shard placement for global object index `g`. splitmix64
// finalizer: sequential indexes land on uncorrelated shards, so hot
// insertion ranges spread instead of striping.
inline int ShardOf(int64_t g, int num_shards) {
  uint64_t x = static_cast<uint64_t>(g) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<int>(x % static_cast<uint64_t>(num_shards));
}

class ShardedIndexManager {
 public:
  // Cold-start: partitions `objects` (global indexes 0..n-1 in the given
  // order) across `num_shards` managers sharing `hierarchy` and `pool`.
  // Per-shard manager.* metrics would collide in one registry, so shards
  // run without one; `metrics` (may be null) receives the sharded-level
  // counters and the router publishes per-shard serving metrics under
  // ShardMetricName("router", s, ...).
  ShardedIndexManager(std::shared_ptr<const Hierarchy> hierarchy, KJoinOptions options,
                      std::vector<Object> objects, std::vector<std::string> tokens,
                      std::vector<std::pair<std::string, std::string>> synonyms,
                      int num_shards, ThreadPool* pool, MetricsRegistry* metrics = nullptr,
                      IndexManagerOptions manager_options = {});

  ShardedIndexManager(const ShardedIndexManager&) = delete;
  ShardedIndexManager& operator=(const ShardedIndexManager&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  IndexManager* shard(int s) { return shards_[static_cast<size_t>(s)].get(); }
  const IndexManager* shard(int s) const { return shards_[static_cast<size_t>(s)].get(); }

  // Shard s's strictly-increasing local -> global index table, as of the
  // last completed mutation. RCU snapshot: stays valid while held even
  // across concurrent inserts.
  std::shared_ptr<const std::vector<int32_t>> GlobalIndexes(int s) const;

  // Attaches "<path_prefix>.shard-<i>" to shard i (replaying records past
  // each shard's durable state), then reconstructs and verifies the
  // global numbering (see the header comment). Call once, before
  // concurrent traffic.
  Status AttachWal(const std::string& path_prefix, bool fsync = true);

  // Assigns the batch global indexes in order, partitions by ShardOf,
  // and appends each part to its shard (the full `tokens` table, when
  // given, goes to every shard). Gated up front on no shard being
  // degraded read-only: such a shard fails the whole batch with
  // kUnavailable before anything is assigned, keeping the numbering
  // reconstruction invariant intact. A kRecovering shard stays
  // writable — its first acked append (which must flow through here)
  // is what completes the recovery.
  Status InsertBatch(std::vector<Object> objects, std::vector<std::string> tokens = {});

  // Tombstones the given *global* indexes, routed to their owning
  // shards. Unknown indexes reject the batch with kInvalidArgument.
  Status DeleteObjects(std::vector<int32_t> global_indexes);

  // Barrier over every shard.
  void Flush();

  // Global object count (including tombstoned), == the next assigned
  // global index.
  int64_t num_objects() const;

  // Worst-of over the shards: degraded dominates recovering dominates
  // serving; failure/trip/recovery counters are summed.
  ManagerHealth HealthSnapshot() const;

 private:
  Status InsertPartitioned(std::vector<std::vector<Object>> parts,
                           std::vector<std::string> tokens);

  std::vector<std::unique_ptr<IndexManager>> shards_;
  MetricsRegistry* metrics_;
  // The retry_after_ms an insert refused while a shard is degraded carries.
  int64_t retry_hint_ms_;

  // Write-path state. to_global_ is copy-on-write (readers copy the
  // shared_ptr under mu_, writers publish a new vector), so gatherers
  // translating hits never block an insert.
  mutable std::mutex mu_;
  int64_t next_global_ = 0;  // guarded by mu_
  std::vector<std::shared_ptr<const std::vector<int32_t>>> to_global_;  // guarded by mu_
};

}  // namespace kjoin::serve

#endif  // KJOIN_SERVE_SHARDED_INDEX_MANAGER_H_
