#ifndef KJOIN_SERVE_SHARD_ROUTER_H_
#define KJOIN_SERVE_SHARD_ROUTER_H_

// Scatter-gather query execution over a set of shards, with progressive
// top-k pruning.
//
// The router fans each query out to every shard, gathers the per-shard
// hits (already in global numbering, see ShardBackend), merges them
// under the documented total order (HitBefore: similarity desc, object
// index asc), and truncates to the global top-k. Results are
// byte-identical to a single unsharded index at any shard count — the
// determinism contract tests/shard_test.cc locks in.
//
// One entry point: Search() runs a query on the calling thread — a
// scatter (ParallelFor over the shards), gather and accounting. Callers
// bound their own concurrency: the KJNP server runs at most one search
// per event loop (net/server.h). Each shard takes the remaining deadline budget when its own
// probe starts; a shard reached after the deadline is not probed, and
// the query returns the hits gathered so far with kDeadlineExceeded.
//
// Progressive pruning: for a top-k query the router allocates one
// SearchBound (core/kjoin_index.h) seeded at the query's similarity
// floor and hands it to every shard probe. Each probe publishes its
// running k-th-best similarity into the bound and polls it between
// candidates, so a shard that starts (or is still running) after another
// shard found strong hits skips the prefix lists and verifications that
// can no longer reach the global top-k. The bound only ever *helps*:
// pruning stays kSearchBoundSlack below it, so the final top-k (ties
// included) is unchanged — only the work to find it shrinks. On a
// single-lane pool the scatter degenerates to a sequential cascade,
// which maximizes the effect: shard 0 completes and tightens the bound
// before shard 1 starts.
//
// The ShardBackend interface is deliberately address-space-agnostic:
// the router only ever sends it a value-typed ShardQuery and reads back
// a ShardReply. LocalShard adapts an in-process ShardedIndexManager
// shard, or a whole unsharded IndexManager; a remote transport would
// marshal the same structs (the SearchBound pointer degrades to "poll
// your own local bound", which is still correct — the bound is a hint,
// never a correctness input).
//
// One shard is the unsharded front end: every query acquires the
// manager's current epoch once and runs against that consistent view,
// and deadlines and cancel tokens ride the index's search path (a tripped
// query returns the hits proven so far with kDeadlineExceeded).
//
//   LocalShard local(&manager);
//   ShardRouter router({&local}, &pool,
//                      {.default_deadline_seconds = 0.1}, &metrics);
//   QueryResponse response = router.Search(request);

#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/kjoin_index.h"
#include "serve/index_manager.h"
#include "serve/sharded_index_manager.h"

namespace kjoin::serve {

struct QueryRequest {
  // Must be built by a builder token-id-compatible with the indexed
  // collection (MakeQueryPipeline for snapshot-loaded stacks).
  Object query;
  // > 0 = top-k search; 0 = all objects at or above the floor.
  int32_t top_k = 0;
  // Similarity floor for both kinds; < 0 (the default) uses the index's
  // configured tau. An explicit value — including 0.0 — is forwarded to
  // the index, which validates it (values below tau return
  // kInvalidArgument). The sentinel mirrors deadline_seconds below.
  double min_similarity = -1.0;
  // Per-request deadline; < 0 = router default, 0 = explicitly none.
  double deadline_seconds = -1.0;
  // Optional external cancel signal; not owned, must outlive the query.
  const CancelToken* cancel_token = nullptr;
};

struct QueryResponse {
  // OK, or why the query stopped (kDeadlineExceeded / kCancelled =
  // partial hits inside).
  Status status;
  std::vector<SearchHit> hits;
  SearchStats stats;
  // Epoch the query ran against.
  int64_t epoch_version = 0;
  double seconds = 0.0;
};

// One query as a shard sees it: the floor is already resolved (no
// sentinel), indexes in the reply are global.
struct ShardQuery {
  const Object* query = nullptr;
  int32_t top_k = 0;          // > 0 top-k, 0 = all at or above min_similarity
  double min_similarity = 0.0;
  double deadline_seconds = 0.0;  // remaining budget; <= 0 = none
  const CancelToken* cancel_token = nullptr;
  // Shared progressive bound for this query (null for threshold
  // searches); probes both tighten and poll it.
  SearchBound* bound = nullptr;
};

struct ShardHit {
  int32_t global_index = 0;
  double similarity = 0.0;
};

struct ShardReply {
  Status status;
  // In HitBefore order under *global* indexes (the backend translates
  // before returning, and the local -> global map is strictly
  // increasing, so local order is global order).
  std::vector<ShardHit> hits;
  SearchStats stats;
  int64_t epoch_version = 0;
};

class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  // Probes one query against this shard, filling `reply`. Called
  // concurrently for different queries; must be thread-safe.
  virtual void Probe(const ShardQuery& query, ShardReply* reply) = 0;

  // The shard's configured similarity threshold, used to resolve the
  // QueryRequest min_similarity sentinel (all shards of one collection
  // share it).
  virtual double tau() const = 0;
};

// In-process backend over one ShardedIndexManager shard, or over a whole
// unsharded IndexManager (the single-shard router).
class LocalShard : public ShardBackend {
 public:
  // Shard `shard` of `manager`; hits are translated to global indexes.
  LocalShard(const ShardedIndexManager* manager, int shard);
  // All of `manager` as one shard: local indexes are the global ones.
  explicit LocalShard(const IndexManager* manager);

  void Probe(const ShardQuery& query, ShardReply* reply) override;
  double tau() const override { return tau_; }

 private:
  const IndexManager* manager_;
  // Null for an unsharded manager (no index translation).
  const ShardedIndexManager* sharded_ = nullptr;
  int shard_ = 0;
  double tau_;
};

struct ShardRouterOptions {
  // Deadline applied when a request does not set its own; <= 0 = none.
  double default_deadline_seconds = 0.0;
};

class ShardRouter {
 public:
  // `shards` (non-empty), `pool` and `metrics` are borrowed and must
  // outlive the router; `metrics` may be null. Router-level metrics:
  // router.queries, router.hits, router.latency_seconds,
  // router.deadline_exceeded, router.cancelled, router.errors, plus
  // per-shard counters under ShardMetricName("router", s, ...): probes,
  // hits, bound_tightenings, bound_pruned_lists, bound_pruned_entries.
  // All are resolved here, so they read 0 before the first query.
  ShardRouter(std::vector<ShardBackend*> shards, ThreadPool* pool,
              ShardRouterOptions options = {}, MetricsRegistry* metrics = nullptr);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Synchronous scatter-gather, run from the calling thread (which must
  // not be a task of `pool`). A mid-scatter deadline trip returns the
  // hits gathered so far with kDeadlineExceeded.
  QueryResponse Search(const QueryRequest& request);

  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  // Merges one query's per-shard replies into its response and records
  // per-shard metrics.
  void Gather(const std::vector<ShardReply>& replies, int32_t top_k, QueryResponse* response);
  void RecordResponseMetrics(const QueryResponse& response);

  // One shard's counters, resolved at construction.
  struct ShardCounters {
    Counter* probes;
    Counter* hits;
    Counter* bound_tightenings;
    Counter* bound_pruned_lists;
    Counter* bound_pruned_entries;
  };

  std::vector<ShardBackend*> shards_;
  ThreadPool* pool_;
  ShardRouterOptions options_;
  // All null, and shard_counters_ empty, when the router has no registry.
  Counter* queries_ = nullptr;
  Counter* hits_ = nullptr;
  Counter* deadline_exceeded_ = nullptr;
  Counter* cancelled_ = nullptr;
  Counter* errors_ = nullptr;
  Histogram* latency_ = nullptr;
  std::vector<ShardCounters> shard_counters_;
};

}  // namespace kjoin::serve

#endif  // KJOIN_SERVE_SHARD_ROUTER_H_
