#ifndef KJOIN_SERVE_SHARD_ROUTER_H_
#define KJOIN_SERVE_SHARD_ROUTER_H_

// Scatter-gather query execution over a set of shards, with progressive
// top-k pruning and request batching.
//
// The router fans each query out to every shard, gathers the per-shard
// hits (already in global numbering, see ShardBackend), merges them
// under the documented total order (HitBefore: similarity desc, object
// index asc), and truncates to the global top-k. Results are
// byte-identical to a single unsharded index at any shard count — the
// determinism contract tests/shard_test.cc locks in.
//
// Progressive pruning: for a top-k query the router allocates one
// SearchBound (core/kjoin_index.h) seeded at the query's similarity
// floor and hands it to every shard probe. Each probe publishes its
// running k-th-best similarity into the bound and polls it between
// candidates, so a shard that starts (or is still running) after another
// shard found strong hits skips the prefix lists, posting blocks, and
// verifications that can no longer reach the global top-k. The bound
// only ever *helps*: pruning stays kSearchBoundSlack below it, so the
// final top-k (ties included) is unchanged — only the work to find it
// shrinks. On a single-lane pool the scatter degenerates to a sequential
// cascade, which maximizes the effect: shard 0 completes and tightens
// the bound before shard 1 starts.
//
// Batching: Submit() enqueues and a dedicated dispatcher thread drains
// the queue in batches of up to max_batch, probing each shard ONCE per
// batch (one epoch acquisition, one scratch warmup per shard instead of
// per query). The dispatcher takes whatever accumulated while it was
// busy — under load batches form naturally with no added latency; an
// optional batch_window_seconds adds a bounded extra wait to coalesce
// harder. Admission (serve/admission.h, "router.*" metrics) sees the
// full admit -> execute wait including the window, so deadline-
// infeasible shedding accounts for queue + batch latency.
//
// The ShardBackend interface is deliberately address-space-agnostic:
// the router only ever sends it value-typed ShardQuery/ShardReply
// batches. LocalShard adapts an in-process ShardedIndexManager shard, or
// a whole unsharded IndexManager; a remote transport would marshal the
// same structs (the SearchBound pointer degrades to "poll your own local
// bound", which is still correct — the bound is a hint, never a
// correctness input).
//
// One shard is the unsharded front end: every query acquires the
// manager's current epoch once and runs against that consistent view,
// admission sheds past its cap instead of queueing without bound, and
// deadlines and cancel tokens ride the index's search path (a tripped
// query returns the hits proven so far with kDeadlineExceeded).
//
//   LocalShard local(&manager);
//   ShardRouter router({&local}, &pool,
//                      {.default_deadline_seconds = 0.1,
//                       .admission = {.max_in_flight = 64}},
//                      &metrics);
//   router.Submit(std::move(request), [](QueryResponse r) { ... });
//   QueryResponse response = router.Search(request);  // sync

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/kjoin_index.h"
#include "serve/admission.h"
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
  // OK, or why the query stopped (kResourceExhausted = shed before
  // execution, kDeadlineExceeded / kCancelled = partial hits inside).
  Status status;
  std::vector<SearchHit> hits;
  SearchStats stats;
  // Epoch the query ran against (0 when shed).
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

  // Probes `count` queries against this shard, filling `replies[i]` for
  // `queries[i]`. The batch runs under one index snapshot acquisition —
  // the amortization Submit batching exists for.
  virtual void ProbeBatch(const ShardQuery* queries, ShardReply* replies, int count) = 0;

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

  void ProbeBatch(const ShardQuery* queries, ShardReply* replies, int count) override;
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
  // Queries per dispatcher batch.
  int max_batch = 64;
  // Extra time the dispatcher waits for more queries after finding the
  // queue non-empty (it always takes everything already queued). 0 =
  // dispatch as soon as the dispatcher is free; batches still form
  // naturally while it is busy.
  double batch_window_seconds = 0.0;
  // Admission control, published under "router.*".
  AdmissionOptions admission;
};

class ShardRouter {
 public:
  // `shards` (non-empty), `pool` and `metrics` are borrowed and must
  // outlive the router; `metrics` may be null. Router-level metrics:
  // router.queries, router.hits, router.latency_seconds,
  // router.deadline_exceeded, router.cancelled, router.errors,
  // router.batches, router.batch_size (histogram), router.queue_depth
  // (gauge), plus the admission controller's router.shed* family and
  // per-shard counters under ShardMetricName("router", s, ...): probes,
  // hits, bound_tightenings, bound_pruned_lists, bound_pruned_entries,
  // bound_pruned_blocks.
  ShardRouter(std::vector<ShardBackend*> shards, ThreadPool* pool,
              ShardRouterOptions options = {}, MetricsRegistry* metrics = nullptr);

  // Drains every Submit()ted query (callbacks fire), then stops the
  // dispatcher.
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Synchronous scatter-gather on the calling thread. Shards are probed
  // sequentially (the progressive-bound cascade), each with the
  // remaining deadline budget; a mid-scatter deadline trip returns the
  // hits gathered so far with kDeadlineExceeded.
  QueryResponse Search(const QueryRequest& request);

  // Asynchronous batched path: admits, enqueues, and returns; `done`
  // runs on the dispatcher thread, after the query's admission slot is
  // released, so in_flight() no longer counts it. Shed queries invoke
  // `done` inline with kResourceExhausted.
  //
  // Callback contract: `done` should not throw. If it does anyway, the
  // exception is caught and logged (router.callback_exceptions counts
  // them); the admission slot was already released, so one bad
  // callback can neither leak capacity nor stall the dispatcher.
  void Submit(QueryRequest request, std::function<void(QueryResponse)> done);

  // Convenience: Submit()s every request and waits; responses in request
  // order.
  std::vector<QueryResponse> SearchBatch(const std::vector<QueryRequest>& requests);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int64_t in_flight() const { return admission_.in_flight(); }
  int64_t effective_cap() const { return admission_.effective_cap(); }
  double queue_delay_ewma_seconds() const { return admission_.queue_delay_ewma_seconds(); }
  void SetQueueDelayEwmaForTest(double seconds) {
    admission_.SetQueueDelayEwmaForTest(seconds);
  }
  // Queries enqueued but not yet picked up by the dispatcher.
  int64_t queue_depth() const;

 private:
  struct Pending {
    QueryRequest request;
    std::function<void(QueryResponse)> done;
    std::chrono::steady_clock::time_point admitted_at;
  };

  double EffectiveDeadline(const QueryRequest& request) const;
  QueryResponse Shed(AdmissionController::Outcome outcome, double deadline_seconds);
  void DispatcherLoop();
  // Scatters the batch to every shard (ParallelFor when the pool has
  // lanes), gathers, and fills `responses`. `remaining[i]` is query i's
  // already-clamped deadline budget (0 = none).
  void ExecuteBatch(const std::vector<const QueryRequest*>& requests,
                    const std::vector<double>& remaining,
                    std::vector<QueryResponse*>& responses);
  // Merges one query's per-shard replies (one pointer per shard) into
  // its response and records per-shard metrics.
  void Gather(const ShardReply* const* replies, int32_t top_k, QueryResponse* response);
  void RecordResponseMetrics(const QueryResponse& response);

  std::vector<ShardBackend*> shards_;
  ThreadPool* pool_;
  ShardRouterOptions options_;
  MetricsRegistry* metrics_;
  AdmissionController admission_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;  // guarded by queue_mu_
  bool shutdown_ = false;      // guarded by queue_mu_
  std::thread dispatcher_;
};

}  // namespace kjoin::serve

#endif  // KJOIN_SERVE_SHARD_ROUTER_H_
