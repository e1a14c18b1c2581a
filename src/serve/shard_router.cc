#include "serve/shard_router.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"

namespace kjoin::serve {
namespace {

void AddStats(SearchStats* into, const SearchStats& other) {
  into->candidates += other.candidates;
  into->bound_tightenings += other.bound_tightenings;
  into->bound_pruned_lists += other.bound_pruned_lists;
  into->bound_pruned_entries += other.bound_pruned_entries;
  into->bound_pruned_blocks += other.bound_pruned_blocks;
  into->bound_raised_verifies += other.bound_raised_verifies;
  into->bound_skipped_verifies += other.bound_skipped_verifies;
  into->verify.Add(other.verify);
}

// Router-side progressive tightening. A single shard's probe only
// offers its k-th best once IT holds k hits — with many shards no one
// shard may ever get there. The router therefore merges the similarity
// of every gathered hit into one per-query top-k tracker as each shard
// finishes, and offers the *combined* k-th best to the shared bound.
// Sound for the same reason as the in-probe offer: the tracked hits are
// a subset of all verified hits, so their k-th best is <= the global
// k-th best, and Tighten is a monotone fetch-max.
struct TopKTracker {
  explicit TopKTracker(int32_t top_k) : k(top_k) {}

  // Folds one shard reply in; returns the number of bound advances (0/1).
  int64_t Offer(const std::vector<ShardHit>& hits, SearchBound* bound) {
    std::lock_guard<std::mutex> lock(mu);
    for (const ShardHit& hit : hits) {
      if (static_cast<int32_t>(heap.size()) < k) {
        heap.push(hit.similarity);
      } else if (hit.similarity > heap.top()) {
        heap.pop();
        heap.push(hit.similarity);
      }
    }
    if (static_cast<int32_t>(heap.size()) < k) return 0;
    if (!bound->Tighten(heap.top())) return 0;
    ++tightenings;
    return 1;
  }

  std::mutex mu;
  int32_t k;
  // Min-heap of the k best similarities seen across shards so far; its
  // top is the running global k-th best.
  std::priority_queue<double, std::vector<double>, std::greater<double>> heap;
  int64_t tightenings = 0;  // guarded by mu
};

// Gather status precedence: a cancel is the caller's own signal, a
// deadline trip means partial results, any other error outranks OK.
int StatusRank(const Status& status) {
  if (IsCancelled(status)) return 3;
  if (IsDeadlineExceeded(status)) return 2;
  if (!status.ok()) return 1;
  return 0;
}

}  // namespace

LocalShard::LocalShard(const ShardedIndexManager* manager, int shard)
    : LocalShard(manager->shard(shard)) {
  sharded_ = manager;
  shard_ = shard;
}

LocalShard::LocalShard(const IndexManager* manager)
    : manager_(manager), tau_(manager->Acquire()->index->options().tau) {}

void LocalShard::ProbeBatch(const ShardQuery* queries, ShardReply* replies, int count) {
  // One snapshot + one mapping per batch: every query in the batch sees
  // the same shard state. Epoch first, mapping second — the mapping is
  // updated before a batch is handed to the shard, so reading in this
  // order guarantees the mapping covers every index the epoch can emit.
  const std::shared_ptr<const IndexEpoch> epoch = manager_->Acquire();
  const std::shared_ptr<const std::vector<int32_t>> to_global =
      sharded_ != nullptr ? sharded_->GlobalIndexes(shard_) : nullptr;
  const KJoinIndex& index = *epoch->index;
  std::vector<SearchHit> hits;
  Object resolved;
  for (int i = 0; i < count; ++i) {
    const ShardQuery& q = queries[i];
    ShardReply& reply = replies[i];
    reply.epoch_version = epoch->version;
    JoinControl control;
    control.deadline_seconds = q.deadline_seconds;
    control.cancel_token = q.cancel_token;
    hits.clear();
    // A query built against an older dictionary than this epoch's table
    // may carry token_id = -1 for a token the epoch now indexes.
    const Object& query =
        ResolveUnknownTokens(*q.query, epoch->tokens, &resolved) ? resolved : *q.query;
    reply.status = index.SearchTopK(query, q.top_k, q.min_similarity, control, &hits,
                                    &reply.stats, q.bound);
    reply.hits.clear();
    reply.hits.reserve(hits.size());
    for (const SearchHit& hit : hits) {
      const int32_t global =
          to_global != nullptr ? (*to_global)[static_cast<size_t>(hit.object_index)]
                               : hit.object_index;
      reply.hits.push_back({global, hit.similarity});
    }
  }
}

ShardRouter::ShardRouter(std::vector<ShardBackend*> shards, ThreadPool* pool,
                         ShardRouterOptions options, MetricsRegistry* metrics)
    : shards_(std::move(shards)),
      pool_(pool),
      options_(options),
      metrics_(metrics),
      admission_(options.admission, "router", metrics) {
  KJOIN_CHECK(!shards_.empty()) << "ShardRouter needs at least one shard";
  KJOIN_CHECK(pool_ != nullptr) << "ShardRouter needs a ThreadPool";
  KJOIN_CHECK(options_.max_batch >= 1) << "max_batch must be >= 1";
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

ShardRouter::~ShardRouter() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  dispatcher_.join();
}

double ShardRouter::EffectiveDeadline(const QueryRequest& request) const {
  return request.deadline_seconds < 0.0 ? options_.default_deadline_seconds
                                        : request.deadline_seconds;
}

QueryResponse ShardRouter::Shed(AdmissionController::Outcome outcome,
                                double deadline_seconds) {
  QueryResponse response;
  response.status = admission_.ShedStatus(outcome, deadline_seconds);
  return response;
}

int64_t ShardRouter::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return static_cast<int64_t>(queue_.size());
}

void ShardRouter::Gather(const ShardReply* const* replies, int32_t top_k,
                         QueryResponse* response) {
  const int ns = num_shards();
  size_t total = 0;
  for (int s = 0; s < ns; ++s) total += replies[s]->hits.size();
  response->hits.clear();
  response->hits.reserve(total);
  int best_rank = 0;
  for (int s = 0; s < ns; ++s) {
    const ShardReply& reply = *replies[s];
    for (const ShardHit& hit : reply.hits) {
      response->hits.push_back({hit.global_index, hit.similarity});
    }
    const int rank = StatusRank(reply.status);
    if (rank > best_rank) {
      best_rank = rank;
      response->status = reply.status;
    }
    response->epoch_version = std::max(response->epoch_version, reply.epoch_version);
    AddStats(&response->stats, reply.stats);
    if (metrics_ != nullptr) {
      metrics_->counter(ShardMetricName("router", s, "probes"))->Increment();
      metrics_->counter(ShardMetricName("router", s, "hits"))
          ->Increment(static_cast<int64_t>(reply.hits.size()));
      metrics_->counter(ShardMetricName("router", s, "bound_tightenings"))
          ->Increment(reply.stats.bound_tightenings);
      metrics_->counter(ShardMetricName("router", s, "bound_pruned_lists"))
          ->Increment(reply.stats.bound_pruned_lists);
      metrics_->counter(ShardMetricName("router", s, "bound_pruned_entries"))
          ->Increment(reply.stats.bound_pruned_entries);
      metrics_->counter(ShardMetricName("router", s, "bound_pruned_blocks"))
          ->Increment(reply.stats.bound_pruned_blocks);
    }
  }
  if (best_rank == 0) response->status = OkStatus();
  // Disjoint id sets under a strict total order: the merged order is
  // unique, hence identical to the single-index order.
  std::sort(response->hits.begin(), response->hits.end(), HitBefore);
  if (top_k > 0 && response->hits.size() > static_cast<size_t>(top_k)) {
    response->hits.resize(static_cast<size_t>(top_k));
  }
}

void ShardRouter::RecordResponseMetrics(const QueryResponse& response) {
  if (metrics_ == nullptr) return;
  metrics_->counter("router.queries")->Increment();
  metrics_->counter("router.hits")->Increment(static_cast<int64_t>(response.hits.size()));
  metrics_->histogram("router.latency_seconds")->Observe(response.seconds);
  if (IsDeadlineExceeded(response.status)) {
    metrics_->counter("router.deadline_exceeded")->Increment();
  } else if (IsCancelled(response.status)) {
    metrics_->counter("router.cancelled")->Increment();
  } else if (!response.status.ok()) {
    metrics_->counter("router.errors")->Increment();
  }
}

QueryResponse ShardRouter::Search(const QueryRequest& request) {
  const double deadline = EffectiveDeadline(request);
  const AdmissionController::Outcome outcome = admission_.TryAdmit(deadline);
  if (outcome != AdmissionController::Outcome::kAdmitted) return Shed(outcome, deadline);
  // Synchronous callers never queue; their zero wait pulls the EWMA back
  // down as load drains.
  admission_.RecordQueueDelay(0.0);
  WallTimer timer;
  QueryResponse response;
  const double floor =
      request.min_similarity < 0.0 ? shards_[0]->tau() : request.min_similarity;
  SearchBound bound(floor);
  ShardQuery shard_query;
  shard_query.query = &request.query;
  shard_query.top_k = request.top_k;
  shard_query.min_similarity = floor;
  shard_query.cancel_token = request.cancel_token;
  shard_query.bound = request.top_k > 0 ? &bound : nullptr;
  const int ns = num_shards();
  std::vector<ShardReply> replies(static_cast<size_t>(ns));
  std::optional<TopKTracker> tracker;
  if (request.top_k > 0) tracker.emplace(request.top_k);
  for (int s = 0; s < ns; ++s) {
    if (deadline > 0.0) {
      const double remaining = deadline - timer.ElapsedSeconds();
      if (remaining <= 0.0) {
        replies[static_cast<size_t>(s)].status = DeadlineExceededError(
            "deadline exhausted before shard " + std::to_string(s) + " was probed");
        continue;
      }
      shard_query.deadline_seconds = remaining;
    }
    shards_[static_cast<size_t>(s)]->ProbeBatch(&shard_query,
                                                &replies[static_cast<size_t>(s)], 1);
    // The cascade step: this shard's hits tighten the bound for every
    // shard still to be probed.
    if (tracker) tracker->Offer(replies[static_cast<size_t>(s)].hits, &bound);
  }
  std::vector<const ShardReply*> per_shard(static_cast<size_t>(ns));
  for (int s = 0; s < ns; ++s) per_shard[static_cast<size_t>(s)] = &replies[static_cast<size_t>(s)];
  Gather(per_shard.data(), request.top_k, &response);
  if (tracker) response.stats.bound_tightenings += tracker->tightenings;
  response.seconds = timer.ElapsedSeconds();
  admission_.NoteOutcome(IsDeadlineExceeded(response.status));
  RecordResponseMetrics(response);
  admission_.Release();
  return response;
}

void ShardRouter::Submit(QueryRequest request, std::function<void(QueryResponse)> done) {
  const double deadline = EffectiveDeadline(request);
  const AdmissionController::Outcome outcome = admission_.TryAdmit(deadline);
  if (outcome != AdmissionController::Outcome::kAdmitted) {
    done(Shed(outcome, deadline));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(Pending{std::move(request), std::move(done),
                             std::chrono::steady_clock::now()});
    if (metrics_ != nullptr) {
      metrics_->gauge("router.queue_depth")->Set(static_cast<int64_t>(queue_.size()));
    }
  }
  queue_cv_.notify_one();
}

std::vector<QueryResponse> ShardRouter::SearchBatch(
    const std::vector<QueryRequest>& requests) {
  std::vector<QueryResponse> responses(requests.size());
  std::mutex mu;
  std::condition_variable all_done;
  size_t finished = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    Submit(requests[i], [&, i](QueryResponse response) {
      // Notify while holding the lock: the waiter owns these stack
      // locals and may destroy them the moment the predicate holds, so
      // the signal must complete before the mutex is released.
      std::lock_guard<std::mutex> lock(mu);
      responses[i] = std::move(response);
      ++finished;
      all_done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  all_done.wait(lock, [&] { return finished == requests.size(); });
  return responses;
}

void ShardRouter::ExecuteBatch(const std::vector<const QueryRequest*>& requests,
                               const std::vector<double>& remaining,
                               std::vector<QueryResponse*>& responses) {
  const int count = static_cast<int>(requests.size());
  WallTimer timer;
  std::vector<ShardQuery> queries(static_cast<size_t>(count));
  std::vector<std::unique_ptr<SearchBound>> bounds(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const QueryRequest& request = *requests[static_cast<size_t>(i)];
    ShardQuery& q = queries[static_cast<size_t>(i)];
    q.query = &request.query;
    q.top_k = request.top_k;
    q.min_similarity =
        request.min_similarity < 0.0 ? shards_[0]->tau() : request.min_similarity;
    q.deadline_seconds = remaining[static_cast<size_t>(i)];
    q.cancel_token = request.cancel_token;
    if (request.top_k > 0) {
      bounds[static_cast<size_t>(i)] = std::make_unique<SearchBound>(q.min_similarity);
      q.bound = bounds[static_cast<size_t>(i)].get();
    }
  }
  const int ns = num_shards();
  std::vector<std::vector<ShardReply>> replies(
      static_cast<size_t>(ns), std::vector<ShardReply>(static_cast<size_t>(count)));
  std::vector<std::unique_ptr<TopKTracker>> trackers(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    if (queries[static_cast<size_t>(i)].bound != nullptr) {
      trackers[static_cast<size_t>(i)] =
          std::make_unique<TopKTracker>(queries[static_cast<size_t>(i)].top_k);
    }
  }
  // The dispatcher is a dedicated thread (never a pool worker), so it may
  // fan out with ParallelFor; on a single-lane pool this runs the shards
  // sequentially right here — the progressive-bound cascade.
  pool_->ParallelFor(ns, ns, [&](int /*shard*/, int64_t begin, int64_t end) {
    for (int64_t s = begin; s < end; ++s) {
      shards_[static_cast<size_t>(s)]->ProbeBatch(
          queries.data(), replies[static_cast<size_t>(s)].data(), count);
      // Each finished shard tightens every query's shared bound for the
      // shards that are still probing (or not yet started).
      for (int i = 0; i < count; ++i) {
        if (trackers[static_cast<size_t>(i)] != nullptr) {
          trackers[static_cast<size_t>(i)]->Offer(
              replies[static_cast<size_t>(s)][static_cast<size_t>(i)].hits,
              queries[static_cast<size_t>(i)].bound);
        }
      }
    }
  });
  std::vector<const ShardReply*> per_shard(static_cast<size_t>(ns));
  for (int i = 0; i < count; ++i) {
    for (int s = 0; s < ns; ++s) {
      per_shard[static_cast<size_t>(s)] = &replies[static_cast<size_t>(s)][static_cast<size_t>(i)];
    }
    QueryResponse* response = responses[static_cast<size_t>(i)];
    Gather(per_shard.data(), requests[static_cast<size_t>(i)]->top_k, response);
    if (trackers[static_cast<size_t>(i)] != nullptr) {
      response->stats.bound_tightenings += trackers[static_cast<size_t>(i)]->tightenings;
    }
    response->seconds = timer.ElapsedSeconds();
    admission_.NoteOutcome(IsDeadlineExceeded(response->status));
    RecordResponseMetrics(*response);
  }
}

void ShardRouter::DispatcherLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown and fully drained
      if (options_.batch_window_seconds > 0.0 && !shutdown_ &&
          static_cast<int>(queue_.size()) < options_.max_batch) {
        // Bounded coalescing wait; everything already queued is taken
        // regardless.
        queue_cv_.wait_for(
            lock, std::chrono::duration<double>(options_.batch_window_seconds), [&] {
              return shutdown_ || static_cast<int>(queue_.size()) >= options_.max_batch;
            });
      }
      const int take =
          std::min<int>(options_.max_batch, static_cast<int>(queue_.size()));
      batch.reserve(static_cast<size_t>(take));
      for (int i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      if (metrics_ != nullptr) {
        metrics_->gauge("router.queue_depth")->Set(static_cast<int64_t>(queue_.size()));
      }
    }
    if (metrics_ != nullptr) {
      metrics_->counter("router.batches")->Increment();
      metrics_->histogram("router.batch_size")
          ->Observe(static_cast<double>(batch.size()));
    }
    const auto now = std::chrono::steady_clock::now();
    std::vector<QueryResponse> responses(batch.size());
    std::vector<const QueryRequest*> live_requests;
    std::vector<double> live_remaining;
    std::vector<QueryResponse*> live_responses;
    for (size_t i = 0; i < batch.size(); ++i) {
      const double queue_delay =
          std::chrono::duration<double>(now - batch[i].admitted_at).count();
      admission_.RecordQueueDelay(queue_delay);
      const double deadline = EffectiveDeadline(batch[i].request);
      if (deadline > 0.0 && deadline - queue_delay <= 0.0) {
        // The budget went to queue + window wait; answer without burning
        // a scatter. The wait is already in the EWMA, so the next such
        // request is shed before it queues.
        responses[i].status = DeadlineExceededError(
            "deadline expired while the query was queued for dispatch");
        admission_.NoteOutcome(true);
        RecordResponseMetrics(responses[i]);
        continue;
      }
      live_requests.push_back(&batch[i].request);
      live_remaining.push_back(deadline > 0.0 ? deadline - queue_delay : 0.0);
      live_responses.push_back(&responses[i]);
    }
    if (!live_requests.empty()) {
      ExecuteBatch(live_requests, live_remaining, live_responses);
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      // Release first: a caller the callback wakes (SearchBatch) must
      // already see this query out of in_flight().
      admission_.Release();
      try {
        batch[i].done(std::move(responses[i]));
      } catch (...) {
        KJOIN_LOG(ERROR) << "Submit() completion callback threw; see the "
                            "callback contract in shard_router.h";
        if (metrics_ != nullptr) {
          metrics_->counter("router.callback_exceptions")->Increment();
        }
      }
    }
  }
}

}  // namespace kjoin::serve
