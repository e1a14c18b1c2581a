#include "serve/shard_router.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
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

void LocalShard::Probe(const ShardQuery& query, ShardReply* reply) {
  // Epoch first, mapping second: the mapping is updated before a batch is
  // handed to the shard, so reading in this order guarantees the mapping
  // covers every index the epoch can emit.
  const std::shared_ptr<const IndexEpoch> epoch = manager_->Acquire();
  const std::shared_ptr<const std::vector<int32_t>> to_global =
      sharded_ != nullptr ? sharded_->GlobalIndexes(shard_) : nullptr;
  reply->epoch_version = epoch->version;
  JoinControl control;
  control.deadline_seconds = query.deadline_seconds;
  control.cancel_token = query.cancel_token;
  // A query built against an older dictionary than this epoch's table
  // may carry token_id = -1 for a token the epoch now indexes.
  Object resolved;
  const Object& object =
      ResolveUnknownTokens(*query.query, epoch->tokens, &resolved) ? resolved : *query.query;
  std::vector<SearchHit> hits;
  reply->status = epoch->index->SearchTopK(object, query.top_k, query.min_similarity, control,
                                           &hits, &reply->stats, query.bound);
  reply->hits.clear();
  reply->hits.reserve(hits.size());
  for (const SearchHit& hit : hits) {
    const int32_t global = to_global != nullptr
                               ? (*to_global)[static_cast<size_t>(hit.object_index)]
                               : hit.object_index;
    reply->hits.push_back({global, hit.similarity});
  }
}

ShardRouter::ShardRouter(std::vector<ShardBackend*> shards, ThreadPool* pool,
                         ShardRouterOptions options, MetricsRegistry* metrics)
    : shards_(std::move(shards)), pool_(pool), options_(options) {
  KJOIN_CHECK(!shards_.empty()) << "ShardRouter needs at least one shard";
  KJOIN_CHECK(pool_ != nullptr) << "ShardRouter needs a ThreadPool";
  if (metrics == nullptr) return;
  queries_ = metrics->counter("router.queries");
  hits_ = metrics->counter("router.hits");
  deadline_exceeded_ = metrics->counter("router.deadline_exceeded");
  cancelled_ = metrics->counter("router.cancelled");
  errors_ = metrics->counter("router.errors");
  latency_ = metrics->histogram("router.latency_seconds");
  shard_counters_.reserve(shards_.size());
  for (int s = 0; s < num_shards(); ++s) {
    auto counter = [&](std::string_view name) {
      return metrics->counter(ShardMetricName("router", s, name));
    };
    shard_counters_.push_back({counter("probes"), counter("hits"), counter("bound_tightenings"),
                               counter("bound_pruned_lists"), counter("bound_pruned_entries")});
  }
}

void ShardRouter::Gather(const std::vector<ShardReply>& replies, int32_t top_k,
                         QueryResponse* response) {
  size_t total = 0;
  for (const ShardReply& reply : replies) total += reply.hits.size();
  response->hits.clear();
  response->hits.reserve(total);
  int best_rank = 0;
  for (int s = 0; s < num_shards(); ++s) {
    const ShardReply& reply = replies[static_cast<size_t>(s)];
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
    if (!shard_counters_.empty()) {
      const ShardCounters& counters = shard_counters_[static_cast<size_t>(s)];
      counters.probes->Increment();
      counters.hits->Increment(static_cast<int64_t>(reply.hits.size()));
      counters.bound_tightenings->Increment(reply.stats.bound_tightenings);
      counters.bound_pruned_lists->Increment(reply.stats.bound_pruned_lists);
      counters.bound_pruned_entries->Increment(reply.stats.bound_pruned_entries);
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
  if (queries_ == nullptr) return;
  queries_->Increment();
  hits_->Increment(static_cast<int64_t>(response.hits.size()));
  latency_->Observe(response.seconds);
  if (IsDeadlineExceeded(response.status)) {
    deadline_exceeded_->Increment();
  } else if (IsCancelled(response.status)) {
    cancelled_->Increment();
  } else if (!response.status.ok()) {
    errors_->Increment();
  }
}

QueryResponse ShardRouter::Search(const QueryRequest& request) {
  const double budget_seconds = request.deadline_seconds < 0.0
                                    ? options_.default_deadline_seconds
                                    : request.deadline_seconds;
  WallTimer timer;
  const double floor =
      request.min_similarity < 0.0 ? shards_[0]->tau() : request.min_similarity;
  SearchBound bound(floor);
  std::optional<TopKTracker> tracker;
  if (request.top_k > 0) tracker.emplace(request.top_k);
  const int ns = num_shards();
  std::vector<ShardReply> replies(static_cast<size_t>(ns));
  // One shard per task; on a single-lane pool the shards run in order on
  // this thread — the progressive-bound cascade.
  pool_->ParallelFor(ns, ns, [&](int /*task*/, int64_t begin, int64_t end) {
    for (int64_t s = begin; s < end; ++s) {
      ShardReply& reply = replies[static_cast<size_t>(s)];
      ShardQuery query;
      query.query = &request.query;
      query.top_k = request.top_k;
      query.min_similarity = floor;
      query.cancel_token = request.cancel_token;
      query.bound = tracker ? &bound : nullptr;
      if (budget_seconds > 0.0) {
        query.deadline_seconds = budget_seconds - timer.ElapsedSeconds();
        if (query.deadline_seconds <= 0.0) {
          reply.status = DeadlineExceededError(
              "deadline exhausted before shard " + std::to_string(s) + " was probed");
          continue;
        }
      }
      shards_[static_cast<size_t>(s)]->Probe(query, &reply);
      // This shard's hits tighten the bound for every shard still
      // probing or not yet started.
      if (tracker) tracker->Offer(reply.hits, &bound);
    }
  });
  QueryResponse response;
  Gather(replies, request.top_k, &response);
  if (tracker) response.stats.bound_tightenings += tracker->tightenings;
  response.seconds = timer.ElapsedSeconds();
  RecordResponseMetrics(response);
  return response;
}

}  // namespace kjoin::serve
