#include "serve/search_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"

namespace kjoin::serve {
namespace {

AdmissionOptions ToAdmissionOptions(const SearchServiceOptions& options) {
  AdmissionOptions admission;
  admission.max_in_flight = options.max_in_flight;
  admission.adaptive = options.adaptive;
  admission.min_in_flight = options.min_in_flight;
  admission.queue_delay_ewma_alpha = options.queue_delay_ewma_alpha;
  admission.aimd_window = options.aimd_window;
  admission.aimd_miss_threshold = options.aimd_miss_threshold;
  return admission;
}

}  // namespace

SearchService::SearchService(IndexManager* manager, ThreadPool* pool,
                             SearchServiceOptions options, MetricsRegistry* metrics)
    : manager_(manager),
      pool_(pool),
      options_(options),
      metrics_(metrics),
      admission_(ToAdmissionOptions(options), "service", metrics) {
  KJOIN_CHECK(manager_ != nullptr) << "SearchService needs an IndexManager";
  KJOIN_CHECK(pool_ != nullptr) << "SearchService needs a ThreadPool";
}

SearchService::~SearchService() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [&] { return async_outstanding_ == 0; });
}

double SearchService::EffectiveDeadline(const QueryRequest& request) const {
  return request.deadline_seconds < 0.0 ? options_.default_deadline_seconds
                                        : request.deadline_seconds;
}

QueryResponse SearchService::Shed(AdmissionController::Outcome outcome,
                                  double deadline_seconds) {
  QueryResponse response;
  response.status = admission_.ShedStatus(outcome, deadline_seconds);
  return response;
}

QueryResponse SearchService::Execute(const QueryRequest& request,
                                     double queue_delay_seconds) {
  admission_.RecordQueueDelay(queue_delay_seconds);
  WallTimer timer;
  QueryResponse response;
  const std::shared_ptr<const IndexEpoch> epoch = manager_->Acquire();
  response.epoch_version = epoch->version;
  const KJoinIndex& index = *epoch->index;
  // See LocalShard::ProbeBatch: re-resolve a stale dictionary's unknowns.
  Object resolved;
  const Object& query = ResolveUnknownTokens(request.query, epoch->tokens, &resolved)
                            ? resolved
                            : request.query;

  JoinControl control;
  control.deadline_seconds = EffectiveDeadline(request);
  control.cancel_token = request.cancel_token;

  if (request.top_k > 0) {
    // < 0 is the "unset" sentinel; an explicit 0.0 must reach the index
    // (which rejects floors below tau) instead of silently becoming tau.
    const double min_similarity =
        request.min_similarity < 0.0 ? index.options().tau : request.min_similarity;
    response.status = index.SearchTopK(query, request.top_k, min_similarity, control,
                                       &response.hits, &response.stats);
  } else {
    response.status = index.Search(query, control, &response.hits, &response.stats);
  }
  response.seconds = timer.ElapsedSeconds();
  admission_.NoteOutcome(IsDeadlineExceeded(response.status));

  if (metrics_ != nullptr) {
    metrics_->counter("service.queries")->Increment();
    metrics_->counter("service.hits")->Increment(static_cast<int64_t>(response.hits.size()));
    metrics_->histogram("service.latency_seconds")->Observe(response.seconds);
    if (IsDeadlineExceeded(response.status)) {
      metrics_->counter("service.deadline_exceeded")->Increment();
    } else if (IsCancelled(response.status)) {
      metrics_->counter("service.cancelled")->Increment();
    } else if (!response.status.ok()) {
      metrics_->counter("service.errors")->Increment();
    }
  }
  return response;
}

void SearchService::Submit(QueryRequest request, std::function<void(QueryResponse)> done) {
  const double deadline = EffectiveDeadline(request);
  const AdmissionController::Outcome outcome = admission_.TryAdmit(deadline);
  if (outcome != AdmissionController::Outcome::kAdmitted) {
    done(Shed(outcome, deadline));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++async_outstanding_;
  }
  const auto admitted_at = std::chrono::steady_clock::now();
  auto task = [this, admitted_at, request = std::move(request),
               done = std::move(done)]() mutable {
    // Scope-guard the bookkeeping so it runs on every exit path — in
    // particular when `done` throws. Without it, a throwing callback
    // would skip the decrement and ~SearchService would wait forever.
    struct Finisher {
      SearchService* service;
      ~Finisher() {
        service->admission_.Release();
        std::lock_guard<std::mutex> lock(service->mu_);
        if (--service->async_outstanding_ == 0) service->drained_.notify_all();
      }
    } finisher{this};
    const double queue_delay =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - admitted_at)
            .count();
    QueryResponse response = Execute(request, queue_delay);
    try {
      done(std::move(response));
    } catch (...) {
      KJOIN_LOG(ERROR) << "Submit() completion callback threw; see the "
                          "callback contract in search_service.h";
      if (metrics_ != nullptr) metrics_->counter("service.callback_exceptions")->Increment();
    }
  };
  if (pool_->num_threads() > 1) {
    pool_->Schedule(std::move(task));
  } else {
    // A pool of 1 spawns no workers, so a scheduled task would sit in a
    // queue nothing drains and the destructor would wait forever. Run
    // inline instead, mirroring IndexManager::InsertBatch.
    task();
  }
}

QueryResponse SearchService::Search(const QueryRequest& request) {
  const double deadline = EffectiveDeadline(request);
  const AdmissionController::Outcome outcome = admission_.TryAdmit(deadline);
  if (outcome != AdmissionController::Outcome::kAdmitted) return Shed(outcome, deadline);
  // Synchronous callers never queue; their zero wait pulls the EWMA back
  // down as load drains.
  QueryResponse response = Execute(request, 0.0);
  admission_.Release();
  return response;
}

std::vector<QueryResponse> SearchService::SearchBatch(
    const std::vector<QueryRequest>& requests) {
  std::vector<QueryResponse> responses(requests.size());
  pool_->ParallelFor(static_cast<int64_t>(requests.size()),
                     static_cast<int>(requests.size()),
                     [&](int /*shard*/, int64_t begin, int64_t end) {
                       for (int64_t i = begin; i < end; ++i) {
                         const double deadline = EffectiveDeadline(requests[i]);
                         const AdmissionController::Outcome outcome =
                             admission_.TryAdmit(deadline);
                         if (outcome != AdmissionController::Outcome::kAdmitted) {
                           responses[i] = Shed(outcome, deadline);
                           continue;
                         }
                         responses[i] = Execute(requests[i], 0.0);
                         admission_.Release();
                       }
                     });
  return responses;
}

}  // namespace kjoin::serve
