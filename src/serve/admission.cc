#include "serve/admission.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "serve/status_detail.h"

namespace kjoin::serve {
namespace {

// Retry hint for shed responses. A slot frees as soon as one executing
// query finishes, so the hint is the shortest wait that is not "now".
constexpr int64_t kShedRetryAfterMs = 1;

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options, std::string metric_prefix,
                                         MetricsRegistry* metrics)
    : options_(options), prefix_(std::move(metric_prefix)), metrics_(metrics) {
  KJOIN_CHECK(options_.min_in_flight >= 1) << "min_in_flight must be >= 1";
  KJOIN_CHECK(options_.aimd_window >= 1) << "aimd_window must be >= 1";
  options_.min_in_flight =
      std::min(options_.min_in_flight, std::max(1, options_.max_in_flight));
  effective_cap_.store(options_.max_in_flight, std::memory_order_relaxed);
  if (metrics_ != nullptr && options_.max_in_flight > 0) {
    metrics_->gauge(prefix_ + ".effective_cap")->Set(options_.max_in_flight);
  }
}

bool AdmissionController::TryAdmit() {
  if (options_.max_in_flight <= 0) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  const int64_t cap = options_.adaptive ? effective_cap_.load(std::memory_order_relaxed)
                                        : options_.max_in_flight;
  const int64_t now = in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (now > cap) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void AdmissionController::Release() { in_flight_.fetch_sub(1, std::memory_order_relaxed); }

void AdmissionController::NoteOutcome(bool deadline_missed) {
  if (!options_.adaptive || options_.max_in_flight <= 0) return;
  if (deadline_missed) window_misses_.fetch_add(1, std::memory_order_relaxed);
  const int64_t done = window_queries_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (done % options_.aimd_window != 0) return;
  // End of a window: AIMD. Multiplicative decrease when the window
  // missed too often, +1 additive recovery on a clean window. Counter
  // races can at worst attribute a miss to the neighboring window.
  const int64_t misses = window_misses_.exchange(0, std::memory_order_relaxed);
  const double miss_fraction =
      static_cast<double>(misses) / static_cast<double>(options_.aimd_window);
  const int64_t cap = effective_cap_.load(std::memory_order_relaxed);
  int64_t next = cap;
  if (miss_fraction >= options_.aimd_miss_threshold) {
    next = std::max<int64_t>(options_.min_in_flight, cap / 2);
  } else if (cap < options_.max_in_flight) {
    next = cap + 1;
  }
  if (next != cap) {
    effective_cap_.store(next, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->gauge(prefix_ + ".effective_cap")->Set(next);
  }
}

Status AdmissionController::ShedStatus() {
  if (metrics_ != nullptr) {
    metrics_->counter(prefix_ + ".shed_total")->Increment();
    metrics_->counter(prefix_ + ".shed_cap")->Increment();
  }
  // The hint field uses the one shared formatter (serve/status_detail.h)
  // so every consumer — in-process or the network front end — parses one
  // grammar.
  char message[256];
  std::snprintf(message, sizeof(message),
                "query shed (cap): in_flight=%lld effective_cap=%lld max_in_flight=%d %s",
                static_cast<long long>(in_flight()), static_cast<long long>(effective_cap()),
                options_.max_in_flight, RetryAfterField(kShedRetryAfterMs).c_str());
  return ResourceExhaustedError(message);
}

}  // namespace kjoin::serve
