#ifndef KJOIN_SERVE_ADMISSION_H_
#define KJOIN_SERVE_ADMISSION_H_

// Adaptive admission control for the serving front end (ShardRouter,
// over one shard or many).
//
// The controller bounds the number of queries admitted (queued +
// executing) at once and, when adaptive, sheds *early* on two load
// signals instead of burning pool time on queries that will miss their
// deadlines anyway:
//
//  - a queue-delay EWMA (admit -> execute latency: the wait in the
//    router's Submit queue until its one dispatcher pops the query, and
//    0 for a sync Search): a request whose
//    effective deadline is already below the estimated wait is shed up
//    front as deadline-infeasible, before it queues;
//  - the recent deadline-miss fraction, fed to an AIMD controller that
//    walks an effective in-flight cap between min_in_flight and
//    max_in_flight — halved when a window of queries misses too often,
//    +1 per clean window.
//
// Metrics are published under "<prefix>.": <prefix>.shed_total,
// <prefix>.shed_cap, <prefix>.shed_deadline_infeasible,
// <prefix>.effective_cap (gauge),
// <prefix>.queue_delay_seconds (histogram). Shed statuses carry the load
// picture and a machine-readable retry_after_ms= hint
// (docs/robustness.md, "Failure modes and degraded operation").

#include <atomic>
#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "common/status.h"

namespace kjoin::serve {

struct AdmissionOptions {
  // Queries admitted at once; above the cap TryAdmit sheds. <= 0 means
  // unbounded (and disables the adaptive controller — there is no cap to
  // adapt).
  int max_in_flight = 64;
  // Adaptive admission (see the header comment). Off = the fixed
  // max_in_flight cap and no early deadline-infeasible shedding.
  bool adaptive = true;
  // AIMD floor: the effective cap never drops below this, so a miss
  // storm cannot shed the front end to zero.
  int min_in_flight = 4;
  // Weight of the newest queue-delay sample in the EWMA (0..1].
  double queue_delay_ewma_alpha = 0.2;
  // Queries per AIMD adjustment window.
  int aimd_window = 32;
  // Window deadline-miss fraction at or above which the cap is halved.
  double aimd_miss_threshold = 0.5;
};

class AdmissionController {
 public:
  enum class Outcome { kAdmitted, kShedCap, kShedDeadlineInfeasible };

  // `metrics` may be null. `metric_prefix` names this controller's
  // metrics ("router", ...).
  AdmissionController(AdmissionOptions options, std::string metric_prefix,
                      MetricsRegistry* metrics);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Reserves one slot. kShedDeadlineInfeasible when the queue-delay
  // estimate already exceeds `deadline_seconds` (> 0; adaptive only);
  // kShedCap when the effective cap is full. On kAdmitted the caller
  // owns the slot and must Release() it exactly once.
  Outcome TryAdmit(double deadline_seconds);
  void Release();

  // Folds one admit -> execute wait into the EWMA (and the
  // <prefix>.queue_delay_seconds histogram).
  void RecordQueueDelay(double seconds);

  // Feeds the AIMD controller one finished query's outcome.
  void NoteOutcome(bool deadline_missed);

  // Builds the kResourceExhausted status for a shed outcome and counts
  // it in the metrics. `outcome` must be one of the shed outcomes.
  Status ShedStatus(Outcome outcome, double deadline_seconds);

  int64_t in_flight() const { return in_flight_.load(std::memory_order_relaxed); }
  // The AIMD controller's current cap (== max_in_flight when adaptive is
  // off or the controller has not yet backed off).
  int64_t effective_cap() const { return effective_cap_.load(std::memory_order_relaxed); }
  // Estimated admit -> execute wait, the deadline-infeasible signal.
  double queue_delay_ewma_seconds() const {
    return static_cast<double>(queue_delay_ewma_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  // Test hook: plants the queue-delay estimate so deadline-infeasible
  // shedding is exercisable without real queue pressure.
  void SetQueueDelayEwmaForTest(double seconds) {
    queue_delay_ewma_ns_.store(static_cast<int64_t>(seconds * 1e9),
                               std::memory_order_relaxed);
  }
  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  std::string prefix_;
  MetricsRegistry* metrics_;
  std::atomic<int64_t> in_flight_{0};

  // Adaptive admission state. All updates are relaxed: the controller is
  // a heuristic and the occasional lost update only delays an adjustment
  // by one sample, never corrupts anything.
  std::atomic<int64_t> effective_cap_{0};  // set from options in ctor
  std::atomic<int64_t> queue_delay_ewma_ns_{0};
  std::atomic<int64_t> window_queries_{0};
  std::atomic<int64_t> window_misses_{0};
};

}  // namespace kjoin::serve

#endif  // KJOIN_SERVE_ADMISSION_H_
