#ifndef KJOIN_SERVE_ADMISSION_H_
#define KJOIN_SERVE_ADMISSION_H_

// Adaptive admission control for the serving front end (ShardRouter,
// over one shard or many).
//
// The controller bounds the number of queries executing at once: past
// the cap TryAdmit sheds instead of letting load pile up. When adaptive,
// the recent deadline-miss fraction feeds an AIMD controller that walks
// an effective in-flight cap between min_in_flight and max_in_flight —
// halved when a window of queries misses too often, +1 per clean window.
//
// Metrics are published under "<prefix>.": <prefix>.shed_total,
// <prefix>.shed_cap and <prefix>.effective_cap (gauge). Shed statuses
// carry the load picture and a machine-readable retry_after_ms= hint
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
  // max_in_flight cap.
  bool adaptive = true;
  // AIMD floor: the effective cap never drops below this, so a miss
  // storm cannot shed the front end to zero.
  int min_in_flight = 4;
  // Queries per AIMD adjustment window.
  int aimd_window = 32;
  // Window deadline-miss fraction at or above which the cap is halved.
  double aimd_miss_threshold = 0.5;
};

class AdmissionController {
 public:
  // `metrics` may be null. `metric_prefix` names this controller's
  // metrics ("router", ...).
  AdmissionController(AdmissionOptions options, std::string metric_prefix,
                      MetricsRegistry* metrics);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Reserves one slot; false (shed) when the effective cap is full. On
  // true the caller owns the slot and must Release() it exactly once.
  bool TryAdmit();
  void Release();

  // Feeds the AIMD controller one finished query's outcome.
  void NoteOutcome(bool deadline_missed);

  // Builds the kResourceExhausted status for a shed query and counts it
  // in the metrics.
  Status ShedStatus();

  int64_t in_flight() const { return in_flight_.load(std::memory_order_relaxed); }
  // The AIMD controller's current cap (== max_in_flight when adaptive is
  // off or the controller has not yet backed off).
  int64_t effective_cap() const { return effective_cap_.load(std::memory_order_relaxed); }
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
  std::atomic<int64_t> window_queries_{0};
  std::atomic<int64_t> window_misses_{0};
};

}  // namespace kjoin::serve

#endif  // KJOIN_SERVE_ADMISSION_H_
