#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// One benchmark workload. main.cc drives every workload through the same
// sequence: Setup (several times, timed), Warmup, Measure (the timed
// window), ReportEndToEnd, then Check (the brute-force oracle) — or, for a
// traced run, Setup once, RunTraced, Check.

#include <memory>

#include "common.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the inputs, writes the files and builds whatever the timed
  // operation starts from; returns the wall seconds. Each call replaces
  // the previous call's state.
  virtual double Setup() = 0;
  // Untimed work so lazy initialisation stays out of the window.
  virtual void Warmup() = 0;
  // One timed window of `seconds`; a repeated call replaces the readings.
  virtual void Measure(double seconds) = 0;
  // The end-to-end metrics of the last window, plus named readings.
  virtual void ReportEndToEnd(Report* report) = 0;
  // The traced run: spans plus every per-layer metric.
  virtual void RunTraced(Report* report) = 0;
  // Brute-force check of the answers the last window (or traced run)
  // produced. Runs outside every timed interval.
  virtual void Check(Report* report) = 0;
};

std::unique_ptr<Workload> MakeJoinWorkload(const Options& options, bool plus);
std::unique_ptr<Workload> MakeServeWorkload(const Options& options, bool mixed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
