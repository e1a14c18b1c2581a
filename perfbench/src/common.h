#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the benchmark driver: run options, the printed report,
// percentiles, the span tracer, the workload inputs, and the host
// fingerprint with its anchor kernels.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/verifier.h"
#include "data/dataset.h"
#include "hierarchy/hierarchy.h"

namespace perfbench {

// Element similarity threshold δ of every workload; entity mappings are
// kept down to min_phi = δ, since a lower-φ mapping can never produce a
// δ-similar element pair on its own.
inline constexpr double kDelta = 0.8;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test scale: every workload shrunk so a run takes a few seconds.
  bool tiny = false;
  // Self-test: corrupt the benchmark's copy of one answer before the
  // oracle sees it; the run must then report correct = false.
  bool perturb = false;
  // Scratch directory for the generated files, WALs and the span dump.
  std::string workdir;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// Exits with a message on stderr; for failures that leave nothing to
// measure (the generated files cannot be written or read back, the
// server cannot start).
[[noreturn]] void Die(const std::string& message);

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample, via
// kjoin::PercentileOfSorted; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }
double Mean(const std::vector<double>& values);
// a / b, or 0 when b is 0.
double Ratio(double a, double b);
// Share of verified pairs decided without a Hungarian run: count and
// weighted-count prunes plus lower- and upper-bound resolutions.
double ResolvedWithoutHungarian(const kjoin::VerifyStats& stats);

// What one run prints: named readings, one per line, as they are taken,
// then the contract's JSON line ({"correct", "attempted", "failed",
// "metrics"}) last.
class Report {
 public:
  // A metric of the final JSON line (a name BENCHMARK.json lists); also
  // printed as a reading.
  void Metric(const std::string& name, double value, const std::string& unit);
  // A named reading on its own line: "name value unit".
  void Line(const std::string& name, double value, const std::string& unit) const;
  void Text(const std::string& name, const std::string& text) const;
  // An oracle disagreement: counts as a failed operation and makes the
  // run report correct = false.
  void Mismatch(const std::string& what);
  void AddAttempted(int64_t n) { attempted_ += n; }
  void AddFailed(int64_t n) { failed_ += n; }

  // What the span reducer needs besides the spans: the end-to-end span
  // whose median the measured stage spans should cover, and the traced
  // and untraced end-to-end readings whose difference is the tracing
  // overhead.
  struct TraceMeta {
    std::string e2e_span;
    double untraced_e2e_ms = 0.0;
    double traced_e2e_ms = 0.0;
    std::vector<std::string> stage_spans;
  };
  void SetTraceMeta(TraceMeta meta) { trace_meta_ = std::move(meta); }
  const TraceMeta& trace_meta() const { return trace_meta_; }

  // Prints op_fail_ratio and the final JSON line.
  void Finish() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t mismatches_ = 0;
  TraceMeta trace_meta_;
};

// Every per-layer metric of BENCHMARK.json, emitted together so each
// traced run prints all of them. A workload fills what lies on its path
// and leaves the rest 0. Only counts, bytes and shares can be 0: every
// time below is measured on every workload, and stage times that exist
// on some workloads only are given as shares of that workload's
// end-to-end latency (their absolute values are printed as readings).
struct LayerReadings {
  double data_parse_s = 0.0;
  double hierarchy_lca_build_s = 0.0;
  double text_build_s = 0.0;
  double text_build_us_p50 = 0.0;
  double text_token_table_copy_us = 0.0;
  double text_mappings_per_token = 0.0;
  double text_tokens_added = 0.0;
  double text_build_share = 0.0;
  double core_prepare_share = 0.0;
  double core_filter_share = 0.0;
  double core_verify_share = 0.0;
  double core_candidates = 0.0;
  double core_candidate_yield = 0.0;
  double core_prefix_sigs_per_object = 0.0;
  double core_sim_cache_hit_rate = 0.0;
  double core_pool_utilization = 0.0;
  double core_search_share = 0.0;
  double core_search_candidates_per_query = 0.0;
  double core_bound_pruned_entries_per_query = 0.0;
  double matching_hungarian_runs = 0.0;
  double matching_resolved_without_hungarian_frac = 0.0;
  double serve_router_search_share = 0.0;
  double serve_batch_size_mean = 0.0;
  double serve_shed = 0.0;
  double serve_contention_wait_share = 0.0;
  double serve_insert_batch_share = 0.0;
  double serve_wal_bytes = 0.0;
  double serve_wal_appends = 0.0;
  double serve_compactions = 0.0;
  double serve_delta_depth_mean = 0.0;
  double net_codec_share = 0.0;
  double net_overhead_share = 0.0;
  double net_bytes_per_query = 0.0;
  double net_backpressure_stalls = 0.0;
  double trace_coverage = 0.0;
  double trace_overhead_share = 0.0;
};
void EmitLayerReadings(const LayerReadings& readings, Report* report);

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own code around its calls into the library; nothing inside
// the library is instrumented. While disabled, NewId returns 0 and
// Record does nothing.
class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled();
  static int64_t NewId();
  // Records a finished span. `parent` 0 = a root; `request` groups the
  // spans of one request (0 = none). `name` must be a string literal.
  static void Record(int64_t id, const char* name, int64_t start_ns, int64_t end_ns,
                     int64_t parent, int64_t request);
  // Writes the spans as TSV rows "id parent request name start_ns
  // end_ns" and the reducer summary as JSON; false on an I/O error.
  static bool Write(const std::string& spans_path, const std::string& meta_path,
                    const Report::TraceMeta& meta);
};

// Times a scope and, while tracing is on, records it as a span whose
// parent is the innermost open ScopedSpan on this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double Elapsed() const { return SecondsBetween(start_ns_, NowNs()); }
  int64_t start_ns() const { return start_ns_; }
  int64_t id() const { return id_; }

 private:
  const char* name_;
  int64_t request_;
  int64_t id_ = 0;
  int64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

// Runs `fn` inside a span; returns its wall seconds.
template <typename Fn>
double TimeSpan(const char* name, Fn&& fn, int64_t request = 0) {
  ScopedSpan span(name, request);
  fn();
  return span.Elapsed();
}

// ---- inputs ----------------------------------------------------------------

// The knowledge hierarchy every workload uses: the paper's Table 2 shape
// under a fixed seed, so only the records vary with --seed.
kjoin::Hierarchy MakeHierarchy();
// `windows` sets of `num_records` POI-shaped records (the paper's Table 3)
// each, drawn by `seed` from one fixed pool; every set carries the pool's
// synonyms.
std::vector<kjoin::Dataset> MakeRecords(const kjoin::Hierarchy& hierarchy, int64_t num_records,
                                        int windows, uint64_t seed);
// The record generator's seed for a run's --seed.
inline uint64_t RecordSeed(uint64_t seed) { return 1000 + seed; }

// ---- host ------------------------------------------------------------------

// Fixed-work kernels timed at the start and end of every run: an LCA RMQ
// query loop over the workload hierarchy and a streaming read-modify-
// write pass over a 16 MiB buffer. Each reading is the best of three.
struct Anchors {
  double lca_ms = 0.0;
  double stream_ms = 0.0;
};
Anchors MeasureAnchors();
// Largest relative change of either kernel between two readings.
double AnchorDrift(const Anchors& start, const Anchors& end);
// A run whose anchors drift further than this, the benchmark's bound on
// its timings, is marked unsteady.
inline constexpr double kAnchorDriftBound = 0.25;

// CPU model (CPUID brand string), the active simd.h ISA level and the
// number of CPUs this process may run on.
void ReportHost(Report* report);
// Peak RSS since the last ResetPeakRss (or since the start), in MB.
double PeakRssMb();
// Starts a new peak-RSS interval, so a repeated window reports its own
// peak rather than the largest of all.
void ResetPeakRss();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
