#include "common.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/metrics.h"
#include "common/rng.h"
#include "core/simd.h"
#include "data/generator.h"
#include "hierarchy/hierarchy_generator.h"
#include "hierarchy/lca.h"

namespace perfbench {

void Die(const std::string& message) {
  std::fprintf(stderr, "kjbench: %s\n", message.c_str());
  std::exit(1);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return kjoin::PercentileOfSorted(values, q);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double ResolvedWithoutHungarian(const kjoin::VerifyStats& stats) {
  const int64_t resolved = stats.pruned_by_count + stats.pruned_by_weighted_count +
                           stats.accepted_by_lower_bound + stats.rejected_by_upper_bound;
  return Ratio(static_cast<double>(resolved), static_cast<double>(stats.pairs_verified));
}

namespace {

// Every digit a double needs to round-trip; JSON has no NaN or infinity.
std::string FormatValue(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
  Line(name, value, unit);
}

void Report::Line(const std::string& name, double value, const std::string& unit) const {
  std::printf("%s %s %s\n", name.c_str(), FormatValue(value).c_str(), unit.c_str());
  std::fflush(stdout);
}

void Report::Text(const std::string& name, const std::string& text) const {
  std::printf("%s %s\n", name.c_str(), text.c_str());
  std::fflush(stdout);
}

void Report::Mismatch(const std::string& what) {
  if (mismatches_ < 20) std::fprintf(stderr, "oracle mismatch: %s\n", what.c_str());
  ++mismatches_;
}

void Report::Finish() const {
  const int64_t failed = failed_ + mismatches_;
  const int64_t attempted = std::max<int64_t>(attempted_, 1);
  Line("op_fail_ratio", static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  std::string json = "{\"correct\": ";
  json += mismatches_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + FormatValue(metrics_[i].value) +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void EmitLayerReadings(const LayerReadings& r, Report* report) {
  report->Metric("data.parse_s", r.data_parse_s, "s");
  report->Metric("hierarchy.lca_build_s", r.hierarchy_lca_build_s, "s");
  report->Metric("text.build_s", r.text_build_s, "s");
  report->Metric("text.build_us_p50", r.text_build_us_p50, "us");
  report->Metric("text.token_table_copy_us", r.text_token_table_copy_us, "us");
  report->Metric("text.mappings_per_token", r.text_mappings_per_token, "count");
  report->Metric("text.tokens_added", r.text_tokens_added, "count");
  report->Metric("text.build_share", r.text_build_share, "ratio");
  report->Metric("core.prepare_share", r.core_prepare_share, "ratio");
  report->Metric("core.filter_share", r.core_filter_share, "ratio");
  report->Metric("core.verify_share", r.core_verify_share, "ratio");
  report->Metric("core.candidates", r.core_candidates, "count");
  report->Metric("core.candidate_yield", r.core_candidate_yield, "ratio");
  report->Metric("core.prefix_sigs_per_object", r.core_prefix_sigs_per_object, "count");
  report->Metric("core.sim_cache_hit_rate", r.core_sim_cache_hit_rate, "ratio");
  report->Metric("core.pool_utilization", r.core_pool_utilization, "ratio");
  report->Metric("core.search_share", r.core_search_share, "ratio");
  report->Metric("core.search_candidates_per_query", r.core_search_candidates_per_query, "count");
  report->Metric("core.bound_pruned_entries_per_query", r.core_bound_pruned_entries_per_query,
                 "count");
  report->Metric("matching.hungarian_runs", r.matching_hungarian_runs, "count");
  report->Metric("matching.resolved_without_hungarian_frac",
                 r.matching_resolved_without_hungarian_frac, "ratio");
  report->Metric("serve.router_search_share", r.serve_router_search_share, "ratio");
  report->Metric("serve.batch_size_mean", r.serve_batch_size_mean, "count");
  report->Metric("serve.shed", r.serve_shed, "count");
  report->Metric("serve.contention_wait_share", r.serve_contention_wait_share, "ratio");
  report->Metric("serve.insert_batch_share", r.serve_insert_batch_share, "ratio");
  report->Metric("serve.wal_bytes", r.serve_wal_bytes, "B");
  report->Metric("serve.wal_appends", r.serve_wal_appends, "count");
  report->Metric("serve.compactions", r.serve_compactions, "count");
  report->Metric("serve.delta_depth_mean", r.serve_delta_depth_mean, "count");
  report->Metric("net.codec_share", r.net_codec_share, "ratio");
  report->Metric("net.overhead_share", r.net_overhead_share, "ratio");
  report->Metric("net.bytes_per_query", r.net_bytes_per_query, "B");
  report->Metric("net.backpressure_stalls", r.net_backpressure_stalls, "count");
  report->Metric("trace.coverage", r.trace_coverage, "ratio");
  report->Metric("trace.overhead_share", r.trace_overhead_share, "ratio");
}

// ---- tracer ----------------------------------------------------------------

namespace {

struct SpanRow {
  int64_t id;
  int64_t parent;
  int64_t request;
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};

std::atomic<bool> g_tracing{false};
std::atomic<int64_t> g_next_span{1};
std::mutex g_spans_mu;
std::vector<SpanRow> g_spans;  // guarded by g_spans_mu
thread_local int64_t t_open_span = 0;

}  // namespace

void Tracer::SetEnabled(bool on) { g_tracing.store(on); }

bool Tracer::enabled() { return g_tracing.load(std::memory_order_relaxed); }

int64_t Tracer::NewId() { return enabled() ? g_next_span.fetch_add(1) : 0; }

void Tracer::Record(int64_t id, const char* name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, int64_t request) {
  if (id == 0 || !enabled()) return;
  std::lock_guard<std::mutex> lock(g_spans_mu);
  g_spans.push_back({id, parent, request, name, start_ns, end_ns});
}

bool Tracer::Write(const std::string& spans_path, const std::string& meta_path,
                   const Report::TraceMeta& meta) {
  std::ofstream spans(spans_path);
  spans << "# id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  {
    std::lock_guard<std::mutex> lock(g_spans_mu);
    for (const SpanRow& row : g_spans) {
      spans << row.id << '\t' << row.parent << '\t' << row.request << '\t' << row.name << '\t'
            << row.start_ns << '\t' << row.end_ns << '\n';
    }
  }
  std::ofstream out(meta_path);
  out << "{\"e2e_span\": \"" << meta.e2e_span
      << "\", \"untraced_e2e_ms\": " << FormatValue(meta.untraced_e2e_ms)
      << ", \"traced_e2e_ms\": " << FormatValue(meta.traced_e2e_ms) << ", \"stage_spans\": [";
  for (size_t i = 0; i < meta.stage_spans.size(); ++i) {
    out << (i > 0 ? ", " : "") << '"' << meta.stage_spans[i] << '"';
  }
  out << "]}\n";
  spans.flush();
  out.flush();
  return spans.good() && out.good();
}

ScopedSpan::ScopedSpan(const char* name, int64_t request)
    : name_(name), request_(request), start_ns_(NowNs()) {
  if (!Tracer::enabled()) return;
  id_ = Tracer::NewId();
  parent_ = t_open_span;
  t_open_span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  t_open_span = parent_;
  Tracer::Record(id_, name_, start_ns_, NowNs(), parent_, request_);
}

// ---- inputs ----------------------------------------------------------------

kjoin::Hierarchy MakeHierarchy() {
  kjoin::HierarchyGenParams params;  // the paper's Table 2 shape
  params.seed = 103;
  return kjoin::GenerateHierarchy(params);
}

std::vector<kjoin::Dataset> MakeRecords(const kjoin::Hierarchy& hierarchy, int64_t num_records,
                                        int windows, uint64_t seed) {
  // The generator's seed also draws the synonym aliases and the free-text
  // vocabulary, which set the cost of matching every token; so the pool is
  // generated under one fixed seed, and `seed` picks which records a set
  // gets: whole duplicate clusters (a record and its duplicates, which the
  // generator emits next to each other) drawn at random, so a set's cost
  // does not hang on one stretch of the pool.
  constexpr int64_t kPoolFactor = 8;
  constexpr uint64_t kPoolSeed = 1001;
  const kjoin::Dataset pool =
      kjoin::DatasetGenerator(hierarchy, kjoin::PoiParams(kPoolFactor * num_records, kPoolSeed))
          .Generate("POI");
  std::vector<size_t> group_starts;
  for (size_t i = 0; i < pool.records.size(); ++i) {
    if (i == 0 || pool.records[i].cluster < 0 ||
        pool.records[i].cluster != pool.records[i - 1].cluster) {
      group_starts.push_back(i);
    }
  }
  group_starts.push_back(pool.records.size());
  const size_t groups = group_starts.size() - 1;
  kjoin::Rng rng(seed);
  std::vector<kjoin::Dataset> datasets(static_cast<size_t>(windows));
  for (kjoin::Dataset& dataset : datasets) {
    dataset.name = pool.name;
    dataset.synonyms = pool.synonyms;
    std::vector<size_t> order(groups);
    for (size_t g = 0; g < groups; ++g) order[g] = g;
    for (size_t g = 0; static_cast<int64_t>(dataset.records.size()) < num_records; ++g) {
      std::swap(order[g], order[g + rng.NextUint64(groups - g)]);
      for (size_t i = group_starts[order[g]]; i < group_starts[order[g] + 1] &&
                                              static_cast<int64_t>(dataset.records.size()) <
                                                  num_records;
           ++i) {
        dataset.records.push_back(pool.records[i]);
        dataset.records.back().id = static_cast<int32_t>(dataset.records.size() - 1);
      }
    }
  }
  return datasets;
}

// ---- host ------------------------------------------------------------------

namespace {

volatile int64_t g_anchor_sink = 0;

double LcaAnchorMs() {
  static const kjoin::Hierarchy hierarchy = MakeHierarchy();
  static const kjoin::LcaIndex lca(hierarchy);
  const auto nodes = static_cast<uint64_t>(hierarchy.num_nodes());
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  int64_t sum = 0;
  const int64_t start = NowNs();
  for (int i = 0; i < (1 << 21); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += lca.LcaDepth(static_cast<kjoin::NodeId>((x & 0xffffffffULL) % nodes),
                        static_cast<kjoin::NodeId>((x >> 32) % nodes));
  }
  const double ms = SecondsBetween(start, NowNs()) * 1e3;
  g_anchor_sink = g_anchor_sink + sum;
  return ms;
}

double StreamAnchorMs(std::vector<uint64_t>* buffer) {
  uint64_t carry = 0;
  const int64_t start = NowNs();
  for (int pass = 0; pass < 4; ++pass) {
    for (uint64_t& value : *buffer) {
      carry += value;
      value = carry;
    }
  }
  const double ms = SecondsBetween(start, NowNs()) * 1e3;
  g_anchor_sink = g_anchor_sink + static_cast<int64_t>(carry);
  return ms;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) == 0 || eax < 0x80000004u) {
    return "unknown";
  }
  char brand[49] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &eax, &ebx, &ecx, &edx);
    const unsigned int regs[4] = {eax, ebx, ecx, edx};
    std::memcpy(brand + 16 * leaf, regs, sizeof(regs));
  }
  const std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  const size_t last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

}  // namespace

Anchors MeasureAnchors() {
  // Kept for the whole run, so the peak RSS carries it on every run
  // alike instead of only when the workload reuses its freed pages.
  static std::vector<uint64_t> buffer(size_t{2} << 20, 1);  // 16 MiB
  Anchors best{1e300, 1e300};
  for (int rep = 0; rep < 3; ++rep) {
    best.lca_ms = std::min(best.lca_ms, LcaAnchorMs());
    best.stream_ms = std::min(best.stream_ms, StreamAnchorMs(&buffer));
  }
  return best;
}

double AnchorDrift(const Anchors& start, const Anchors& end) {
  return std::max(std::abs(Ratio(end.lca_ms, start.lca_ms) - 1.0),
                  std::abs(Ratio(end.stream_ms, start.stream_ms) - 1.0));
}

void ReportHost(Report* report) {
  report->Text("host.cpu", CpuModel());
  report->Text("host.isa", kjoin::simd::IsaLevelName(kjoin::simd::ActiveLevel()));
  report->Line("host.nproc", CpuCount(), "count");
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void ResetPeakRss() {
  // Hand freed heap pages back first, so what an earlier window freed does
  // not count toward this one's peak; then writing 5 to clear_refs resets
  // the kernel's peak-RSS mark (VmHWM) to the current RSS.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

}  // namespace perfbench
