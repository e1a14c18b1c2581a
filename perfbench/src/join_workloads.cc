// The two batch workloads: a self-join from text files to pairs in
// memory, K-Join+ (join_plus) or K-Join (join_pure). One operation is the
// whole path a batch caller runs — parse the hierarchy and dataset files,
// BuildObjects (entity matching), the KJoin constructor (LCA tables) and
// SelfJoin (prepare, filter, verify) — and its wall time is the latency
// reading. Successive joins cycle through many dataset files, each its own
// seeded draw of records, so a window's median does not rest on one draw.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/kjoin.h"
#include "data/benchmark_suite.h"
#include "data/dataset_io.h"
#include "hierarchy/hierarchy_io.h"
#include "oracle.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr double kTau = 0.7;
// One join thread: a shared host gives a run a few CPUs, and a second
// thread makes the join's wall time follow the host's scheduler.
constexpr int kThreads = 1;
// A window holds at least this many joins, so even a short window takes
// its median over many files.
constexpr size_t kMinJoins = 16;
// Records the traced run rebuilds one by one for the per-record build time.
constexpr int64_t kProbeRecords = 200;

struct JoinScale {
  int64_t records;
  int files;        // dataset files the joins cycle through
  int sample_rows;  // rows the oracle recomputes by brute force
};

JoinScale ScaleFor(const Options& options, bool plus) {
  if (options.tiny) return {plus ? 120 : 500, 2, 3};
  return {plus ? 200 : 5000, 32, plus ? 12 : 6};
}

kjoin::KJoinOptions JoinOptions(bool plus) {
  kjoin::KJoinOptions options;
  options.delta = kDelta;
  options.tau = kTau;
  options.plus_mode = plus;
  options.num_threads = kThreads;
  return options;
}

// One file -> pairs join. Declared in construction order: the hierarchy
// outlives the matcher, builder and join that reference it.
struct JoinRun {
  std::unique_ptr<kjoin::Hierarchy> hierarchy;
  std::optional<kjoin::Dataset> dataset;
  kjoin::PreparedObjects prepared;
  std::unique_ptr<kjoin::KJoin> join;
  kjoin::JoinResult result;
  double parse_s = 0.0;
  double build_s = 0.0;
  double lca_s = 0.0;
  double total_s = 0.0;
  int64_t self_join_span = 0;
  int64_t self_join_start_ns = 0;
};

class JoinWorkload final : public Workload {
 public:
  JoinWorkload(const Options& options, bool plus)
      : options_(options),
        plus_(plus),
        scale_(ScaleFor(options, plus)),
        hierarchy_path_(options.workdir + "/hierarchy.txt") {
    for (int f = 0; f < scale_.files; ++f) {
      dataset_paths_.push_back(options.workdir + "/dataset-" + std::to_string(f) + ".tsv");
    }
  }

  double Setup() override {
    const int64_t start = NowNs();
    const kjoin::Hierarchy hierarchy = MakeHierarchy();
    const std::vector<kjoin::Dataset> datasets =
        MakeRecords(hierarchy, scale_.records, scale_.files, RecordSeed(options_.seed));
    bool written = kjoin::WriteHierarchyFile(hierarchy, hierarchy_path_).ok();
    for (size_t f = 0; f < datasets.size(); ++f) {
      written = written && kjoin::WriteDatasetFile(datasets[f], dataset_paths_[f]).ok();
    }
    if (!written) Die("cannot write the generated files to " + options_.workdir);
    return SecondsBetween(start, NowNs());
  }

  void Warmup() override { last_ = RunJoin(dataset_paths_.front()); }

  void Measure(double seconds) override {
    join_seconds_.clear();
    const int64_t start = NowNs();
    while (join_seconds_.size() < kMinJoins || SecondsBetween(start, NowNs()) < seconds) {
      std::unique_ptr<JoinRun> run =
          RunJoin(dataset_paths_[join_seconds_.size() % dataset_paths_.size()]);
      join_seconds_.push_back(run->total_s);
      last_ = std::move(run);  // the previous run is freed outside the timing
    }
  }

  void ReportEndToEnd(Report* report) override {
    const auto joins = static_cast<double>(join_seconds_.size());
    double busy = 0.0;
    for (double seconds : join_seconds_) busy += seconds;
    report->AddAttempted(static_cast<int64_t>(join_seconds_.size()));
    report->Metric("latency_p50_ms", Median(join_seconds_) * 1e3, "ms");
    report->Line("latency_p90_ms", Percentile(join_seconds_, 0.90) * 1e3, "ms");
    report->Metric("throughput_per_s", Ratio(joins * static_cast<double>(scale_.records), busy),
                   "1/s");
    report->Line("join_s", Median(join_seconds_), "s");
    report->Line("join_samples", joins, "count");
    report->Line("join_records", static_cast<double>(scale_.records), "count");
    report->Line("join_pairs", static_cast<double>(last_->result.pairs.size()), "count");
    report->Line("join_candidates", static_cast<double>(last_->result.stats.candidates), "count");
  }

  void RunTraced(Report* report) override {
    Tracer::SetEnabled(false);
    const std::unique_ptr<JoinRun> untraced = RunJoin(dataset_paths_.front());
    Tracer::SetEnabled(true);
    std::unique_ptr<JoinRun> run = RunJoin(dataset_paths_.front());
    const kjoin::JoinStats& stats = run->result.stats;
    // JoinStats' phase seconds become the child spans of core.self_join,
    // laid end to end from its start.
    int64_t at = run->self_join_start_ns;
    const std::pair<const char*, double> phases[] = {{"core.prepare", stats.signature_seconds},
                                                     {"core.filter", stats.filter_seconds},
                                                     {"core.verify", stats.verify_seconds}};
    for (const auto& [name, seconds] : phases) {
      const int64_t end = at + static_cast<int64_t>(seconds * 1e9);
      Tracer::Record(Tracer::NewId(), name, at, end, run->self_join_span, 0);
      at = end;
    }

    // Text-layer probes on the traced run's own matcher and builder.
    std::vector<std::string> table;
    std::vector<double> table_us;
    for (int i = 0; i < 5; ++i) {
      table_us.push_back(1e6 * TimeSpan("text.token_table_copy",
                                        [&] { table = run->prepared.builder->TokenTable(); }));
    }
    kjoin::ObjectBuilder probe(*run->prepared.matcher, plus_);
    probe.PreloadTokens(table);
    const int64_t tokens_before = probe.num_distinct_tokens();
    const int64_t probes =
        std::min<int64_t>(kProbeRecords, static_cast<int64_t>(run->dataset->records.size()));
    std::vector<double> build_us;
    int64_t tokens = 0;
    int64_t mappings = 0;
    for (int64_t i = 0; i < probes; ++i) {
      const kjoin::Record& record = run->dataset->records[static_cast<size_t>(i)];
      build_us.push_back(1e6 * TimeSpan("text.build_one",
                                        [&] { (void)probe.Build(record.id, record.tokens); }));
      for (const std::string& token : record.tokens) {
        ++tokens;
        mappings += plus_ ? static_cast<int64_t>(run->prepared.matcher->MatchAll(token).size())
                          : (run->prepared.matcher->MatchOne(token).has_value() ? 1 : 0);
      }
    }
    Tracer::SetEnabled(false);

    const double total = run->total_s;
    const auto records = static_cast<double>(run->prepared.objects.size());
    LayerReadings layers;
    layers.data_parse_s = run->parse_s;
    layers.hierarchy_lca_build_s = run->lca_s;
    layers.text_build_s = run->build_s;
    layers.text_build_us_p50 = Median(build_us);
    layers.text_token_table_copy_us = Median(table_us);
    layers.text_mappings_per_token =
        Ratio(static_cast<double>(mappings), static_cast<double>(tokens));
    layers.text_tokens_added = static_cast<double>(probe.num_distinct_tokens() - tokens_before);
    layers.text_build_share = Ratio(run->build_s, total);
    layers.core_prepare_share = Ratio(stats.signature_seconds, total);
    layers.core_filter_share = Ratio(stats.filter_seconds, total);
    layers.core_verify_share = Ratio(stats.verify_seconds, total);
    layers.core_candidates = static_cast<double>(stats.candidates);
    layers.core_candidate_yield =
        Ratio(static_cast<double>(stats.results), static_cast<double>(stats.candidates));
    layers.core_prefix_sigs_per_object =
        Ratio(static_cast<double>(stats.prefix_signatures), records);
    layers.core_sim_cache_hit_rate = stats.sim_cache_hit_rate;
    layers.core_pool_utilization = stats.pool_utilization;
    layers.matching_hungarian_runs = static_cast<double>(stats.verify.hungarian_runs);
    layers.matching_resolved_without_hungarian_frac = ResolvedWithoutHungarian(stats.verify);
    layers.trace_coverage = Ratio(run->parse_s + run->build_s + run->lca_s +
                                      stats.signature_seconds + stats.filter_seconds +
                                      stats.verify_seconds,
                                  total);
    layers.trace_overhead_share = Ratio(total - untraced->total_s, untraced->total_s);

    // The same stages as absolute readings, under the design's names.
    report->Line("join_s", total, "s");
    report->Line("join_s.untraced", untraced->total_s, "s");
    report->Line("core.prepare_s", stats.signature_seconds, "s");
    report->Line("core.filter_s", stats.filter_seconds, "s");
    report->Line("core.verify_s", stats.verify_seconds, "s");
    Report::TraceMeta meta;
    meta.e2e_span = "e2e.join";
    meta.untraced_e2e_ms = untraced->total_s * 1e3;
    meta.traced_e2e_ms = total * 1e3;
    meta.stage_spans = {"data.parse",   "text.build",  "hierarchy.lca_build",
                        "core.prepare", "core.filter", "core.verify"};
    report->SetTraceMeta(std::move(meta));
    report->AddAttempted(2);
    EmitLayerReadings(layers, report);
    last_ = std::move(run);
  }

  void Check(Report* report) override {
    const BruteForce oracle(*last_->hierarchy, kDelta, kTau, plus_);
    const std::vector<kjoin::Object>& objects = last_->prepared.objects;
    std::vector<std::pair<int32_t, int32_t>> pairs = last_->result.pairs;
    const auto n = static_cast<int32_t>(objects.size());
    if (options_.perturb) {
      // Self-test: plant one pair the brute force rejects.
      for (int32_t j = 1; j < n; ++j) {
        if (oracle.Similarity(objects[0], objects[static_cast<size_t>(j)]) <
                kTau - kSimilarityEpsilon &&
            std::find(pairs.begin(), pairs.end(), std::make_pair(0, j)) == pairs.end()) {
          pairs.emplace_back(0, j);
          break;
        }
      }
    }
    kjoin::Rng rng(RecordSeed(options_.seed) * 31 + 7);
    std::vector<int32_t> rows;
    while (static_cast<int32_t>(rows.size()) < std::min(scale_.sample_rows, n)) {
      const auto row = static_cast<int32_t>(rng.NextUint64(static_cast<uint64_t>(n)));
      if (std::find(rows.begin(), rows.end(), row) == rows.end()) rows.push_back(row);
    }
    for (const std::string& mismatch : CheckSelfJoin(oracle, objects, pairs, rows)) {
      report->Mismatch(mismatch);
    }
    report->Line("oracle.pairs_checked", static_cast<double>(pairs.size()), "count");
    report->Line("oracle.rows_checked", static_cast<double>(rows.size()), "count");
  }

 private:
  std::unique_ptr<JoinRun> RunJoin(const std::string& dataset_path) {
    auto run = std::make_unique<JoinRun>();
    ScopedSpan e2e("e2e.join");
    run->parse_s = TimeSpan("data.parse", [&] {
      kjoin::StatusOr<kjoin::Hierarchy> hierarchy = kjoin::ReadHierarchyFile(hierarchy_path_);
      kjoin::StatusOr<kjoin::Dataset> dataset = kjoin::ReadDatasetFile(dataset_path);
      if (!hierarchy.ok() || !dataset.ok()) Die("cannot read back the generated files");
      run->hierarchy = std::make_unique<kjoin::Hierarchy>(std::move(*hierarchy));
      run->dataset.emplace(std::move(*dataset));
    });
    run->build_s = TimeSpan("text.build", [&] {
      run->prepared = kjoin::BuildObjects(*run->hierarchy, *run->dataset, plus_, kDelta);
    });
    run->lca_s = TimeSpan("hierarchy.lca_build", [&] {
      run->join = std::make_unique<kjoin::KJoin>(*run->hierarchy, JoinOptions(plus_));
    });
    {
      ScopedSpan span("core.self_join");
      run->self_join_span = span.id();
      run->self_join_start_ns = span.start_ns();
      run->result = run->join->SelfJoin(run->prepared.objects);
    }
    run->total_s = e2e.Elapsed();
    return run;
  }

  const Options options_;
  const bool plus_;
  const JoinScale scale_;
  const std::string hierarchy_path_;
  std::vector<std::string> dataset_paths_;
  std::vector<double> join_seconds_;
  std::unique_ptr<JoinRun> last_;
};

}  // namespace

std::unique_ptr<Workload> MakeJoinWorkload(const Options& options, bool plus) {
  return std::make_unique<JoinWorkload>(options, plus);
}

}  // namespace perfbench
