// Ablation: the design choices DESIGN.md calls out, each toggled in
// isolation on one POI workload —
//   * count pruning / weighted count pruning (paper §3.2, Lemmas 3-4);
//     in pure mode the count bound runs in the probe, so "no-count" shows
//     up as a jump in candidates and a zero count-filtered column; the
//     sketch-filtered column is the part of count-filtered that the
//     signature sketches rejected without a merge
//   * the probe-side size window (size-skipped posting entries, every
//     configuration)
//   * weighted vs plain path prefix (Definition 9 vs 8)
//   * adaptive bounds vs plain subgraph matching (§5.2)
//
//   ./bench_ablation_pruning [--n 10000] [--delta 0.8] [--tau 0.85]

#include "bench_util.h"
#include "common/flags.h"

namespace {

using kjoin::bench::Fmt;
using kjoin::bench::PrintRow;

void Run(const std::string& label, const kjoin::BenchmarkData& data,
         const kjoin::PreparedObjects& prepared, kjoin::KJoinOptions options) {
  const kjoin::JoinResult result =
      kjoin::bench::RunKJoin(data.hierarchy, prepared.objects, options);
  PrintRow({label, std::to_string(result.stats.size_skipped),
            std::to_string(result.stats.count_filtered),
            std::to_string(result.stats.sketch_filtered), std::to_string(result.stats.candidates),
            std::to_string(result.stats.verify.pruned_by_count),
            std::to_string(result.stats.verify.pruned_by_weighted_count),
            std::to_string(result.stats.verify.hungarian_runs),
            Fmt(result.stats.verify_seconds, 3), Fmt(result.stats.total_seconds, 3),
            std::to_string(result.stats.results)},
           16);
}

}  // namespace

int main(int argc, char** argv) {
  kjoin::FlagSet flags("bench_ablation_pruning");
  int64_t* n = flags.Int("n", 10000, "records");
  double* delta = flags.Double("delta", 0.8, "element threshold");
  double* tau = flags.Double("tau", 0.85, "object threshold");
  if (!flags.Parse(argc, argv)) return 1;

  const kjoin::BenchmarkData data = kjoin::MakePoiBenchmark(*n);
  const kjoin::PreparedObjects prepared =
      kjoin::BuildObjects(data.hierarchy, data.dataset, false);

  kjoin::bench::PrintHeader("Ablation (POI, n=" + std::to_string(*n) + ", delta=" +
                            Fmt(*delta, 2) + ", tau=" + Fmt(*tau, 2) + ")");
  PrintRow({"config", "size-skipped", "count-filtered", "sketch-filtered", "candidates",
            "count-pruned", "wcount-pruned", "hungarian", "verify-s", "total-s", "results"},
           16);

  kjoin::KJoinOptions base;
  base.delta = *delta;
  base.tau = *tau;

  Run("full", data, prepared, base);

  kjoin::KJoinOptions no_weighted_prefix = base;
  no_weighted_prefix.weighted_prefix = false;
  Run("plain-prefix", data, prepared, no_weighted_prefix);

  kjoin::KJoinOptions no_count = base;
  no_count.count_pruning = false;
  Run("no-count", data, prepared, no_count);

  kjoin::KJoinOptions no_weighted_count = base;
  no_weighted_count.weighted_count_pruning = false;
  Run("no-wcount", data, prepared, no_weighted_count);

  kjoin::KJoinOptions no_pruning = base;
  no_pruning.count_pruning = false;
  no_pruning.weighted_count_pruning = false;
  Run("no-pruning", data, prepared, no_pruning);

  kjoin::KJoinOptions subgraph = no_pruning;
  subgraph.verify_mode = kjoin::VerifyMode::kSubGraph;
  Run("subgraph", data, prepared, subgraph);

  kjoin::KJoinOptions basic = no_pruning;
  basic.verify_mode = kjoin::VerifyMode::kBasic;
  Run("basic", data, prepared, basic);

  std::printf("\nAll configurations return identical result counts; they differ only\n"
              "in how much verification work the bounds avoid.\n");
  return 0;
}
