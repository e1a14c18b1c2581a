// Figure 9: filtering power — candidate counts and join time for the
// Node, Shallow and Deep signature schemes, varying τ ∈ [0.75, 0.95] at
// δ = 0.8, on POI and Tweet.
//
//   ./bench_fig9_filter_tau [--n 20000]

#include "bench_util.h"
#include "common/flags.h"

namespace {

using kjoin::bench::Fmt;
using kjoin::bench::PrintRow;

void RunDataset(const std::string& name, const kjoin::BenchmarkData& data, double delta) {
  const kjoin::PreparedObjects prepared =
      kjoin::BuildObjects(data.hierarchy, data.dataset, /*multi_mapping=*/false);

  kjoin::bench::PrintHeader("Figure 9: filtering vs tau (" + name + ", delta=" +
                            Fmt(delta, 2) + ", n=" +
                            std::to_string(data.dataset.records.size()) + ")");
  PrintRow({"tau", "node-cand", "shal-cand", "deep-cand", "node-s", "shal-s", "deep-s",
            "results"},
           12);
  for (double tau : {0.75, 0.80, 0.85, 0.90, 0.95}) {
    kjoin::JoinStats stats[3];
    const kjoin::SignatureScheme schemes[3] = {kjoin::SignatureScheme::kNode,
                                               kjoin::SignatureScheme::kShallowPath,
                                               kjoin::SignatureScheme::kDeepPath};
    for (int i = 0; i < 3; ++i) {
      kjoin::KJoinOptions options;
      options.delta = delta;
      options.tau = tau;
      options.scheme = schemes[i];
      options.weighted_prefix = schemes[i] == kjoin::SignatureScheme::kDeepPath;
      stats[i] = kjoin::bench::RunKJoin(data.hierarchy, prepared.objects, options).stats;
    }
    PrintRow({Fmt(tau, 2), std::to_string(stats[0].probe_pairs()),
              std::to_string(stats[1].probe_pairs()), std::to_string(stats[2].probe_pairs()),
              Fmt(stats[0].total_seconds, 2), Fmt(stats[1].total_seconds, 2),
              Fmt(stats[2].total_seconds, 2), std::to_string(stats[2].results)},
             12);
  }
}

}  // namespace

int main(int argc, char** argv) {
  kjoin::FlagSet flags("bench_fig9_filter_tau");
  int64_t* n = flags.Int("n", 10000, "records per dataset");
  double* delta = flags.Double("delta", 0.8, "element similarity threshold");
  if (!flags.Parse(argc, argv)) return 1;
  RunDataset("POI", kjoin::MakePoiBenchmark(*n), *delta);
  RunDataset("Tweet", kjoin::MakeTweetBenchmark(*n), *delta);
  std::printf("\npaper shape: Deep <= Shallow << Node in candidates and time;\n"
              "candidates shrink as tau grows.\n");
  return 0;
}
