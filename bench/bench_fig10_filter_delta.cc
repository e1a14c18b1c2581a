// Figure 10: filtering power — candidate counts and join time for Node /
// Shallow / Deep signatures, varying δ ∈ [0.5, 0.9] (POI at τ = 0.95,
// Tweet at τ = 0.85).
//
//   ./bench_fig10_filter_delta [--n 20000]

#include "bench_util.h"
#include "common/flags.h"

namespace {

using kjoin::bench::Fmt;
using kjoin::bench::PrintRow;

void RunDataset(const std::string& name, const kjoin::BenchmarkData& data, double tau) {
  const kjoin::PreparedObjects prepared =
      kjoin::BuildObjects(data.hierarchy, data.dataset, /*multi_mapping=*/false);

  kjoin::bench::PrintHeader("Figure 10: filtering vs delta (" + name + ", tau=" +
                            Fmt(tau, 2) + ", n=" +
                            std::to_string(data.dataset.records.size()) + ")");
  PrintRow({"delta", "node-cand", "shal-cand", "deep-cand", "node-s", "shal-s", "deep-s"},
           12);
  for (double delta : {0.5, 0.6, 0.7, 0.8, 0.9}) {
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
    PrintRow({Fmt(delta, 2), std::to_string(stats[0].probe_pairs()),
              std::to_string(stats[1].probe_pairs()), std::to_string(stats[2].probe_pairs()),
              Fmt(stats[0].total_seconds, 2), Fmt(stats[1].total_seconds, 2),
              Fmt(stats[2].total_seconds, 2)},
             12);
  }
}

}  // namespace

int main(int argc, char** argv) {
  kjoin::FlagSet flags("bench_fig10_filter_delta");
  int64_t* n = flags.Int("n", 10000, "records per dataset");
  if (!flags.Parse(argc, argv)) return 1;
  RunDataset("POI", kjoin::MakePoiBenchmark(*n), /*tau=*/0.95);
  RunDataset("Tweet", kjoin::MakeTweetBenchmark(*n), /*tau=*/0.85);
  std::printf("\npaper shape: for small delta, Shallow ~ Node (coarse signatures) while\n"
              "Deep stays far ahead; the gap narrows as delta grows.\n");
  return 0;
}
