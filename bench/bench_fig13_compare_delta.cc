// Figure 13: candidate counts and total join time vs δ ∈ [0.5, 0.9] — the
// four systems, POI at τ = 0.95 and Tweet at τ = 0.85.
//
//   ./bench_fig13_compare_delta [--n 5000]

#include "baselines/fastjoin.h"
#include "baselines/synonym_join.h"
#include "bench_util.h"
#include "common/flags.h"

namespace {

using kjoin::bench::Fmt;
using kjoin::bench::PrintRow;

void RunDataset(const std::string& name, const kjoin::BenchmarkData& data, double tau) {
  const auto records = kjoin::bench::RawRecords(data.dataset);

  kjoin::bench::PrintHeader("Figure 13: systems vs delta (" + name + ", tau=" +
                            Fmt(tau, 2) + ", n=" +
                            std::to_string(data.dataset.records.size()) + ")");
  PrintRow({"delta", "FJ-cand", "Syn-cand", "KJ-cand", "KJ+-cand", "FJ-s", "Syn-s", "KJ-s",
            "KJ+-s"},
           11);
  // Synonym has no delta; run it once.
  kjoin::SynonymJoin synonym(data.dataset.synonyms, kjoin::SynonymJoinOptions{tau});
  const kjoin::JoinStats syn = synonym.SelfJoin(records).stats;

  for (double delta : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    kjoin::FastJoin fastjoin(kjoin::FastJoinOptions{delta, tau, 2});
    const kjoin::JoinStats fj = fastjoin.SelfJoin(records).stats;

    const kjoin::PreparedObjects single =
        kjoin::BuildObjects(data.hierarchy, data.dataset, false, delta);
    kjoin::KJoinOptions options;
    options.delta = delta;
    options.tau = tau;
    const kjoin::JoinStats kj =
        kjoin::bench::RunKJoin(data.hierarchy, single.objects, options).stats;

    const kjoin::PreparedObjects plus =
        kjoin::BuildObjects(data.hierarchy, data.dataset, true, delta);
    options.plus_mode = true;
    const kjoin::JoinStats kjp =
        kjoin::bench::RunKJoin(data.hierarchy, plus.objects, options).stats;

    PrintRow({Fmt(delta, 2), std::to_string(fj.candidates), std::to_string(syn.candidates),
              std::to_string(kj.probe_pairs()), std::to_string(kjp.probe_pairs()),
              Fmt(fj.total_seconds, 2), Fmt(syn.total_seconds, 2), Fmt(kj.total_seconds, 2),
              Fmt(kjp.total_seconds, 2)},
             11);
  }
}

}  // namespace

int main(int argc, char** argv) {
  kjoin::FlagSet flags("bench_fig13_compare_delta");
  int64_t* n = flags.Int("n", 2000, "records per dataset");
  if (!flags.Parse(argc, argv)) return 1;
  RunDataset("POI", kjoin::MakePoiBenchmark(*n), /*tau=*/0.95);
  RunDataset("Tweet", kjoin::MakeTweetBenchmark(*n), /*tau=*/0.85);
  std::printf("\npaper shape: the K-Join advantage is largest at small delta; Synonym\n"
              "is flat in delta; gaps shrink as delta grows.\n");
  return 0;
}
