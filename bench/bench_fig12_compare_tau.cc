// Figure 12: candidate counts and total join time vs τ ∈ [0.75, 0.95] at
// δ = 0.8 — FastJoin and Synonym against K-Join and K-Join+, on the
// "small" POI and Tweet datasets.
//
//   ./bench_fig12_compare_tau [--n 5000]
//
// The default scale is laptop-friendly; pass --n 100000 for the paper's
// small-dataset scale (FastJoin's candidate blowup makes that slow, which
// is the paper's point).

#include "baselines/fastjoin.h"
#include "baselines/synonym_join.h"
#include "bench_util.h"
#include "common/flags.h"

namespace {

using kjoin::bench::Fmt;
using kjoin::bench::PrintRow;

void RunDataset(const std::string& name, const kjoin::BenchmarkData& data, double delta) {
  const auto records = kjoin::bench::RawRecords(data.dataset);
  const kjoin::PreparedObjects single =
      kjoin::BuildObjects(data.hierarchy, data.dataset, false, delta);
  const kjoin::PreparedObjects plus =
      kjoin::BuildObjects(data.hierarchy, data.dataset, true, delta);

  kjoin::bench::PrintHeader("Figure 12: systems vs tau (" + name + ", delta=" +
                            Fmt(delta, 2) + ", n=" +
                            std::to_string(data.dataset.records.size()) + ")");
  PrintRow({"tau", "FJ-cand", "Syn-cand", "KJ-cand", "KJ+-cand", "FJ-s", "Syn-s", "KJ-s",
            "KJ+-s"},
           11);
  for (double tau : {0.75, 0.80, 0.85, 0.90, 0.95}) {
    kjoin::FastJoin fastjoin(kjoin::FastJoinOptions{delta, tau, 2});
    const kjoin::JoinStats fj = fastjoin.SelfJoin(records).stats;

    kjoin::SynonymJoin synonym(data.dataset.synonyms, kjoin::SynonymJoinOptions{tau});
    const kjoin::JoinStats syn = synonym.SelfJoin(records).stats;

    kjoin::KJoinOptions options;
    options.delta = delta;
    options.tau = tau;
    const kjoin::JoinStats kj =
        kjoin::bench::RunKJoin(data.hierarchy, single.objects, options).stats;

    options.plus_mode = true;
    const kjoin::JoinStats kjp =
        kjoin::bench::RunKJoin(data.hierarchy, plus.objects, options).stats;

    PrintRow({Fmt(tau, 2), std::to_string(fj.candidates), std::to_string(syn.candidates),
              std::to_string(kj.probe_pairs()), std::to_string(kjp.probe_pairs()),
              Fmt(fj.total_seconds, 2), Fmt(syn.total_seconds, 2), Fmt(kj.total_seconds, 2),
              Fmt(kjp.total_seconds, 2)},
             11);
  }
}

}  // namespace

int main(int argc, char** argv) {
  kjoin::FlagSet flags("bench_fig12_compare_tau");
  int64_t* n = flags.Int("n", 2000, "records per dataset");
  double* delta = flags.Double("delta", 0.8, "element similarity threshold");
  if (!flags.Parse(argc, argv)) return 1;
  RunDataset("POI", kjoin::MakePoiBenchmark(*n), *delta);
  RunDataset("Tweet", kjoin::MakeTweetBenchmark(*n), *delta);
  std::printf("\npaper shape: K-Join/K-Join+ candidates and time are 2-3 orders of\n"
              "magnitude below FastJoin and well below Synonym; K-Join is slightly\n"
              "faster than K-Join+.\n");
  return 0;
}
