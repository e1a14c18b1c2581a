// Bench-regression harness: one binary that exercises the hot paths this
// repo optimizes (LCA queries, filter schemes, verification, threading)
// and emits a machine-readable JSON report so successive PRs can be
// compared number-to-number.
//
//   ./bench_regression [--n 6000] [--verify_n 1500] [--micro_queries 2000000]
//                      [--out BENCH_PR4.json]
//
// Sections (keys in the JSON):
//   micro_lca    queries/sec for naive LCA, sparse-table LCA and NodeSim.
//   fig9_filter  signature-scheme sweep (node vs shallow/deep path):
//                wall time, candidates, results.
//   fig11_verify K-Join+ (plus-mode) verification time with count
//                prunings off, so the similarity work dominates.
//   micro_hungarian  solves/sec of the sparse scratch Hungarian matcher
//                vs the dense oracle on verifier-group-shaped bigraphs,
//                plus the scratch's capacity growths after warm-up
//                (0 = the steady state never touches the allocator).
//   fig14_threads self-join wall time at 1, 2 and 8 threads (best of 3).
//   deadline_overhead  self-join through the controlled entry point with
//                a deadline + cancel token armed but never tripping,
//                vs the legacy entry point: the cost of shard-boundary
//                control polling (docs/robustness.md).
//
// Every joined section also reports whether the result pairs were
// identical across the compared configurations — the thread count, the
// ISA level and control polling must never change output.

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/element_similarity.h"
#include "core/simd.h"
#include "data/generator.h"
#include "hierarchy/hierarchy_generator.h"
#include "hierarchy/lca.h"
#include "matching/bigraph.h"
#include "matching/hungarian.h"

namespace {

using kjoin::Hierarchy;
using kjoin::LcaIndex;
using kjoin::NodeId;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::pair<NodeId, NodeId>> RandomPairs(const Hierarchy& tree, int count,
                                                   uint64_t seed) {
  kjoin::Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  for (int i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.NextUint64(tree.num_nodes())),
                       static_cast<NodeId>(rng.NextUint64(tree.num_nodes())));
  }
  return pairs;
}

// Runs `queries` lookups round-robin over `pairs` and returns queries/sec.
// The sink folds results via integer XOR: a += chain of doubles would put
// a 4-cycle FP dependency between iterations and flatten the differences
// this harness exists to measure.
template <typename Fn>
double MeasureQps(int64_t queries, const std::vector<std::pair<NodeId, NodeId>>& pairs,
                  const Fn& fn) {
  const size_t n = pairs.size();
  uint64_t sink = 0;
  const double start = NowSeconds();
  size_t i = 0;
  for (int64_t q = 0; q < queries; ++q) {
    const auto& [x, y] = pairs[i];
    sink ^= std::bit_cast<uint64_t>(fn(x, y));
    if (++i == n) i = 0;
  }
  const double elapsed = NowSeconds() - start;
  // Keep `sink` live so the loop cannot be optimized away.
  if (sink == uint64_t{1}) std::fprintf(stderr, "impossible\n");
  return elapsed > 0.0 ? static_cast<double>(queries) / elapsed : 0.0;
}

struct MicroLcaReport {
  double naive_qps = 0.0;
  double sparse_qps = 0.0;
  double nodesim_uncached_qps = 0.0;
};

MicroLcaReport RunMicroLca(int64_t queries) {
  const Hierarchy tree = kjoin::GenerateHierarchy(kjoin::HierarchyGenParams{});
  const LcaIndex lca(tree);
  const kjoin::ElementSimilarity esim(lca);
  const auto pairs = RandomPairs(tree, 1024, 7);

  MicroLcaReport report;
  report.naive_qps = MeasureQps(queries / 20, pairs, [&](NodeId x, NodeId y) {
    return static_cast<double>(tree.LowestCommonAncestorNaive(x, y));
  });
  report.sparse_qps = MeasureQps(queries, pairs, [&](NodeId x, NodeId y) {
    return static_cast<double>(lca.Lca(x, y));
  });
  report.nodesim_uncached_qps = MeasureQps(
      queries, pairs, [&](NodeId x, NodeId y) { return esim.NodeSim(x, y); });
  return report;
}

struct SchemeRow {
  std::string scheme;
  double total_seconds = 0.0;
  double filter_seconds = 0.0;
  int64_t candidates = 0;  // JoinStats::probe_pairs(): the signature filter's output
  int64_t results = 0;
};

// fig10_filter_delta: the SIMD filter engine vs forced-scalar dispatch
// per δ, plus result identity across thread counts and dispatch levels.
struct FilterDeltaRow {
  double delta = 0.0;
  double filter_seconds = 0.0;         // dispatched (best of 3)
  double scalar_filter_seconds = 0.0;  // KJOIN-forced scalar (best of 3)
  double filter_speedup_vs_scalar = 0.0;
  double total_seconds = 0.0;
  int64_t candidates = 0;  // JoinStats::probe_pairs()
  int64_t results = 0;
  bool results_identical = true;  // across threads 1/2/8 and scalar-vs-SIMD
};

struct VerifyReport {
  double verify_seconds = 0.0;
  int64_t candidates = 0;
  int64_t results = 0;
};

struct ThreadRow {
  int threads = 1;
  double total_seconds = 0.0;
  bool results_identical = true;
};

struct MicroHungarianReport {
  int64_t graphs = 0;
  int64_t solves = 0;  // per solver
  double sparse_qps = 0.0;
  double dense_qps = 0.0;
  double sparse_speedup = 0.0;
  int64_t scratch_growths_after_warmup = 0;
  bool results_identical = true;
  double checksum = 0.0;  // keeps the solve loops observable
};

// Sparse scratch matcher vs the dense oracle on a pool of bigraphs shaped
// like adaptive-verification groups (2–12 vertices per side, mixed
// sparsity, occasional parallel edges). The scratch growth counter after
// the warm-up pass is the bench-side check that steady-state solves never
// touch the allocator.
MicroHungarianReport RunMicroHungarian(int64_t target_solves) {
  MicroHungarianReport report;
  kjoin::Rng rng(2026);
  std::vector<kjoin::Bigraph> graphs;
  constexpr int kGraphs = 512;
  for (int g = 0; g < kGraphs; ++g) {
    const int32_t left = 2 + static_cast<int32_t>(rng.NextUint64(11));
    const int32_t right = 2 + static_cast<int32_t>(rng.NextUint64(11));
    const double p = 0.15 + 0.7 * rng.NextDouble();
    kjoin::Bigraph graph(left, right);
    for (int32_t l = 0; l < left; ++l) {
      for (int32_t r = 0; r < right; ++r) {
        if (!rng.NextBool(p)) continue;
        graph.AddEdge(l, r, 0.05 + 0.95 * rng.NextDouble());
        if (rng.NextBool(0.1)) graph.AddEdge(l, r, 0.05 + 0.95 * rng.NextDouble());
      }
    }
    graphs.push_back(std::move(graph));
  }
  report.graphs = kGraphs;

  // Warm-up doubles as the equivalence check and sizes the scratch once.
  kjoin::HungarianScratch scratch;
  for (const kjoin::Bigraph& graph : graphs) {
    const double sparse = kjoin::MaxWeightMatching(graph, &scratch);
    const double dense = kjoin::MaxWeightMatchingDense(graph);
    if (std::fabs(sparse - dense) > 1e-9) report.results_identical = false;
  }
  const int64_t growths_after_warmup = scratch.capacity_growths();

  const int64_t rounds = std::max<int64_t>(1, target_solves / kGraphs);
  report.solves = rounds * kGraphs;
  double sparse_sink = 0.0;
  double start = NowSeconds();
  for (int64_t round = 0; round < rounds; ++round) {
    for (const kjoin::Bigraph& graph : graphs) {
      sparse_sink += kjoin::MaxWeightMatching(graph, &scratch);
    }
  }
  const double sparse_seconds = NowSeconds() - start;
  double dense_sink = 0.0;
  start = NowSeconds();
  for (int64_t round = 0; round < rounds; ++round) {
    for (const kjoin::Bigraph& graph : graphs) {
      dense_sink += kjoin::MaxWeightMatchingDense(graph);
    }
  }
  const double dense_seconds = NowSeconds() - start;

  report.scratch_growths_after_warmup = scratch.capacity_growths() - growths_after_warmup;
  report.sparse_qps = sparse_seconds > 0.0 ? report.solves / sparse_seconds : 0.0;
  report.dense_qps = dense_seconds > 0.0 ? report.solves / dense_seconds : 0.0;
  report.sparse_speedup = dense_seconds > 0.0 && sparse_seconds > 0.0
                              ? dense_seconds / sparse_seconds
                              : 0.0;
  if (std::fabs(sparse_sink - dense_sink) > 1e-6 * report.solves) {
    report.results_identical = false;
  }
  report.checksum = sparse_sink;
  return report;
}

std::string JsonBool(bool b) { return b ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  kjoin::FlagSet flags("bench_regression");
  int64_t* n = flags.Int("n", 6000, "records in the POI-shaped dataset");
  int64_t* verify_n =
      flags.Int("verify_n", 1500, "records in the plus-mode verification section");
  int64_t* micro_queries = flags.Int("micro_queries", 2000000, "micro-LCA lookups per timer");
  int64_t* hungarian_solves =
      flags.Int("hungarian_solves", 200000, "micro-Hungarian solves per solver");
  std::string* out = flags.String("out", "BENCH_PR4.json", "JSON report path");
  if (!flags.Parse(argc, argv)) return 1;

  std::printf("== micro LCA (%lld queries/timer) ==\n",
              static_cast<long long>(*micro_queries));
  const MicroLcaReport micro = RunMicroLca(*micro_queries);
  std::printf("naive %.3g qps | sparse %.3g qps | nodesim %.3g qps\n", micro.naive_qps,
              micro.sparse_qps, micro.nodesim_uncached_qps);

  std::printf("== micro Hungarian (%lld solves/solver) ==\n",
              static_cast<long long>(*hungarian_solves));
  const MicroHungarianReport hungarian = RunMicroHungarian(*hungarian_solves);
  std::printf("sparse %.3g qps | dense %.3g qps (%.2fx) | growths after warmup %lld | "
              "identical=%s (checksum %.6g)\n",
              hungarian.sparse_qps, hungarian.dense_qps, hungarian.sparse_speedup,
              static_cast<long long>(hungarian.scratch_growths_after_warmup),
              JsonBool(hungarian.results_identical).c_str(), hungarian.checksum);

  const kjoin::BenchmarkData poi = kjoin::MakePoiBenchmark(*n);
  const kjoin::PreparedObjects prepared =
      kjoin::BuildObjects(poi.hierarchy, poi.dataset, /*multi_mapping=*/false);

  // ---- fig9-style filter scheme sweep ----
  std::printf("== filter schemes (n=%lld, delta=0.8, tau=0.85) ==\n",
              static_cast<long long>(*n));
  std::vector<SchemeRow> scheme_rows;
  const std::pair<kjoin::SignatureScheme, std::string> schemes[] = {
      {kjoin::SignatureScheme::kNode, "node"},
      {kjoin::SignatureScheme::kShallowPath, "shallow_path"},
      {kjoin::SignatureScheme::kDeepPath, "deep_path"},
  };
  for (const auto& [scheme, name] : schemes) {
    kjoin::KJoinOptions options;
    options.delta = 0.8;
    options.tau = 0.85;
    options.scheme = scheme;
    // The weighted prefix (Definition 9) is only defined on deep paths.
    options.weighted_prefix = scheme == kjoin::SignatureScheme::kDeepPath;
    const kjoin::JoinResult result =
        kjoin::bench::RunKJoin(poi.hierarchy, prepared.objects, options);
    scheme_rows.push_back({name, result.stats.total_seconds, result.stats.filter_seconds,
                           result.stats.probe_pairs(), result.stats.results});
    std::printf("%-14s %.3fs (filter %.3fs)  candidates=%lld  results=%lld\n", name.c_str(),
                result.stats.total_seconds, result.stats.filter_seconds,
                static_cast<long long>(result.stats.probe_pairs()),
                static_cast<long long>(result.stats.results));
  }

  // ---- fig10-style δ sweep: SIMD filter engine vs forced scalar ----
  // Deep-path prefixes at τ=0.85; δ controls signature expansion and so
  // posting-list density — the regime the vector ScanCount accumulator
  // targets. Timing is best-of-3 per dispatch level; identity is checked
  // on every run against the δ's 1-thread dispatched baseline.
  std::printf("== filter engine vs scalar dispatch (deep_path, tau=0.85) ==\n");
  std::vector<FilterDeltaRow> filter_delta_rows;
  for (const double delta : {0.7, 0.8, 0.9}) {
    kjoin::KJoinOptions options;
    options.delta = delta;
    options.tau = 0.85;
    options.scheme = kjoin::SignatureScheme::kDeepPath;
    options.weighted_prefix = true;
    FilterDeltaRow row;
    row.delta = delta;
    std::vector<std::pair<int32_t, int32_t>> baseline_pairs;
    for (int rep = 0; rep < 3; ++rep) {
      for (const int threads : {1, 2, 8}) {
        options.num_threads = threads;
        const kjoin::JoinResult result =
            kjoin::bench::RunKJoin(poi.hierarchy, prepared.objects, options);
        if (threads == 1) {
          if (rep == 0) {
            baseline_pairs = result.pairs;
            row.candidates = result.stats.probe_pairs();
            row.results = result.stats.results;
          }
          if (rep == 0 || result.stats.filter_seconds < row.filter_seconds) {
            row.filter_seconds = result.stats.filter_seconds;
            row.total_seconds = result.stats.total_seconds;
          }
        }
        if (result.pairs != baseline_pairs) row.results_identical = false;
      }
    }
    kjoin::simd::SetActiveLevelForTest(kjoin::simd::IsaLevel::kScalar);
    options.num_threads = 1;
    for (int rep = 0; rep < 3; ++rep) {
      const kjoin::JoinResult result =
          kjoin::bench::RunKJoin(poi.hierarchy, prepared.objects, options);
      if (rep == 0 || result.stats.filter_seconds < row.scalar_filter_seconds) {
        row.scalar_filter_seconds = result.stats.filter_seconds;
      }
      if (result.pairs != baseline_pairs) row.results_identical = false;
    }
    kjoin::simd::ResetActiveLevelForTest();
    row.filter_speedup_vs_scalar =
        row.filter_seconds > 0.0 ? row.scalar_filter_seconds / row.filter_seconds : 0.0;
    filter_delta_rows.push_back(row);
    std::printf("delta=%.1f  filter %.4fs vs scalar %.4fs (%.2fx) | total %.3fs | "
                "candidates=%lld results=%lld identical=%s\n",
                delta, row.filter_seconds, row.scalar_filter_seconds,
                row.filter_speedup_vs_scalar, row.total_seconds,
                static_cast<long long>(row.candidates), static_cast<long long>(row.results),
                JsonBool(row.results_identical).c_str());
  }

  // ---- fig11-style verification (K-Join+) ----
  // Every plus-mode similarity-matrix cell runs the Eq. 2 mapping-pair
  // loop (several NodeSims plus bound arithmetic). Count prunings off so
  // verification does the full similarity work.
  std::printf("== K-Join+ verification (n=%lld) ==\n", static_cast<long long>(*verify_n));
  VerifyReport verify;
  {
    const kjoin::BenchmarkData verify_poi = kjoin::MakePoiBenchmark(*verify_n);
    const kjoin::PreparedObjects verify_prepared =
        kjoin::BuildObjects(verify_poi.hierarchy, verify_poi.dataset, /*multi_mapping=*/true);

    kjoin::KJoinOptions options;
    options.delta = 0.8;
    options.tau = 0.75;
    options.plus_mode = true;
    options.count_pruning = false;
    options.weighted_count_pruning = false;
    const kjoin::JoinResult result =
        kjoin::bench::RunKJoin(verify_poi.hierarchy, verify_prepared.objects, options);
    verify.verify_seconds = result.stats.verify_seconds;
    verify.candidates = result.stats.candidates;
    verify.results = result.stats.results;
  }
  std::printf("verify %.3fs | candidates=%lld results=%lld\n", verify.verify_seconds,
              static_cast<long long>(verify.candidates), static_cast<long long>(verify.results));

  // ---- fig14-style thread sweep ----
  // Best of 3 per thread count (scheduler noise dwarfs the signal on a
  // sub-second join); identity is checked on EVERY run, not just the best.
  std::printf("== self-join wall time vs threads (best of 3) ==\n");
  std::vector<ThreadRow> thread_rows;
  std::vector<std::pair<int32_t, int32_t>> thread_baseline;
  for (int threads : {1, 2, 8}) {
    kjoin::KJoinOptions options;
    options.delta = 0.8;
    options.tau = 0.85;
    options.num_threads = threads;
    const kjoin::KJoin join(poi.hierarchy, options);
    ThreadRow row;
    row.threads = threads;
    for (int rep = 0; rep < 3; ++rep) {
      kjoin::JoinResult result = join.SelfJoin(prepared.objects);
      if (rep == 0 || result.stats.total_seconds < row.total_seconds) {
        row.total_seconds = result.stats.total_seconds;
      }
      if (threads == 1 && rep == 0) {
        thread_baseline = std::move(result.pairs);
      } else if (result.pairs != thread_baseline) {
        row.results_identical = false;
      }
    }
    thread_rows.push_back(row);
    std::printf("threads=%d  %.3fs  identical=%s\n", threads, row.total_seconds,
                JsonBool(row.results_identical).c_str());
  }

  // ---- control-polling overhead (docs/robustness.md) ----
  // Same workload through the controlled entry point with a deadline and
  // a cancel token armed but never tripping: every shard-boundary poll
  // runs (including the steady_clock reads), no bound trips. Best-of-3
  // per variant to tame scheduler noise.
  std::printf("== control polling overhead (armed, never trips) ==\n");
  double legacy_seconds = 0.0;
  double control_seconds = 0.0;
  int64_t control_polls = 0;
  bool control_identical = false;
  {
    kjoin::KJoinOptions options;
    options.delta = 0.8;
    options.tau = 0.85;
    const kjoin::KJoin join(poi.hierarchy, options);
    std::vector<std::pair<int32_t, int32_t>> legacy_pairs;
    for (int rep = 0; rep < 3; ++rep) {
      kjoin::JoinResult result = join.SelfJoin(prepared.objects);
      if (rep == 0 || result.stats.total_seconds < legacy_seconds) {
        legacy_seconds = result.stats.total_seconds;
      }
      legacy_pairs = std::move(result.pairs);
    }
    kjoin::CancelToken token;
    kjoin::JoinControl control;
    control.deadline_seconds = 3600.0;
    control.cancel_token = &token;
    for (int rep = 0; rep < 3; ++rep) {
      kjoin::JoinResult result;
      const kjoin::Status status = join.SelfJoin(prepared.objects, control, &result);
      if (!status.ok()) {
        std::fprintf(stderr, "controlled join unexpectedly failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      if (rep == 0 || result.stats.total_seconds < control_seconds) {
        control_seconds = result.stats.total_seconds;
      }
      control_polls = result.stats.control_polls;
      control_identical = result.pairs == legacy_pairs;
    }
  }
  const double deadline_overhead_pct =
      legacy_seconds > 0.0 ? (control_seconds / legacy_seconds - 1.0) * 100.0 : 0.0;
  std::printf("legacy %.3fs | controlled %.3fs (%+.2f%%) | polls %lld | identical=%s\n",
              legacy_seconds, control_seconds, deadline_overhead_pct,
              static_cast<long long>(control_polls), JsonBool(control_identical).c_str());

  // ---- JSON report ----
  std::FILE* f = std::fopen(out->c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out->c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"kjoin-regression\",\n");
  std::fprintf(f,
               "  \"config\": {\"n\": %lld, \"verify_n\": %lld, \"micro_queries\": "
               "%lld, \"hungarian_solves\": %lld},\n",
               static_cast<long long>(*n), static_cast<long long>(*verify_n),
               static_cast<long long>(*micro_queries),
               static_cast<long long>(*hungarian_solves));
  std::fprintf(f,
               "  \"micro_lca\": {\"naive_qps\": %.1f, \"sparse_qps\": %.1f, "
               "\"nodesim_uncached_qps\": %.1f},\n",
               micro.naive_qps, micro.sparse_qps, micro.nodesim_uncached_qps);
  std::fprintf(f,
               "  \"micro_hungarian\": {\"graphs\": %lld, \"solves\": %lld, "
               "\"sparse_qps\": %.1f, \"dense_qps\": %.1f, \"sparse_speedup\": %.3f, "
               "\"scratch_growths_after_warmup\": %lld, \"results_identical\": %s},\n",
               static_cast<long long>(hungarian.graphs),
               static_cast<long long>(hungarian.solves), hungarian.sparse_qps,
               hungarian.dense_qps, hungarian.sparse_speedup,
               static_cast<long long>(hungarian.scratch_growths_after_warmup),
               JsonBool(hungarian.results_identical).c_str());
  std::fprintf(f, "  \"fig9_filter\": [");
  for (size_t i = 0; i < scheme_rows.size(); ++i) {
    const SchemeRow& row = scheme_rows[i];
    std::fprintf(f,
                 "%s\n    {\"scheme\": \"%s\", \"total_seconds\": %.4f, "
                 "\"filter_seconds\": %.4f, \"candidates\": %lld, \"results\": %lld}",
                 i == 0 ? "" : ",", row.scheme.c_str(), row.total_seconds,
                 row.filter_seconds, static_cast<long long>(row.candidates),
                 static_cast<long long>(row.results));
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f, "  \"fig10_filter_delta\": [");
  for (size_t i = 0; i < filter_delta_rows.size(); ++i) {
    const FilterDeltaRow& row = filter_delta_rows[i];
    std::fprintf(f,
                 "%s\n    {\"delta\": %.1f, \"filter_seconds\": %.4f, "
                 "\"scalar_filter_seconds\": %.4f, \"filter_speedup_vs_scalar\": %.3f, "
                 "\"total_seconds\": %.4f, \"candidates\": %lld, \"results\": %lld, "
                 "\"results_identical\": %s}",
                 i == 0 ? "" : ",", row.delta, row.filter_seconds,
                 row.scalar_filter_seconds, row.filter_speedup_vs_scalar, row.total_seconds,
                 static_cast<long long>(row.candidates), static_cast<long long>(row.results),
                 JsonBool(row.results_identical).c_str());
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f,
               "  \"fig11_verify\": {\"delta\": 0.8, \"tau\": 0.75, \"plus_mode\": true, "
               "\"n\": %lld, \"verify_seconds\": %.4f, \"candidates\": %lld, "
               "\"results\": %lld},\n",
               static_cast<long long>(*verify_n), verify.verify_seconds,
               static_cast<long long>(verify.candidates),
               static_cast<long long>(verify.results));
  std::fprintf(f, "  \"fig14_threads\": [");
  for (size_t i = 0; i < thread_rows.size(); ++i) {
    const ThreadRow& row = thread_rows[i];
    std::fprintf(f,
                 "%s\n    {\"threads\": %d, \"total_seconds\": %.4f, "
                 "\"results_identical\": %s}",
                 i == 0 ? "" : ",", row.threads, row.total_seconds,
                 JsonBool(row.results_identical).c_str());
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f,
               "  \"deadline_overhead\": {\"legacy_seconds\": %.4f, "
               "\"control_seconds\": %.4f, \"deadline_overhead_pct\": %.2f, "
               "\"control_polls\": %lld, \"results_identical\": %s}\n",
               legacy_seconds, control_seconds, deadline_overhead_pct,
               static_cast<long long>(control_polls), JsonBool(control_identical).c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out->c_str());
  return 0;
}
