// kjoin_cli — end-to-end command-line driver.
//
// Loads a knowledge hierarchy and a dataset from disk (or generates a POI
// workload when none is given), runs a knowledge-aware self join, and
// writes the similar pairs as TSV. If the dataset carries ground-truth
// clusters, quality is reported.
//
//   ./kjoin_cli --hierarchy tree.txt --dataset records.tsv
//               --delta 0.8 --tau 0.7 --plus --out pairs.tsv
//   ./kjoin_cli --generate 10000 --out pairs.tsv
//   ./kjoin_cli --generate 10000 --save-snapshot poi.snap   # persist the index
//   ./kjoin_cli --load-snapshot poi.snap --out pairs.tsv    # skip parsing/building

#include <cstdio>
#include <fstream>

#include "common/flags.h"
#include "core/clustering.h"
#include "core/kjoin.h"
#include "core/kjoin_index.h"
#include "data/benchmark_suite.h"
#include "data/dataset_io.h"
#include "data/quality.h"
#include "hierarchy/hierarchy_io.h"
#include "serve/snapshot.h"

int main(int argc, char** argv) {
  kjoin::FlagSet flags("kjoin_cli");
  std::string* hierarchy_path = flags.String("hierarchy", "", "hierarchy file (see README)");
  std::string* dataset_path = flags.String("dataset", "", "dataset file (see README)");
  int64_t* generate = flags.Int("generate", 0, "generate a POI workload of this size instead");
  double* delta = flags.Double("delta", 0.8, "element similarity threshold");
  double* tau = flags.Double("tau", 0.7, "object similarity threshold");
  bool* plus = flags.Bool("plus", true, "K-Join+ (synonyms + typo tolerance)");
  int64_t* threads = flags.Int("threads", 1, "verification threads");
  double* deadline = flags.Double("deadline", 0.0, "join wall-clock budget in seconds (0 = none)");
  std::string* out = flags.String("out", "", "write pairs TSV here (default: stdout summary only)");
  bool* cluster = flags.Bool("cluster", false, "also report entity clusters");
  std::string* save_snapshot = flags.String(
      "save-snapshot", "", "also build a search index over the records and snapshot it here");
  std::string* load_snapshot = flags.String(
      "load-snapshot", "", "take hierarchy + objects from this snapshot (skips text parsing)");
  if (!flags.Parse(argc, argv)) return 1;
  // Out-of-range values are input errors here, not the library CHECKs
  // they would otherwise trip.
  const char* bad_flag = nullptr;
  if (*threads < 1) {
    bad_flag = "--threads must be >= 1";
  } else if (!(*delta > 0.0 && *delta <= 1.0)) {
    bad_flag = "--delta must be in (0, 1]";
  } else if (!(*tau >= 0.0 && *tau <= 1.0)) {
    bad_flag = "--tau must be in [0, 1]";
  }
  if (bad_flag != nullptr) {
    std::fprintf(stderr, "%s\n%s", bad_flag, flags.Usage().c_str());
    return 1;
  }

  // --- load or generate the workload --------------------------------------
  std::optional<kjoin::Hierarchy> hierarchy;
  std::optional<kjoin::Dataset> dataset;
  std::optional<kjoin::serve::LoadedIndex> loaded;
  if (!load_snapshot->empty()) {
    auto result = kjoin::serve::LoadIndexSnapshot(*load_snapshot);
    if (!result.ok()) {
      std::fprintf(stderr, "cannot load snapshot: %s\n", result.status().ToString().c_str());
      return 1;
    }
    loaded.emplace(std::move(*result));
  } else if (*generate > 0) {
    kjoin::BenchmarkData data = kjoin::MakePoiBenchmark(*generate);
    hierarchy.emplace(std::move(data.hierarchy));
    dataset.emplace(std::move(data.dataset));
  } else {
    if (hierarchy_path->empty() || dataset_path->empty()) {
      std::fprintf(stderr, "need --hierarchy and --dataset (or --generate N)\n%s",
                   flags.Usage().c_str());
      return 1;
    }
    kjoin::StatusOr<kjoin::Hierarchy> tree = kjoin::ReadHierarchyFile(*hierarchy_path);
    if (!tree.ok()) {
      std::fprintf(stderr, "cannot load hierarchy: %s\n", tree.status().ToString().c_str());
      return 1;
    }
    hierarchy.emplace(std::move(*tree));
    kjoin::StatusOr<kjoin::Dataset> records = kjoin::ReadDatasetFile(*dataset_path);
    if (!records.ok()) {
      std::fprintf(stderr, "cannot load dataset: %s\n", records.status().ToString().c_str());
      return 1;
    }
    dataset.emplace(std::move(*records));
  }
  const kjoin::Hierarchy* tree = loaded ? loaded->hierarchy.get() : &*hierarchy;

  // --- join ----------------------------------------------------------------
  kjoin::PreparedObjects prepared;
  if (!loaded) prepared = kjoin::BuildObjects(*tree, *dataset, *plus, *delta);
  const std::vector<kjoin::Object>& objects =
      loaded ? loaded->index->objects() : prepared.objects;
  std::fprintf(stderr, "hierarchy: %lld nodes; %zu records (%s)\n",
               static_cast<long long>(tree->num_nodes()), objects.size(),
               loaded ? "from snapshot" : "from text");
  kjoin::KJoinOptions options;
  options.delta = *delta;
  options.tau = *tau;
  options.plus_mode = *plus;
  options.num_threads = static_cast<int>(*threads);
  const kjoin::KJoin join(*tree, options);
  kjoin::JoinControl control;
  control.deadline_seconds = *deadline;
  kjoin::JoinResult result;
  const kjoin::Status status = join.SelfJoin(objects, control, &result);
  if (!status.ok()) {
    std::fprintf(stderr, "join stopped in %s phase: %s (keeping %zu partial pairs)\n",
                 kjoin::JoinPhaseName(result.stats.stopped_phase),
                 status.ToString().c_str(), result.pairs.size());
  }

  std::fprintf(stderr,
               "join: %lld candidates -> %zu pairs in %.3fs "
               "(signatures %.3fs, filter %.3fs, verify %.3fs)\n"
               "probe bounds: %lld posting entries size-skipped, %lld count-filtered "
               "(%lld by sketch) before verification\n",
               static_cast<long long>(result.stats.candidates), result.pairs.size(),
               result.stats.total_seconds, result.stats.signature_seconds,
               result.stats.filter_seconds, result.stats.verify_seconds,
               static_cast<long long>(result.stats.size_skipped),
               static_cast<long long>(result.stats.count_filtered),
               static_cast<long long>(result.stats.sketch_filtered));

  // --- outputs ---------------------------------------------------------
  if (!out->empty()) {
    std::ofstream file(*out);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out->c_str());
      return 1;
    }
    file << "# left_id\tright_id\tsimilarity\n";
    for (const auto& [a, b] : result.pairs) {
      file << a << "\t" << b << "\t" << join.ExactSimilarity(objects[a], objects[b]) << "\n";
    }
    std::fprintf(stderr, "wrote %zu pairs to %s\n", result.pairs.size(), out->c_str());
  }

  if (!save_snapshot->empty()) {
    // The search index shares the join's thresholds, so a server loading
    // the snapshot answers queries consistent with these pairs.
    kjoin::serve::SnapshotInput input;
    std::optional<kjoin::KJoinIndex> index;
    if (loaded) {
      input.index = loaded->index.get();
      input.tokens = loaded->tokens;
      input.synonyms = loaded->synonyms;
    } else {
      index.emplace(*tree, options, objects);
      input.index = &*index;
      input.tokens = prepared.builder->TokenTable();
      input.synonyms = dataset->synonyms;
    }
    const kjoin::Status saved = kjoin::serve::SaveIndexSnapshot(input, *save_snapshot);
    if (!saved.ok()) {
      std::fprintf(stderr, "snapshot save failed: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "saved index snapshot to %s\n", save_snapshot->c_str());
  }

  // Ground truth travels with the text dataset only; a snapshot carries
  // objects, not cluster labels.
  bool have_truth = false;
  if (dataset) {
    for (const kjoin::Record& record : dataset->records) have_truth |= record.cluster >= 0;
  }
  if (have_truth) {
    const kjoin::QualityReport quality =
        kjoin::EvaluateQuality(result.pairs, kjoin::GroundTruthPairs(*dataset));
    std::fprintf(stderr, "quality vs ground truth: P %.3f  R %.3f  F %.3f\n",
                 quality.precision, quality.recall, quality.f_measure);
  }
  if (*cluster) {
    const kjoin::Clustering clustering =
        kjoin::ClusterPairs(static_cast<int64_t>(objects.size()), result.pairs);
    std::fprintf(stderr, "entity clusters: %d (from %zu records)\n", clustering.num_clusters,
                 objects.size());
  }
  return 0;
}
