// Knowledge-aware similarity search: index a POI directory once, answer
// point queries with KJoinIndex (threshold search and top-k), and persist
// the dataset + hierarchy to disk with the text IO.
//
//   ./similarity_search [--n 5000] [--queries 5] [--delta 0.8] [--tau 0.6]
//   ./similarity_search --save-snapshot poi.snap     # persist the built index
//   ./similarity_search --load-snapshot poi.snap     # skip the rebuild

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/flags.h"
#include "common/timer.h"
#include "core/kjoin_index.h"
#include "core/topk_join.h"
#include "data/benchmark_suite.h"
#include "data/dataset_io.h"
#include "hierarchy/hierarchy_io.h"
#include "serve/snapshot.h"

int main(int argc, char** argv) {
  kjoin::FlagSet flags("similarity_search");
  int64_t* n = flags.Int("n", 5000, "indexed POI records");
  int64_t* queries = flags.Int("queries", 5, "number of sample queries");
  double* delta = flags.Double("delta", 0.8, "element similarity threshold");
  double* tau = flags.Double("tau", 0.6, "object similarity threshold");
  std::string* dump = flags.String("dump", "", "directory to dump hierarchy/dataset to");
  std::string* save_snapshot =
      flags.String("save-snapshot", "", "write a binary index snapshot here after building");
  std::string* load_snapshot =
      flags.String("load-snapshot", "", "serve from this snapshot instead of rebuilding");
  if (!flags.Parse(argc, argv)) return 1;

  const kjoin::BenchmarkData data = kjoin::MakePoiBenchmark(*n, /*seed=*/51);
  const kjoin::PreparedObjects prepared =
      kjoin::BuildObjects(data.hierarchy, data.dataset, /*multi_mapping=*/true, *delta);

  if (!dump->empty()) {
    const std::string tree_path = *dump + "/hierarchy.txt";
    const std::string data_path = *dump + "/poi.tsv";
    if (kjoin::WriteHierarchyFile(data.hierarchy, tree_path).ok() &&
        kjoin::WriteDatasetFile(data.dataset, data_path).ok()) {
      std::printf("dumped %s and %s\n", tree_path.c_str(), data_path.c_str());
    }
  }

  kjoin::KJoinOptions options;
  options.delta = *delta;
  options.tau = *tau;
  options.plus_mode = true;

  // The index either comes back from a snapshot (no tokenize, no
  // signature generation, no LCA build) or is built from the prepared
  // objects; queries must use the matching token interner either way.
  std::optional<kjoin::KJoinIndex> built;
  std::optional<kjoin::serve::LoadedIndex> loaded;
  kjoin::serve::QueryPipeline pipeline;
  const kjoin::KJoinIndex* index = nullptr;
  kjoin::ObjectBuilder* query_builder = prepared.builder.get();
  if (!load_snapshot->empty()) {
    kjoin::WallTimer timer;
    auto result = kjoin::serve::LoadIndexSnapshot(*load_snapshot);
    if (!result.ok()) {
      std::fprintf(stderr, "cannot load snapshot: %s\n", result.status().ToString().c_str());
      return 1;
    }
    loaded.emplace(std::move(*result));
    std::printf("loaded snapshot %s (%llu bytes) in %.3fs\n", load_snapshot->c_str(),
                static_cast<unsigned long long>(loaded->file_bytes), timer.ElapsedSeconds());
    pipeline = kjoin::serve::MakeQueryPipeline(*loaded);
    query_builder = pipeline.builder.get();
    index = loaded->index.get();
  } else {
    kjoin::WallTimer timer;
    built.emplace(data.hierarchy, options, prepared.objects);
    std::printf("built index in %.3fs\n", timer.ElapsedSeconds());
    index = &*built;
    if (!save_snapshot->empty()) {
      kjoin::serve::SnapshotInput input;
      input.index = index;
      input.tokens = prepared.builder->TokenTable();
      input.synonyms = data.dataset.synonyms;
      const kjoin::Status saved = kjoin::serve::SaveIndexSnapshot(input, *save_snapshot);
      if (!saved.ok()) {
        std::fprintf(stderr, "snapshot save failed: %s\n", saved.ToString().c_str());
        return 1;
      }
      std::printf("saved snapshot to %s\n", save_snapshot->c_str());
    }
  }
  std::printf("indexed %lld POI records\n\n", static_cast<long long>(index->num_indexed()));

  // Query with perturbed copies of indexed records: each should retrieve
  // its original.
  for (int64_t q = 0; q < *queries; ++q) {
    const int32_t target = static_cast<int32_t>(q * 97 % *n);
    std::vector<std::string> tokens = data.dataset.records[target].tokens;
    if (!tokens.empty()) tokens.pop_back();  // drop one token
    kjoin::Object query = query_builder->Build(-1, tokens);

    std::string text;
    for (const auto& t : tokens) text += t + " ";
    std::printf("query: %s\n", text.c_str());
    // A loaded snapshot may have been built at a different tau; top-k
    // cannot search below the index's configured threshold.
    std::vector<kjoin::SearchHit> hits;
    kjoin::SearchStats stats;
    const kjoin::Status status = index->SearchTopK(
        query, 3, std::max(*tau, index->options().tau), kjoin::JoinControl{}, &hits, &stats);
    if (!status.ok()) {
      std::printf("  search failed: %s\n", status.ToString().c_str());
      continue;
    }
    std::printf("  %lld candidates -> %zu hits\n", static_cast<long long>(stats.candidates),
                hits.size());
    for (const kjoin::SearchHit& hit : hits) {
      std::string hit_text;
      for (const auto& t : data.dataset.records[hit.object_index].tokens) {
        hit_text += t + " ";
      }
      std::printf("  #%-6d SIM=%.3f  %s\n", hit.object_index, hit.similarity,
                  hit_text.c_str());
    }
    std::printf("\n");
  }

  // Bonus: the k most similar record pairs overall, no τ needed.
  kjoin::TopKOptions topk_options;
  topk_options.join = options;
  const kjoin::TopKJoin topk(data.hierarchy, topk_options);
  const kjoin::TopKResult best = topk.SelfJoinTopK(prepared.objects, 3);
  std::printf("top-3 most similar pairs overall (found at tau=%.2f, %d rounds):\n",
              best.final_tau, best.rounds);
  for (const kjoin::ScoredPair& pair : best.pairs) {
    std::printf("  #%d ~ #%d  SIM=%.3f\n", pair.first, pair.second, pair.similarity);
  }
  return 0;
}
