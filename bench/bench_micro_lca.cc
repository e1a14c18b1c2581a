// Microbenchmark: LCA queries — the paper's O(depth) bottom-up walk vs
// the Euler-tour + sparse-table index (O(1)), plus element similarity.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/element_similarity.h"
#include "hierarchy/hierarchy_generator.h"
#include "hierarchy/lca.h"

namespace {

const kjoin::Hierarchy& Tree() {
  static const kjoin::Hierarchy* const tree =
      new kjoin::Hierarchy(kjoin::GenerateHierarchy(kjoin::HierarchyGenParams{}));
  return *tree;
}

std::vector<std::pair<kjoin::NodeId, kjoin::NodeId>> RandomPairs(int count) {
  kjoin::Rng rng(7);
  std::vector<std::pair<kjoin::NodeId, kjoin::NodeId>> pairs;
  pairs.reserve(count);
  for (int i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<kjoin::NodeId>(rng.NextUint64(Tree().num_nodes())),
                       static_cast<kjoin::NodeId>(rng.NextUint64(Tree().num_nodes())));
  }
  return pairs;
}

void BM_LcaNaive(benchmark::State& state) {
  const auto pairs = RandomPairs(1024);
  size_t i = 0;
  for (auto _ : state) {
    const auto& [x, y] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(Tree().LowestCommonAncestorNaive(x, y));
  }
}
BENCHMARK(BM_LcaNaive);

void BM_LcaSparseTable(benchmark::State& state) {
  static const kjoin::LcaIndex* const index = new kjoin::LcaIndex(Tree());
  const auto pairs = RandomPairs(1024);
  size_t i = 0;
  for (auto _ : state) {
    const auto& [x, y] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(index->Lca(x, y));
  }
}
BENCHMARK(BM_LcaSparseTable);

void BM_LcaIndexBuild(benchmark::State& state) {
  for (auto _ : state) {
    kjoin::LcaIndex index(Tree());
    benchmark::DoNotOptimize(&index);
  }
}
BENCHMARK(BM_LcaIndexBuild);

void BM_ElementNodeSim(benchmark::State& state) {
  static const kjoin::LcaIndex* const index = new kjoin::LcaIndex(Tree());
  static const kjoin::ElementSimilarity* const esim = new kjoin::ElementSimilarity(*index);
  const auto pairs = RandomPairs(1024);
  size_t i = 0;
  for (auto _ : state) {
    const auto& [x, y] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(esim->NodeSim(x, y));
  }
}
BENCHMARK(BM_ElementNodeSim);

}  // namespace

BENCHMARK_MAIN();
