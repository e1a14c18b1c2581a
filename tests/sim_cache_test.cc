// Tests for the element-pair similarity cache (src/core/sim_cache.h):
// key canonicalization, hit/miss accounting, bit-exactness of cached
// values vs recomputation, eviction under tiny capacity, thread-local L1
// ownership switching between caches, and a multi-threaded hammer (the
// tsan/asan target).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/element.h"
#include "core/element_similarity.h"
#include "core/sim_cache.h"
#include "hierarchy/hierarchy_generator.h"
#include "hierarchy/lca.h"

namespace kjoin {
namespace {

Hierarchy MakeTree(int num_nodes, uint64_t seed) {
  HierarchyGenParams params;
  params.num_nodes = num_nodes;
  params.height = 6;
  params.avg_fanout = 5.0;
  params.max_fanout = 12;
  params.seed = seed;
  return GenerateHierarchy(params);
}

// A deterministic stand-in for Sim so tests can verify the cache returns
// exactly what the compute function would.
double Oracle(int32_t x, int32_t y, double salt) {
  const uint64_t key = SimCache::TokenKey(x, y);
  return static_cast<double>(key % 9973) / 9973.0 + salt;
}

// One pure K-Join element per node: a single φ = 1 mapping, token id =
// node id (a distinct token per node, as ObjectBuilder interning gives).
std::vector<Element> NodeElements(const Hierarchy& tree) {
  std::vector<Element> elements(static_cast<size_t>(tree.num_nodes()));
  for (NodeId v = 0; v < tree.num_nodes(); ++v) {
    Element& e = elements[static_cast<size_t>(v)];
    e.token = "n" + std::to_string(v);
    e.token_id = v;
    e.mappings.push_back({v, 1.0});
  }
  return elements;
}

TEST(SimCacheTest, KeyIsSymmetricAndCanonical) {
  EXPECT_EQ(SimCache::TokenKey(3, 7), SimCache::TokenKey(7, 3));
  EXPECT_EQ(SimCache::TokenKey(0, 0), 0u);
  EXPECT_NE(SimCache::TokenKey(1, 2), SimCache::TokenKey(2, 3));
  // min in the high half, max in the low half.
  EXPECT_EQ(SimCache::TokenKey(5, 9), (uint64_t{5} << 32) | 9);
  // No key may equal the vacant-slot sentinel (all-ones).
  constexpr int32_t kMaxId = 0x7fffffff;
  EXPECT_NE(SimCache::TokenKey(kMaxId, kMaxId), ~uint64_t{0});
}

TEST(SimCacheTest, RepeatLookupHitsWithoutRecompute) {
  SimCache cache(1 << 12);
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return 0.25;
  };
  EXPECT_EQ(cache.GetOrCompute(SimCache::TokenKey(3, 7), compute), 0.25);
  EXPECT_EQ(cache.GetOrCompute(SimCache::TokenKey(7, 3), compute), 0.25);  // symmetric
  EXPECT_EQ(cache.GetOrCompute(SimCache::TokenKey(3, 7), compute), 0.25);
  EXPECT_EQ(computes, 1);
  const SimCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits(), 2);
  EXPECT_EQ(stats.lookups(), 3);
  EXPECT_GT(stats.HitRate(), 0.5);
}

TEST(SimCacheTest, CachedNodeSimBitIdenticalToUncached) {
  // Single-node elements reach the cache through their token-id pair;
  // the memoized Sim must be the exact NodeSim double.
  const Hierarchy tree = MakeTree(800, 3);
  const LcaIndex lca(tree);
  SimCache cache(1 << 14);
  const ElementSimilarity cached(lca, ElementMetric::kKJoin, &cache);
  const ElementSimilarity plain(lca, ElementMetric::kKJoin);
  const std::vector<Element> elements = NodeElements(tree);
  Rng rng(17);
  for (int trial = 0; trial < 20000; ++trial) {
    const NodeId x = static_cast<NodeId>(rng.NextUint64(tree.num_nodes()));
    const NodeId y = static_cast<NodeId>(rng.NextUint64(tree.num_nodes()));
    // Exact double equality: a hit must be indistinguishable from a
    // recompute, or joins would not be byte-identical with the cache on.
    ASSERT_EQ(cached.Sim(elements[x], elements[y]), plain.NodeSim(x, y))
        << x << " vs " << y;
  }
  EXPECT_GT(cache.stats().hits(), 0);
}

TEST(SimCacheTest, TinyCapacityEvictsButStaysCorrect) {
  SimCache cache(1);  // rounds up to the minimum stripe layout
  EXPECT_GE(cache.capacity(), 1);
  Rng rng(23);
  for (int trial = 0; trial < 100000; ++trial) {
    const int32_t x = static_cast<int32_t>(rng.NextUint64(5000));
    const int32_t y = static_cast<int32_t>(rng.NextUint64(5000));
    const double expected = Oracle(x, y, 0.0);
    ASSERT_EQ(cache.GetOrCompute(SimCache::TokenKey(x, y), [&] { return expected; }),
              expected);
  }
  const SimCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups(), 100000);
  EXPECT_GT(stats.misses, 0);  // far more keys than slots: must evict
}

TEST(SimCacheTest, OwnershipSwitchBetweenCachesNeverCrossContaminates) {
  // Alternating between two caches on one thread invalidates the
  // thread-local L1 each time; values from one cache must never leak into
  // lookups on the other (they memoize different functions here).
  SimCache a(1 << 10);
  SimCache b(1 << 10);
  for (int i = 0; i < 2000; ++i) {
    const int32_t x = i % 37;
    const int32_t y = i % 53;
    const double expect_a = Oracle(x, y, 1.0);
    const double expect_b = Oracle(x, y, 2.0);
    ASSERT_EQ(a.GetOrCompute(SimCache::TokenKey(x, y), [&] { return expect_a; }), expect_a);
    ASSERT_EQ(b.GetOrCompute(SimCache::TokenKey(x, y), [&] { return expect_b; }), expect_b);
  }
}

TEST(SimCacheTest, RecreatedCacheDoesNotReviveStaleEntries) {
  // A fresh cache may be allocated at a destroyed cache's address; the
  // process-unique id must keep old thread-local L1 entries dead.
  for (int round = 0; round < 8; ++round) {
    auto cache = std::make_unique<SimCache>(1 << 10);
    const double salt = static_cast<double>(round);
    for (int i = 0; i < 256; ++i) {
      const int32_t x = i;
      const int32_t y = i + 1;
      const double expected = Oracle(x, y, salt);
      ASSERT_EQ(cache->GetOrCompute(SimCache::TokenKey(x, y), [&] { return expected; }),
                expected)
          << "round " << round << " entry " << i;
    }
  }
}

TEST(SimCacheTest, MultiThreadedHammerIsExact) {
  const Hierarchy tree = MakeTree(500, 9);
  const LcaIndex lca(tree);
  // Small capacity: forces eviction and stripe contention under load.
  SimCache cache(1 << 10);
  const ElementSimilarity cached(lca, ElementMetric::kKJoin, &cache);
  const ElementSimilarity plain(lca, ElementMetric::kKJoin);
  const std::vector<Element> elements = NodeElements(tree);

  ThreadPool pool(8);
  std::atomic<int64_t> mismatches{0};
  pool.ParallelFor(8, 8, [&](int shard, int64_t, int64_t) {
    Rng rng(100 + static_cast<uint64_t>(shard));
    for (int trial = 0; trial < 20000; ++trial) {
      const NodeId x = static_cast<NodeId>(rng.NextUint64(tree.num_nodes()));
      const NodeId y = static_cast<NodeId>(rng.NextUint64(tree.num_nodes()));
      if (cached.Sim(elements[x], elements[y]) != plain.NodeSim(x, y)) {
        mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  const SimCacheStats stats = cache.stats();
  EXPECT_GT(stats.lookups(), 0);
  EXPECT_EQ(stats.lookups(), stats.hits() + stats.misses);
}

}  // namespace
}  // namespace kjoin
