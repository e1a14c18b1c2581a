// Tests for the element-pair similarity cache (src/core/sim_cache.h):
// key canonicalization, hit/miss accounting, bit-exactness of cached
// values vs recomputation, eviction under tiny capacity, thread-local L1
// ownership switching between caches, the zero-vacant L2 encoding and its
// lazily faulted slot pages, and a multi-threaded hammer (the tsan/asan
// target).

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <memory>
#include <string>
#include <thread>
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
  // No key may be all-ones: that is the L1 vacancy, and its L2 tag ~key
  // would be the vacant zero.
  constexpr int32_t kMaxId = 0x7fffffff;
  EXPECT_NE(SimCache::TokenKey(kMaxId, kMaxId), ~uint64_t{0});
}

TEST(SimCacheTest, KeyZeroMissesThenHitsBitIdentical) {
  // TokenKey(0, 0) == 0 is a real key, and an L2 slot is vacant at zero:
  // the cache must tell the two apart in both directions.
  SimCache cache(1 << 10);
  const uint64_t key = SimCache::TokenKey(0, 0);
  ASSERT_EQ(key, 0u);
  const double value = std::bit_cast<double>(uint64_t{0x3fd5555555555555});  // ~1/3
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return value;
  };
  EXPECT_EQ(std::bit_cast<uint64_t>(cache.GetOrCompute(key, compute)),
            std::bit_cast<uint64_t>(value));
  EXPECT_EQ(std::bit_cast<uint64_t>(cache.GetOrCompute(key, compute)),
            std::bit_cast<uint64_t>(value));  // L1
  // A new thread starts with an empty L1, so its lookup reaches L2.
  double from_l2 = 0.0;
  std::thread([&] { from_l2 = cache.GetOrCompute(key, compute); }).join();
  EXPECT_EQ(std::bit_cast<uint64_t>(from_l2), std::bit_cast<uint64_t>(value));
  EXPECT_EQ(computes, 1);
  const SimCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.l1_hits, 1);
  EXPECT_EQ(stats.l2_hits, 1);
}

TEST(SimCacheTest, ReplacedL2SlotNeverAnswersForTheEvictedKey) {
  // More keys than the smallest table holds: inserts replace occupied
  // slots. A second thread (empty L1) then reads every key from L2; each
  // must come back with its own value or be recomputed, never with the
  // value of a key that held the slot before.
  SimCache cache(1);
  const int32_t keys = static_cast<int32_t>(cache.capacity()) * 3 / 2;
  // Token ids below 2^20 keep keys below 2^53: exact, distinct doubles.
  auto value_of = [](uint64_t key) { return static_cast<double>(key); };
  for (int32_t i = 0; i < keys; ++i) {
    const uint64_t key = SimCache::TokenKey(i, i + 7);
    ASSERT_EQ(cache.GetOrCompute(key, [&] { return value_of(key); }), value_of(key));
  }
  const SimCacheStats before = cache.stats();
  int64_t wrong = 0;
  std::thread([&] {
    for (int32_t i = 0; i < keys; ++i) {
      const uint64_t key = SimCache::TokenKey(i, i + 7);
      wrong += cache.GetOrCompute(key, [&] { return value_of(key); }) != value_of(key);
    }
  }).join();
  EXPECT_EQ(wrong, 0);
  const SimCacheStats after = cache.stats();
  EXPECT_EQ(after.l1_hits, before.l1_hits);
  EXPECT_GT(after.l2_hits, before.l2_hits);
  EXPECT_GT(after.misses, before.misses);  // evicted keys recompute
}

TEST(SimCacheTest, LargeCacheFaultsInOnlyTouchedPages) {
  // The L2 slots are anonymous zero pages that mean "vacant": building a
  // 2^24-slot cache writes none of them, and each insert faults in at
  // most its own page.
  const int64_t page = sysconf(_SC_PAGESIZE);
  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  int64_t table_pages = 0;
  {
    SimCache cache(int64_t{1} << 24);
    table_pages = cache.capacity() * 2 * static_cast<int64_t>(sizeof(uint64_t)) / page;
    for (int32_t i = 0; i < 1000; ++i) {
      const uint64_t key = SimCache::TokenKey(i, 2 * i + 1);
      ASSERT_EQ(cache.GetOrCompute(key, [&] { return 0.5; }), 0.5);
    }
  }
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  EXPECT_LT(after.ru_minflt - before.ru_minflt, table_pages / 4)
      << "of a " << table_pages << "-page table";
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
