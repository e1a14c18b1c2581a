// Kernel-equivalence suite for the SIMD filter engine (core/simd.h,
// core/posting_store.h). Two layers:
//
//  * property tests sweep random inputs through every IsaLevel the
//    machine supports and assert the sketch overlap kernel is
//    bit-identical to a straightforward scalar reference, and that a
//    PostingStore hands back exactly the lists it was built from;
//  * end-to-end tests run the same self-join, R-S join and index Search
//    under each forced dispatch level and assert identical result pairs
//    AND identical JoinStats counters — the dispatch level must be
//    unobservable in anything but wall-clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/kjoin.h"
#include "core/kjoin_index.h"
#include "core/posting_store.h"
#include "core/simd.h"
#include "data/benchmark_suite.h"
#include "search_helpers.h"

namespace kjoin {
namespace {

using test::SearchAll;

using simd::IsaLevel;

std::vector<IsaLevel> SupportedLevels() {
  std::vector<IsaLevel> levels;
  for (IsaLevel level : {IsaLevel::kScalar, IsaLevel::kAvx2}) {
    if (static_cast<int>(level) <= static_cast<int>(simd::MaxSupportedLevel())) {
      levels.push_back(level);
    }
  }
  return levels;
}

// Sorted, deduplicated random doc list in [0, universe).
std::vector<int32_t> RandomDocs(Rng& rng, int32_t max_len, int32_t universe) {
  const int32_t len = 1 + static_cast<int32_t>(rng.NextUint64(static_cast<uint64_t>(max_len)));
  std::set<int32_t> docs;
  while (static_cast<int32_t>(docs.size()) < len) {
    docs.insert(static_cast<int32_t>(rng.NextUint64(static_cast<uint64_t>(universe))));
  }
  return std::vector<int32_t>(docs.begin(), docs.end());
}

TEST(SimdKernelTest, SketchMinSumMatchesScalarAtEveryLevel) {
  Rng rng(75);
  for (int iter = 0; iter < 2000; ++iter) {
    uint8_t a[simd::kSketchBytes];
    uint8_t b[simd::kSketchBytes];
    // Mix small counts (the common case), saturated bytes and zeros.
    const uint64_t cap = iter % 3 == 0 ? 256 : (iter % 3 == 1 ? 4 : 1);
    for (int i = 0; i < simd::kSketchBytes; ++i) {
      a[i] = static_cast<uint8_t>(rng.NextUint64(cap));
      b[i] = static_cast<uint8_t>(rng.NextUint64(cap));
    }
    int32_t expect = 0;
    for (int i = 0; i < simd::kSketchBytes; ++i) expect += std::min(a[i], b[i]);
    for (IsaLevel level : SupportedLevels()) {
      EXPECT_EQ(simd::SketchMinSumAt(level, a, b), expect) << simd::IsaLevelName(level);
      EXPECT_EQ(simd::SketchMinSumAt(level, b, a), expect) << simd::IsaLevelName(level);
    }
  }
  uint8_t full[simd::kSketchBytes];
  std::fill(full, full + simd::kSketchBytes, uint8_t{255});
  for (IsaLevel level : SupportedLevels()) {
    EXPECT_EQ(simd::SketchMinSumAt(level, full, full), 16 * 255) << simd::IsaLevelName(level);
  }
}

// ---------------------------------------------------------------------------
// PostingStore round-trips.

TEST(PostingStoreTest, BuildDecodeRoundTrip) {
  Rng rng(74);
  for (int iter = 0; iter < 30; ++iter) {
    PostingStore::Builder builder;
    std::vector<std::pair<SigId, std::vector<int32_t>>> lists;
    SigId id = 0;
    const int num_lists = 1 + static_cast<int>(rng.NextUint64(40));
    for (int l = 0; l < num_lists; ++l) {
      id += 1 + static_cast<SigId>(rng.NextUint64(1 << 20));
      lists.emplace_back(id, RandomDocs(rng, 500, 1 << 15));
      builder.Add(id, lists.back().second.data(),
                  static_cast<int32_t>(lists.back().second.size()));
    }
    const PostingStore store = builder.Finish();
    ASSERT_EQ(store.num_lists(), num_lists);
    int64_t entries = 0;
    for (const auto& [key, docs] : lists) entries += static_cast<int64_t>(docs.size());
    EXPECT_EQ(store.num_entries(), entries);
    for (const auto& [key, docs] : lists) {
      const int32_t slot = store.Find(key);
      ASSERT_GE(slot, 0);
      ASSERT_EQ(store.length(slot), static_cast<int32_t>(docs.size()));
      const int32_t* stored = store.docs(slot);
      EXPECT_TRUE(std::equal(stored, stored + store.length(slot), docs.begin()));
    }
    EXPECT_EQ(store.Find(id + 1), -1);
    // Slots walk every list ascending with the same payloads.
    for (int32_t slot = 0; slot < store.num_lists(); ++slot) {
      const auto& [key, docs] = lists[static_cast<size_t>(slot)];
      EXPECT_EQ(store.key(slot), key);
      ASSERT_EQ(store.length(slot), static_cast<int32_t>(docs.size()));
      EXPECT_TRUE(std::equal(store.docs(slot), store.docs(slot) + store.length(slot),
                             docs.begin()));
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end dispatch invariance: pairs and JoinStats counters must be
// identical at every forced level (docs/performance.md's contract).

void ExpectSameCounters(const JoinStats& a, const JoinStats& b, const char* label) {
  EXPECT_EQ(a.total_signatures, b.total_signatures) << label;
  EXPECT_EQ(a.prefix_signatures, b.prefix_signatures) << label;
  EXPECT_EQ(a.candidates, b.candidates) << label;
  EXPECT_EQ(a.size_skipped, b.size_skipped) << label;
  EXPECT_EQ(a.count_filtered, b.count_filtered) << label;
  EXPECT_EQ(a.sketch_filtered, b.sketch_filtered) << label;
  EXPECT_LE(a.sketch_filtered, a.count_filtered) << label;
  // Tie-out: every pair the probe found was either screened out by the
  // count bound or sent to verification, exactly once.
  EXPECT_EQ(a.probe_pairs(), b.probe_pairs()) << label;
  EXPECT_EQ(a.verify.pairs_verified, a.candidates) << label;
  EXPECT_EQ(a.results, b.results) << label;
  EXPECT_EQ(a.verify.pairs_verified, b.verify.pairs_verified) << label;
  EXPECT_EQ(a.verify.pruned_by_count, b.verify.pruned_by_count) << label;
  EXPECT_EQ(a.verify.pruned_by_weighted_count, b.verify.pruned_by_weighted_count) << label;
  EXPECT_EQ(a.verify.accepted_by_lower_bound, b.verify.accepted_by_lower_bound) << label;
  EXPECT_EQ(a.verify.rejected_by_upper_bound, b.verify.rejected_by_upper_bound) << label;
  EXPECT_EQ(a.verify.hungarian_runs, b.verify.hungarian_runs) << label;
}

class SimdDispatchTest : public testing::Test {
 protected:
  void TearDown() override { simd::ResetActiveLevelForTest(); }
};

TEST_F(SimdDispatchTest, SelfJoinIdenticalAtEveryLevel) {
  const BenchmarkData data = MakeResBenchmark(/*seed=*/301);
  const PreparedObjects prepared =
      BuildObjects(data.hierarchy, data.dataset, /*multi_mapping=*/false);
  KJoinOptions options;
  options.delta = 0.8;
  options.tau = 0.7;
  const KJoin join(data.hierarchy, options);

  simd::SetActiveLevelForTest(IsaLevel::kScalar);
  const JoinResult baseline = join.SelfJoin(prepared.objects);
  EXPECT_GT(baseline.stats.results, 0);
  for (IsaLevel level : SupportedLevels()) {
    for (int threads : {1, 2, 8}) {
      simd::SetActiveLevelForTest(level);
      KJoinOptions opt = options;
      opt.num_threads = threads;
      const JoinResult got = KJoin(data.hierarchy, opt).SelfJoin(prepared.objects);
      EXPECT_EQ(got.pairs, baseline.pairs)
          << simd::IsaLevelName(level) << " threads=" << threads;
      ExpectSameCounters(got.stats, baseline.stats, simd::IsaLevelName(level));
    }
  }
}

TEST_F(SimdDispatchTest, RSJoinIdenticalAtEveryLevel) {
  const BenchmarkData data = MakePubBenchmark(/*seed=*/302);
  const PreparedObjects prepared =
      BuildObjects(data.hierarchy, data.dataset, /*multi_mapping=*/false);
  std::vector<Object> left(prepared.objects.begin(),
                           prepared.objects.begin() + prepared.objects.size() / 2);
  std::vector<Object> right(prepared.objects.begin() + prepared.objects.size() / 2,
                            prepared.objects.end());
  KJoinOptions options;
  options.delta = 0.8;
  options.tau = 0.75;
  const KJoin join(data.hierarchy, options);

  simd::SetActiveLevelForTest(IsaLevel::kScalar);
  const JoinResult baseline = join.Join(left, right);
  for (IsaLevel level : SupportedLevels()) {
    simd::SetActiveLevelForTest(level);
    const JoinResult got = join.Join(left, right);
    EXPECT_EQ(got.pairs, baseline.pairs) << simd::IsaLevelName(level);
    ExpectSameCounters(got.stats, baseline.stats, simd::IsaLevelName(level));
  }
}

TEST_F(SimdDispatchTest, IndexSearchIdenticalAtEveryLevelAndAfterInserts) {
  const BenchmarkData data = MakeResBenchmark(/*seed=*/303);
  const PreparedObjects prepared =
      BuildObjects(data.hierarchy, data.dataset, /*multi_mapping=*/false);
  KJoinOptions options;
  options.delta = 0.8;
  options.tau = 0.7;
  // Split: most objects in the flat base, the rest in a delta layer over
  // it — Search must cross both layers' stores identically.
  const auto cut = static_cast<std::ptrdiff_t>(prepared.objects.size() - 50);
  const auto base = std::make_shared<const KJoinIndex>(
      data.hierarchy, options,
      std::vector<Object>(prepared.objects.begin(), prepared.objects.begin() + cut));
  const KJoinIndex index(
      base, std::vector<Object>(prepared.objects.begin() + cut, prepared.objects.end()), {});

  std::vector<std::vector<SearchHit>> baseline;
  simd::SetActiveLevelForTest(IsaLevel::kScalar);
  for (size_t q = 0; q < 40; ++q) baseline.push_back(SearchAll(index, prepared.objects[q]));
  for (IsaLevel level : SupportedLevels()) {
    simd::SetActiveLevelForTest(level);
    for (size_t q = 0; q < 40; ++q) {
      EXPECT_EQ(SearchAll(index, prepared.objects[q]), baseline[q])
          << simd::IsaLevelName(level) << " query=" << q;
    }
  }
}

}  // namespace
}  // namespace kjoin
