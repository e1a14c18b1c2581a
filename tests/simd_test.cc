// Kernel suite for the filter hot path (core/simd.h,
// core/posting_store.h):
//
//  * the sketch overlap kernel, whichever body this build compiled,
//    equals a plain in-test loop on random, all-zero and saturated
//    input, in either argument order and at every byte offset of either
//    pointer (the kernel's loads are unaligned, and a SignatureSketch is
//    not 16-byte aligned inside its ObjectGroupPlan);
//  * a PostingStore hands back exactly the lists it was built from.
//
// Join and search results across thread counts are covered by
// ThreadingDeterminismTest and by the brute-force oracles in shard_test
// and extensions_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/posting_store.h"
#include "core/simd.h"

namespace kjoin {
namespace {

// Sorted, deduplicated random doc list in [0, universe).
std::vector<int32_t> RandomDocs(Rng& rng, int32_t max_len, int32_t universe) {
  const int32_t len = 1 + static_cast<int32_t>(rng.NextUint64(static_cast<uint64_t>(max_len)));
  std::set<int32_t> docs;
  while (static_cast<int32_t>(docs.size()) < len) {
    docs.insert(static_cast<int32_t>(rng.NextUint64(static_cast<uint64_t>(universe))));
  }
  return std::vector<int32_t>(docs.begin(), docs.end());
}

int32_t ReferenceMinSum(const uint8_t* a, const uint8_t* b) {
  int32_t sum = 0;
  for (int i = 0; i < simd::kSketchBytes; ++i) sum += std::min(a[i], b[i]);
  return sum;
}

void ExpectMinSumMatchesReference(const uint8_t* a, const uint8_t* b) {
  const int32_t expect = ReferenceMinSum(a, b);
  EXPECT_EQ(simd::SketchMinSum(a, b), expect) << simd::IsaLevelName(simd::ActiveLevel());
  EXPECT_EQ(simd::SketchMinSum(b, a), expect) << simd::IsaLevelName(simd::ActiveLevel());
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
    ExpectMinSumMatchesReference(a, b);
  }
  uint8_t zero[simd::kSketchBytes] = {};
  uint8_t full[simd::kSketchBytes];
  std::fill(full, full + simd::kSketchBytes, uint8_t{255});
  EXPECT_EQ(simd::SketchMinSum(zero, zero), 0);
  EXPECT_EQ(simd::SketchMinSum(zero, full), 0);
  EXPECT_EQ(simd::SketchMinSum(full, zero), 0);
  EXPECT_EQ(simd::SketchMinSum(full, full), 16 * 255);

  // Both pointers at every byte offset 0-15 inside larger buffers of
  // random bytes, so a load that strayed outside its 16-byte window
  // would change the sum.
  alignas(16) uint8_t buffer_a[2 * simd::kSketchBytes + 16];
  alignas(16) uint8_t buffer_b[2 * simd::kSketchBytes + 16];
  for (uint8_t& byte : buffer_a) byte = static_cast<uint8_t>(rng.NextUint64(256));
  for (uint8_t& byte : buffer_b) byte = static_cast<uint8_t>(rng.NextUint64(256));
  for (int offset_a = 0; offset_a < 16; ++offset_a) {
    for (int offset_b = 0; offset_b < 16; ++offset_b) {
      ExpectMinSumMatchesReference(buffer_a + offset_a, buffer_b + offset_b);
    }
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

}  // namespace
}  // namespace kjoin
