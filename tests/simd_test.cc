// Kernel suite for the filter hot path (core/simd.h,
// core/posting_store.h):
//
//  * the sketch overlap kernel, whichever body this build compiled,
//    equals a plain in-test loop on random, all-zero and saturated
//    input, in either argument order and at every byte offset of either
//    pointer (the kernel's loads are unaligned, and a SignatureSketch is
//    not 16-byte aligned inside its ObjectGroupPlan);
//  * PostingStore::Build hands back each list in exactly the order its
//    entries were emitted.
//
// Join and search results across thread counts are covered by
// ThreadingDeterminismTest and by the brute-force oracles in shard_test
// and extensions_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/posting_store.h"
#include "core/simd.h"

namespace kjoin {
namespace {

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
// PostingStore::Build, the one CSR build.

TEST(PostingStoreTest, BuildKeepsEmittedOrder) {
  Rng rng(74);
  for (int iter = 0; iter < 30; ++iter) {
    // Entries in random caller order: docs unsorted and repeating, every
    // third slot left empty, and some rounds with no slot or no entry.
    const auto num_slots = static_cast<int32_t>(rng.NextUint64(40));
    const int num_draws =
        (num_slots == 0 || iter % 5 == 0) ? 0 : static_cast<int>(rng.NextUint64(2000));
    std::vector<std::pair<int32_t, int32_t>> entries;
    std::vector<std::vector<int32_t>> expected(static_cast<size_t>(num_slots));
    for (int e = 0; e < num_draws; ++e) {
      const auto slot = static_cast<int32_t>(rng.NextUint64(static_cast<uint64_t>(num_slots)));
      if (slot % 3 == 1) continue;
      const auto doc = static_cast<int32_t>(rng.NextUint64(1 << 15));
      entries.emplace_back(slot, doc);
      expected[static_cast<size_t>(slot)].push_back(doc);
    }
    const PostingStore built = PostingStore::Build(num_slots, [&](auto&& emit) {
      for (const auto& [slot, doc] : entries) emit(slot, doc);
    });
    // Adopting the built arrays yields the same store.
    const PostingStore adopted = PostingStore::Adopt(built.offsets(), built.all_docs());
    for (const PostingStore* store : {&built, &adopted}) {
      ASSERT_EQ(store->num_slots(), num_slots);
      EXPECT_EQ(store->num_entries(), static_cast<int64_t>(entries.size()));
      for (int32_t slot = 0; slot < num_slots; ++slot) {
        const std::vector<int32_t>& list = expected[static_cast<size_t>(slot)];
        ASSERT_EQ(store->length(slot), static_cast<int32_t>(list.size())) << "slot " << slot;
        ASSERT_EQ(store->docs_end(slot) - store->docs(slot), store->length(slot));
        EXPECT_TRUE(std::equal(list.begin(), list.end(), store->docs(slot))) << "slot " << slot;
      }
    }
  }
}

}  // namespace
}  // namespace kjoin
