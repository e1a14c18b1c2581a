#ifndef KJOIN_CORE_SIMD_H_
#define KJOIN_CORE_SIMD_H_

// Runtime-dispatched vector kernels for the filter hot path
// (docs/performance.md, "Filter engine").
//
// Four kernel families, each with scalar / SSE4.2 / AVX2 variants:
//
//   * block decode — bit-unpack a delta-compressed posting block back to
//     absolute doc ids (core/posting_store.h owns the block format);
//   * sorted-set intersection — a merge kernel that compares one vector
//     of the left list against rotations of the right, and a galloping
//     variant (binary-search skips driven by the rarer list, vector
//     probes for the landing window) for skewed length ratios;
//   * count-pruning accumulator — ScanCount-style candidate generation:
//     posting lists bump a dense per-probe uint8 counter array (scalar
//     stores; gathers/scatters lose to the store buffer here) and the
//     survivors are extracted by thresholding 256-bit strides of
//     counters and reading the compare mask, clearing as it goes;
//   * sketch overlap — the byte-wise min of two 16-byte count sketches,
//     summed (core/verifier.h's SignatureSketch), which screens Lemma 3's
//     count bound for every probed pair.
//
// Dispatch: every public entry point takes the kernels from
// ActiveLevel(), resolved once from CPUID — overridable by the
// KJOIN_FORCE_SCALAR=1 environment variable (scripts/check.sh --no-simd)
// and per-process by SetActiveLevelForTest, which the kernel-equivalence
// property suite uses to sweep all three paths in one binary. Every
// variant of a kernel returns bit-identical output for identical input;
// the dispatch level can never change join or search results.

#include <cstdint>

namespace kjoin::simd {

// Instruction-set tiers, ordered. Values are stable (used in test sweeps).
enum class IsaLevel : int {
  kScalar = 0,
  kSse42 = 1,
  kAvx2 = 2,
};

const char* IsaLevelName(IsaLevel level);

// Best tier this CPU supports (ignores overrides).
IsaLevel MaxSupportedLevel();

// Tier the dispatched wrappers use: MaxSupportedLevel() capped by
// KJOIN_FORCE_SCALAR=1 (read once) and by SetActiveLevelForTest.
IsaLevel ActiveLevel();

// Test hook: force dispatch to `level` (clamped to MaxSupportedLevel so a
// sweep written for AVX2 machines degrades gracefully). Affects every
// thread; only call from single-threaded test setup.
void SetActiveLevelForTest(IsaLevel level);
// Restores CPUID + environment dispatch.
void ResetActiveLevelForTest();

// ---------------------------------------------------------------------------
// Bit-unpack + prefix-sum: decode one delta block.
//
// `words` holds `count` values packed at `bits` bits each (LSB-first,
// little-endian, starting at bit 0 of words[0]); each packed value is
// (delta - 1) against the previous doc id. Writes the absolute ids
// out[0..count): out[i] = first + sum_{j<=i} (packed[j] + 1) for i >= 0
// where out[-1] is `first`... concretely out[0] = first + packed[0] + 1.
// bits == 0 encodes a run of consecutive ids (every delta is 1).
// `count` may be 0. Safe to over-read words up to the last partial word
// only; callers (PostingStore) pad the word array.

void DecodeDeltaBlock(const uint64_t* words, int bits, int32_t count, int32_t first,
                      int32_t* out);
void DecodeDeltaBlockAt(IsaLevel level, const uint64_t* words, int bits, int32_t count,
                        int32_t first, int32_t* out);

// ---------------------------------------------------------------------------
// Sorted-set intersection. Inputs strictly ascending; output (strictly
// ascending, the common elements) must have room for min(an, bn).
// Returns the intersection size.

int32_t IntersectSorted(const int32_t* a, int32_t an, const int32_t* b, int32_t bn,
                        int32_t* out);
int32_t IntersectSortedAt(IsaLevel level, const int32_t* a, int32_t an, const int32_t* b,
                          int32_t bn, int32_t* out);

// Merge-style kernel regardless of skew (bench/bench_micro_intersect.cc
// measures the crossover against the galloping variant).
int32_t IntersectLinearAt(IsaLevel level, const int32_t* a, int32_t an, const int32_t* b,
                          int32_t bn, int32_t* out);

// Galloping: for each element of the shorter list, exponential search in
// the longer one, finished by a vector probe of the landing window.
int32_t IntersectGallopAt(IsaLevel level, const int32_t* a, int32_t an, const int32_t* b,
                          int32_t bn, int32_t* out);

// Length ratio at which IntersectSorted switches from linear to gallop.
inline constexpr int32_t kGallopRatio = 32;

// ---------------------------------------------------------------------------
// Count-pruning accumulator (ScanCount candidate generation).
//
// Counters are a dense uint8 array indexed by doc id, grouped in blocks
// of kCounterBlock; `touched` is a bitmap with one bit per block
// (bit i of touched[i / 64] covers counters [i * kCounterBlock,
// (i + 1) * kCounterBlock)). AccumulateCounts bumps counters (saturating
// at 255 — the filter only ever asks "reached threshold?") and marks
// blocks; ExtractAndClearBlock reads one block back.

inline constexpr int32_t kCounterBlock = 128;

void AccumulateCounts(const int32_t* docs, int32_t n, uint8_t* counts, uint64_t* touched);

// Appends to `out` every id in [block_begin, block_begin + len) whose
// counter >= threshold (ascending), zeroing the whole counter range.
// Returns the number of ids written. `counts` points at the counter for
// block_begin; len <= kCounterBlock; threshold in [1, 255].
int32_t ExtractAndClearBlock(uint8_t* counts, int32_t block_begin, int32_t len, int threshold,
                             int32_t* out);
int32_t ExtractAndClearBlockAt(IsaLevel level, uint8_t* counts, int32_t block_begin,
                               int32_t len, int threshold, int32_t* out);

// ---------------------------------------------------------------------------
// Sketch overlap: sum over i < kSketchBytes of min(a[i], b[i]), in
// [0, 16 * 255]. The scalar variant is a plain loop; the SSE4.2 and AVX2
// tiers share one SSE2 body (a 16-byte sketch fills one 128-bit lane):
// _mm_min_epu8, then _mm_sad_epu8 against zero sums each 8-byte half.

inline constexpr int kSketchBytes = 16;

int32_t SketchMinSum(const uint8_t* a, const uint8_t* b);
int32_t SketchMinSumAt(IsaLevel level, const uint8_t* a, const uint8_t* b);

}  // namespace kjoin::simd

#endif  // KJOIN_CORE_SIMD_H_
