#ifndef KJOIN_CORE_SIMD_H_
#define KJOIN_CORE_SIMD_H_

// Runtime-dispatched vector kernels for the filter hot path
// (docs/performance.md, "Filter engine").
//
// Two kernel families, each with a scalar and an AVX2 variant:
//
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
// property suite uses to sweep both paths in one binary. Every variant
// of a kernel returns bit-identical output for identical input; the
// dispatch level can never change join or search results.

#include <cstdint>

namespace kjoin::simd {

// Instruction-set tiers, ordered (test sweeps iterate them by value).
enum class IsaLevel : int {
  kScalar = 0,
  kAvx2 = 1,
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
// [0, 16 * 255]. The scalar variant is a plain loop; the AVX2 tier runs
// an SSE2 body (a 16-byte sketch fills one 128-bit lane): _mm_min_epu8,
// then _mm_sad_epu8 against zero sums each 8-byte half.

inline constexpr int kSketchBytes = 16;

int32_t SketchMinSum(const uint8_t* a, const uint8_t* b);
int32_t SketchMinSumAt(IsaLevel level, const uint8_t* a, const uint8_t* b);

}  // namespace kjoin::simd

#endif  // KJOIN_CORE_SIMD_H_
