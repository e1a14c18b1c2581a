#ifndef KJOIN_CORE_SIMD_H_
#define KJOIN_CORE_SIMD_H_

// Runtime-dispatched vector kernels for the filter hot path
// (docs/performance.md, "Filter engine").
//
// One kernel family, with a scalar and an AVX2 variant: the sketch
// overlap — the byte-wise min of two 16-byte count sketches, summed
// (core/verifier.h's SignatureSketch), which screens Lemma 3's count
// bound for every probed pair. The probe itself is a plain bitset
// (core/probe_set.h) with nothing to vectorise.
//
// Dispatch: every public entry point takes the kernel from
// ActiveLevel(), resolved once from CPUID — overridable by the
// KJOIN_FORCE_SCALAR=1 environment variable (scripts/check.sh --no-simd)
// and per-process by SetActiveLevelForTest, which the kernel-equivalence
// property suite uses to sweep both paths in one binary. Every variant
// returns bit-identical output for identical input; the dispatch level
// can never change join or search results.

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
// Sketch overlap: sum over i < kSketchBytes of min(a[i], b[i]), in
// [0, 16 * 255]. The scalar variant is a plain loop; the AVX2 tier runs
// an SSE2 body (a 16-byte sketch fills one 128-bit lane): _mm_min_epu8,
// then _mm_sad_epu8 against zero sums each 8-byte half.

inline constexpr int kSketchBytes = 16;

int32_t SketchMinSum(const uint8_t* a, const uint8_t* b);
int32_t SketchMinSumAt(IsaLevel level, const uint8_t* a, const uint8_t* b);

}  // namespace kjoin::simd

#endif  // KJOIN_CORE_SIMD_H_
