#ifndef KJOIN_CORE_SIMD_H_
#define KJOIN_CORE_SIMD_H_

// The filter hot path's one vector kernel (docs/performance.md,
// "Filter engine"): the sketch overlap — the byte-wise min of two
// 16-byte count sketches, summed (core/verifier.h's SignatureSketch),
// which screens Lemma 3's count bound for every probed pair in pure
// mode. The probe itself is a plain bitset (core/probe_set.h) with
// nothing to vectorise.
//
// The body is chosen at compile time: an SSE2 target (every x86-64
// build) gets _mm_min_epu8 + _mm_sad_epu8, any other target a plain
// loop. Both return the same sum, so the build can never change join or
// search results.

#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#else
#include <algorithm>
#endif

namespace kjoin::simd {

// The body this build compiled, for reports (perfbench's host.isa).
enum class IsaLevel : int {
  kScalar = 0,
  kSse2 = 1,
};

constexpr const char* IsaLevelName(IsaLevel level) {
  return level == IsaLevel::kSse2 ? "sse2" : "scalar";
}

constexpr IsaLevel ActiveLevel() {
#if defined(__SSE2__)
  return IsaLevel::kSse2;
#else
  return IsaLevel::kScalar;
#endif
}

inline constexpr int kSketchBytes = 16;

// Sum over i < kSketchBytes of min(a[i], b[i]), in [0, 16 * 255]. Neither
// pointer needs any alignment. The SSE2 body fills one 128-bit lane:
// _mm_sad_epu8 against zero sums each 8-byte half of the byte-wise min
// into the low bits of its 64-bit lane.
inline int32_t SketchMinSum(const uint8_t* a, const uint8_t* b) {
#if defined(__SSE2__)
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  const __m128i halves = _mm_sad_epu8(_mm_min_epu8(va, vb), _mm_setzero_si128());
  return _mm_cvtsi128_si32(halves) + _mm_cvtsi128_si32(_mm_unpackhi_epi64(halves, halves));
#else
  int32_t sum = 0;
  for (int i = 0; i < kSketchBytes; ++i) sum += std::min(a[i], b[i]);
  return sum;
#endif
}

}  // namespace kjoin::simd

#endif  // KJOIN_CORE_SIMD_H_
