#include "core/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#define KJOIN_SIMD_X86 1
#include <immintrin.h>
#else
#define KJOIN_SIMD_X86 0
#endif

namespace kjoin::simd {
namespace {

// Dispatch state: -1 = unresolved, otherwise an IsaLevel. Resolution is
// idempotent (CPUID + one getenv), so a racy double-resolve is harmless.
std::atomic<int> g_active_level{-1};

IsaLevel ResolveLevel() {
  const char* force = std::getenv("KJOIN_FORCE_SCALAR");
  if (force != nullptr && force[0] == '1' && force[1] == '\0') return IsaLevel::kScalar;
  return MaxSupportedLevel();
}

// ---------------------------------------------------------------------------
// Accumulator extraction.

int32_t ExtractScalar(uint8_t* counts, int32_t block_begin, int32_t len, int threshold,
                      int32_t* out) {
  int32_t k = 0;
  for (int32_t i = 0; i < len; ++i) {
    if (counts[i] >= threshold) out[k++] = block_begin + i;
    counts[i] = 0;
  }
  return k;
}

#if KJOIN_SIMD_X86

__attribute__((target("avx2"))) int32_t ExtractAvx2Impl(uint8_t* counts, int32_t block_begin,
                                                        int32_t len, int threshold,
                                                        int32_t* out) {
  const __m256i vt = _mm256_set1_epi8(static_cast<char>(threshold));
  const __m256i zero = _mm256_setzero_si256();
  int32_t k = 0;
  int32_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counts + i));
    const __m256i ge = _mm256_cmpeq_epi8(_mm256_max_epu8(v, vt), v);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + i), zero);
    uint32_t mask = static_cast<uint32_t>(_mm256_movemask_epi8(ge));
    while (mask != 0) {
      const int lane = __builtin_ctz(mask);
      out[k++] = block_begin + i + lane;
      mask &= mask - 1;
    }
  }
  return k + ExtractScalar(counts + i, block_begin + i, len - i, threshold, out + k);
}

#endif  // KJOIN_SIMD_X86

// ---------------------------------------------------------------------------
// Sketch overlap.

int32_t SketchMinSumScalar(const uint8_t* a, const uint8_t* b) {
  int32_t sum = 0;
  for (int i = 0; i < kSketchBytes; ++i) sum += std::min(a[i], b[i]);
  return sum;
}

#if KJOIN_SIMD_X86

__attribute__((target("sse2"))) int32_t SketchMinSumSse2(const uint8_t* a, const uint8_t* b) {
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  // |min - 0| summed per 8-byte half into the low bits of each 64-bit lane.
  const __m128i halves = _mm_sad_epu8(_mm_min_epu8(va, vb), _mm_setzero_si128());
  return _mm_cvtsi128_si32(halves) + _mm_cvtsi128_si32(_mm_unpackhi_epi64(halves, halves));
}

#endif  // KJOIN_SIMD_X86

}  // namespace

const char* IsaLevelName(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

IsaLevel MaxSupportedLevel() {
#if KJOIN_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return IsaLevel::kAvx2;
#endif
  return IsaLevel::kScalar;
}

IsaLevel ActiveLevel() {
  int level = g_active_level.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(ResolveLevel());
    g_active_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<IsaLevel>(level);
}

void SetActiveLevelForTest(IsaLevel level) {
  const IsaLevel clamped = std::min(level, MaxSupportedLevel());
  g_active_level.store(static_cast<int>(clamped), std::memory_order_relaxed);
}

void ResetActiveLevelForTest() { g_active_level.store(-1, std::memory_order_relaxed); }

void AccumulateCounts(const int32_t* docs, int32_t n, uint8_t* counts, uint64_t* touched) {
  // Scalar on purpose: the increments are data-dependent scattered
  // byte stores, which no pre-AVX-512 gather/scatter beats; the vector
  // win on this path is the thresholded extraction.
  for (int32_t t = 0; t < n; ++t) {
    const uint32_t d = static_cast<uint32_t>(docs[t]);
    const uint32_t block = d / static_cast<uint32_t>(kCounterBlock);
    touched[block >> 6] |= uint64_t{1} << (block & 63);
    const uint8_t c = counts[d];
    counts[d] = c + (c != 0xff ? 1 : 0);
  }
}

int32_t ExtractAndClearBlockAt(IsaLevel level, uint8_t* counts, int32_t block_begin,
                               int32_t len, int threshold, int32_t* out) {
#if KJOIN_SIMD_X86
  switch (level) {
    case IsaLevel::kAvx2:
      return ExtractAvx2Impl(counts, block_begin, len, threshold, out);
    case IsaLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return ExtractScalar(counts, block_begin, len, threshold, out);
}

int32_t ExtractAndClearBlock(uint8_t* counts, int32_t block_begin, int32_t len, int threshold,
                             int32_t* out) {
  return ExtractAndClearBlockAt(ActiveLevel(), counts, block_begin, len, threshold, out);
}

int32_t SketchMinSumAt(IsaLevel level, const uint8_t* a, const uint8_t* b) {
#if KJOIN_SIMD_X86
  if (level == IsaLevel::kAvx2) return SketchMinSumSse2(a, b);
#else
  (void)level;
#endif
  return SketchMinSumScalar(a, b);
}

int32_t SketchMinSum(const uint8_t* a, const uint8_t* b) {
  return SketchMinSumAt(ActiveLevel(), a, b);
}

}  // namespace kjoin::simd
