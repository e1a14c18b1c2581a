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
