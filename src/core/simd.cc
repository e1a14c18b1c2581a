#include "core/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

#include "common/logging.h"

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
// Block decode.

// Extracts packed[i] for i in [0, count) and accumulates: each packed
// value is (delta - 1), so out[i] = previous + packed[i] + 1.
void DecodeScalar(const uint64_t* words, int bits, int32_t count, int32_t first,
                  int32_t* out) {
  int32_t running = first;
  if (bits == 0) {
    for (int32_t i = 0; i < count; ++i) out[i] = ++running;
    return;
  }
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  uint64_t bit = 0;
  for (int32_t i = 0; i < count; ++i, bit += static_cast<uint64_t>(bits)) {
    const uint64_t word = bit >> 6;
    const int shift = static_cast<int>(bit & 63);
    uint64_t v = words[word] >> shift;
    if (shift + bits > 64) v |= words[word + 1] << (64 - shift);
    running += static_cast<int32_t>(v & mask) + 1;
    out[i] = running;
  }
}

#if KJOIN_SIMD_X86

// 8-lane inclusive prefix sum (Hillis-Steele in registers).
__attribute__((target("avx2"))) inline __m256i Scan8(__m256i x) {
  x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
  x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
  // Carry the low lane's total into the high lane.
  __m256i carry = _mm256_permute2x128_si256(x, x, 0x08);
  carry = _mm256_shuffle_epi32(carry, 0xff);
  return _mm256_add_epi32(x, carry);
}

__attribute__((target("avx2"))) void DecodeAvx2(const uint64_t* words, int bits,
                                                int32_t count, int32_t first, int32_t* out) {
  if (bits == 0) {
    // A run of consecutive ids: first + 1, first + 2, ...
    const __m256i iota = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8);
    __m256i base = _mm256_set1_epi32(first);
    int32_t i = 0;
    for (; i + 8 <= count; i += 8) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), _mm256_add_epi32(base, iota));
      base = _mm256_add_epi32(base, _mm256_set1_epi32(8));
    }
    for (int32_t running = first + i; i < count; ++i) out[i] = ++running;
    return;
  }
  // Bit-extract 8 deltas at a time, then vector prefix-sum them onto the
  // running base. Extraction is scalar (the windows are unaligned and
  // variable-width); the scan and the base add are where the cycles were.
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  alignas(32) int32_t deltas[8];
  int32_t running = first;
  uint64_t bit = 0;
  int32_t i = 0;
  for (; i + 8 <= count; i += 8) {
    for (int lane = 0; lane < 8; ++lane, bit += static_cast<uint64_t>(bits)) {
      const uint64_t word = bit >> 6;
      const int shift = static_cast<int>(bit & 63);
      uint64_t v = words[word] >> shift;
      if (shift + bits > 64) v |= words[word + 1] << (64 - shift);
      deltas[lane] = static_cast<int32_t>(v & mask);
    }
    __m256i d = _mm256_load_si256(reinterpret_cast<const __m256i*>(deltas));
    d = _mm256_add_epi32(d, _mm256_set1_epi32(1));
    const __m256i scanned = _mm256_add_epi32(Scan8(d), _mm256_set1_epi32(running));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), scanned);
    running = out[i + 7];
  }
  for (; i < count; ++i, bit += static_cast<uint64_t>(bits)) {
    const uint64_t word = bit >> 6;
    const int shift = static_cast<int>(bit & 63);
    uint64_t v = words[word] >> shift;
    if (shift + bits > 64) v |= words[word + 1] << (64 - shift);
    running += static_cast<int32_t>(v & mask) + 1;
    out[i] = running;
  }
}

__attribute__((target("sse4.2"))) inline __m128i Scan4(__m128i x) {
  x = _mm_add_epi32(x, _mm_slli_si128(x, 4));
  x = _mm_add_epi32(x, _mm_slli_si128(x, 8));
  return x;
}

__attribute__((target("sse4.2"))) void DecodeSse42(const uint64_t* words, int bits,
                                                   int32_t count, int32_t first,
                                                   int32_t* out) {
  if (bits == 0) {
    const __m128i iota = _mm_setr_epi32(1, 2, 3, 4);
    __m128i base = _mm_set1_epi32(first);
    int32_t i = 0;
    for (; i + 4 <= count; i += 4) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), _mm_add_epi32(base, iota));
      base = _mm_add_epi32(base, _mm_set1_epi32(4));
    }
    for (int32_t running = first + i; i < count; ++i) out[i] = ++running;
    return;
  }
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  alignas(16) int32_t deltas[4];
  int32_t running = first;
  uint64_t bit = 0;
  int32_t i = 0;
  for (; i + 4 <= count; i += 4) {
    for (int lane = 0; lane < 4; ++lane, bit += static_cast<uint64_t>(bits)) {
      const uint64_t word = bit >> 6;
      const int shift = static_cast<int>(bit & 63);
      uint64_t v = words[word] >> shift;
      if (shift + bits > 64) v |= words[word + 1] << (64 - shift);
      deltas[lane] = static_cast<int32_t>(v & mask);
    }
    __m128i d = _mm_load_si128(reinterpret_cast<const __m128i*>(deltas));
    d = _mm_add_epi32(d, _mm_set1_epi32(1));
    const __m128i scanned = _mm_add_epi32(Scan4(d), _mm_set1_epi32(running));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), scanned);
    running = out[i + 3];
  }
  for (; i < count; ++i, bit += static_cast<uint64_t>(bits)) {
    const uint64_t word = bit >> 6;
    const int shift = static_cast<int>(bit & 63);
    uint64_t v = words[word] >> shift;
    if (shift + bits > 64) v |= words[word + 1] << (64 - shift);
    running += static_cast<int32_t>(v & mask) + 1;
    out[i] = running;
  }
}

#endif  // KJOIN_SIMD_X86

// ---------------------------------------------------------------------------
// Intersection.

int32_t IntersectLinearScalar(const int32_t* a, int32_t an, const int32_t* b, int32_t bn,
                              int32_t* out) {
  int32_t i = 0, j = 0, k = 0;
  while (i < an && j < bn) {
    const int32_t va = a[i];
    const int32_t vb = b[j];
    if (va < vb) {
      ++i;
    } else if (vb < va) {
      ++j;
    } else {
      out[k++] = va;
      ++i;
      ++j;
    }
  }
  return k;
}

#if KJOIN_SIMD_X86

// Compare a 4-window of `a` against every rotation of a 4-window of `b`;
// the combined equality mask says which lanes of `a` matched. Windows
// advance by whichever side has the smaller maximum, so no match is ever
// skipped (classic V1 kernel).
__attribute__((target("sse4.2"))) int32_t IntersectLinearSseImpl(const int32_t* a, int32_t an,
                                                                 const int32_t* b, int32_t bn,
                                                                 int32_t* out) {
  int32_t i = 0, j = 0, k = 0;
  while (i + 4 <= an && j + 4 <= bn) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    __m128i eq = _mm_cmpeq_epi32(va, vb);
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x39)));  // rot 1
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x4e)));  // rot 2
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x93)));  // rot 3
    int mask = _mm_movemask_ps(_mm_castsi128_ps(eq));
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      out[k++] = a[i + lane];
      mask &= mask - 1;
    }
    const int32_t amax = a[i + 3];
    const int32_t bmax = b[j + 3];
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  return k + IntersectLinearScalar(a + i, an - i, b + j, bn - j, out + k);
}

__attribute__((target("avx2"))) int32_t IntersectLinearAvx2Impl(const int32_t* a, int32_t an,
                                                                const int32_t* b, int32_t bn,
                                                                int32_t* out) {
  // Rotation index vectors for _mm256_permutevar8x32_epi32.
  const __m256i rot[7] = {
      _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0), _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 0, 1),
      _mm256_setr_epi32(3, 4, 5, 6, 7, 0, 1, 2), _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3),
      _mm256_setr_epi32(5, 6, 7, 0, 1, 2, 3, 4), _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5),
      _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6)};
  int32_t i = 0, j = 0, k = 0;
  while (i + 8 <= an && j + 8 <= bn) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i eq = _mm256_cmpeq_epi32(va, vb);
    for (int r = 0; r < 7; ++r) {
      eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[r])));
    }
    int mask = _mm256_movemask_ps(_mm256_castsi256_ps(eq));
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      out[k++] = a[i + lane];
      mask &= mask - 1;
    }
    const int32_t amax = a[i + 7];
    const int32_t bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  return k + IntersectLinearScalar(a + i, an - i, b + j, bn - j, out + k);
}

#endif  // KJOIN_SIMD_X86

// Galloping core, parameterized on the vector probe width and a probe
// functor: probe(b + pos) inspects W consecutive values and returns
// (count of values < target, whether any value == target).
template <int W, typename Probe>
int32_t GallopImpl(const int32_t* a, int32_t an, const int32_t* b, int32_t bn, int32_t* out,
                   const Probe& probe) {
  // Drive with the shorter list so the skips happen in the longer one.
  if (an > bn) return GallopImpl<W>(b, bn, a, an, out, probe);
  int32_t k = 0;
  int32_t j = 0;
  for (int32_t i = 0; i < an && j < bn; ++i) {
    const int32_t target = a[i];
    // Exponential search for a window whose tail reaches the target.
    int32_t step = W;
    while (j + step < bn && b[j + step - 1] < target) {
      j += step;
      step <<= 1;
    }
    // Binary-shrink [j, hi) down to one probe window.
    int32_t hi = std::min(j + step, bn);
    while (hi - j > W) {
      const int32_t mid = j + (hi - j) / 2;
      if (b[mid] < target) {
        j = mid + 1;
      } else {
        hi = mid;
      }
    }
    // The shrink leaves the lower bound anywhere in [j, j + W] — one past
    // the probe window — so keep probing while a window comes back all-
    // below; the tail shorter than W falls through to the scalar walk.
    bool resolved = false;
    while (j + W <= bn) {
      const auto [below, found] = probe(b + j, target);
      j += below;
      if (found) out[k++] = target;
      if (found || below < W) {
        resolved = true;
        break;
      }
    }
    if (!resolved) {
      while (j < bn && b[j] < target) ++j;
      if (j < bn && b[j] == target) out[k++] = target;
    }
  }
  return k;
}

// Probe functors: structs (not lambdas) so the vector variants can carry
// the per-function target attribute through the template instantiation.
struct ProbeScalar {
  std::pair<int32_t, bool> operator()(const int32_t* p, int32_t target) const {
    return {*p < target ? 1 : 0, *p == target};
  }
};

int32_t IntersectGallopScalar(const int32_t* a, int32_t an, const int32_t* b, int32_t bn,
                              int32_t* out) {
  return GallopImpl<1>(a, an, b, bn, out, ProbeScalar{});
}

#if KJOIN_SIMD_X86

struct ProbeSse {
  __attribute__((target("sse4.2"))) std::pair<int32_t, bool> operator()(const int32_t* p,
                                                                        int32_t target) const {
    const __m128i w = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i t = _mm_set1_epi32(target);
    const int lt = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmplt_epi32(w, t)));
    const int eq = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(w, t)));
    return {__builtin_popcount(static_cast<unsigned>(lt)), eq != 0};
  }
};

struct ProbeAvx2 {
  __attribute__((target("avx2"))) std::pair<int32_t, bool> operator()(const int32_t* p,
                                                                      int32_t target) const {
    const __m256i w = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i t = _mm256_set1_epi32(target);
    const int gt = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(w, t)));
    const int eq = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(w, t)));
    const int ge = gt | eq;
    const int below = ge == 0 ? 8 : __builtin_ctz(static_cast<unsigned>(ge));
    return {below, eq != 0};
  }
};

int32_t IntersectGallopSseImpl(const int32_t* a, int32_t an, const int32_t* b, int32_t bn,
                               int32_t* out) {
  return GallopImpl<4>(a, an, b, bn, out, ProbeSse{});
}

int32_t IntersectGallopAvx2Impl(const int32_t* a, int32_t an, const int32_t* b, int32_t bn,
                                int32_t* out) {
  return GallopImpl<8>(a, an, b, bn, out, ProbeAvx2{});
}

#endif  // KJOIN_SIMD_X86

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

__attribute__((target("sse4.2"))) int32_t ExtractSseImpl(uint8_t* counts, int32_t block_begin,
                                                         int32_t len, int threshold,
                                                         int32_t* out) {
  const __m128i vt = _mm_set1_epi8(static_cast<char>(threshold));
  const __m128i zero = _mm_setzero_si128();
  int32_t k = 0;
  int32_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(counts + i));
    // v >= t (unsigned): max(v, t) == v.
    const __m128i ge = _mm_cmpeq_epi8(_mm_max_epu8(v, vt), v);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(counts + i), zero);
    int mask = _mm_movemask_epi8(ge);
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      out[k++] = block_begin + i + lane;
      mask &= mask - 1;
    }
  }
  return k + ExtractScalar(counts + i, block_begin + i, len - i, threshold, out + k);
}

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
    case IsaLevel::kSse42:
      return "sse4.2";
    case IsaLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

IsaLevel MaxSupportedLevel() {
#if KJOIN_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return IsaLevel::kAvx2;
  if (__builtin_cpu_supports("sse4.2")) return IsaLevel::kSse42;
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

void DecodeDeltaBlockAt(IsaLevel level, const uint64_t* words, int bits, int32_t count,
                        int32_t first, int32_t* out) {
  KJOIN_DCHECK(bits >= 0 && bits <= 32);
#if KJOIN_SIMD_X86
  switch (level) {
    case IsaLevel::kAvx2:
      DecodeAvx2(words, bits, count, first, out);
      return;
    case IsaLevel::kSse42:
      DecodeSse42(words, bits, count, first, out);
      return;
    case IsaLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  DecodeScalar(words, bits, count, first, out);
}

void DecodeDeltaBlock(const uint64_t* words, int bits, int32_t count, int32_t first,
                      int32_t* out) {
  DecodeDeltaBlockAt(ActiveLevel(), words, bits, count, first, out);
}

int32_t IntersectLinearAt(IsaLevel level, const int32_t* a, int32_t an, const int32_t* b,
                          int32_t bn, int32_t* out) {
#if KJOIN_SIMD_X86
  switch (level) {
    case IsaLevel::kAvx2:
      return IntersectLinearAvx2Impl(a, an, b, bn, out);
    case IsaLevel::kSse42:
      return IntersectLinearSseImpl(a, an, b, bn, out);
    case IsaLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return IntersectLinearScalar(a, an, b, bn, out);
}

int32_t IntersectGallopAt(IsaLevel level, const int32_t* a, int32_t an, const int32_t* b,
                          int32_t bn, int32_t* out) {
#if KJOIN_SIMD_X86
  switch (level) {
    case IsaLevel::kAvx2:
      return IntersectGallopAvx2Impl(a, an, b, bn, out);
    case IsaLevel::kSse42:
      return IntersectGallopSseImpl(a, an, b, bn, out);
    case IsaLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return IntersectGallopScalar(a, an, b, bn, out);
}

int32_t IntersectSortedAt(IsaLevel level, const int32_t* a, int32_t an, const int32_t* b,
                          int32_t bn, int32_t* out) {
  const int64_t small = std::min(an, bn);
  const int64_t large = std::max(an, bn);
  if (small == 0) return 0;
  if (large >= small * kGallopRatio) return IntersectGallopAt(level, a, an, b, bn, out);
  return IntersectLinearAt(level, a, an, b, bn, out);
}

int32_t IntersectSorted(const int32_t* a, int32_t an, const int32_t* b, int32_t bn,
                        int32_t* out) {
  return IntersectSortedAt(ActiveLevel(), a, an, b, bn, out);
}

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
    case IsaLevel::kSse42:
      return ExtractSseImpl(counts, block_begin, len, threshold, out);
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
  if (level != IsaLevel::kScalar) return SketchMinSumSse2(a, b);
#else
  (void)level;
#endif
  return SketchMinSumScalar(a, b);
}

int32_t SketchMinSum(const uint8_t* a, const uint8_t* b) {
  return SketchMinSumAt(ActiveLevel(), a, b);
}

}  // namespace kjoin::simd
