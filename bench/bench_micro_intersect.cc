// Microbenchmark: the filter engine's count-pruning kernels (core/simd.h).
//
//   ./bench_micro_intersect [--reps 64] [--out micro_intersect.json]
//
// Count accumulation — the ScanCount feed (AccumulateCounts) plus the
// thresholded extract (ExtractAndClearBlock), scalar vs dispatched, in
// counter bumps per second. The dispatched extraction set is checked
// against the scalar one: a mismatch flips identical=false in the JSON
// (and the compare script treats that like a regression).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "core/simd.h"

namespace {

using kjoin::simd::IsaLevel;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Sorted unique ids, `len` of them, drawn from [0, universe).
std::vector<int32_t> RandomList(kjoin::Rng& rng, int32_t len, int32_t universe) {
  std::set<int32_t> ids;
  while (static_cast<int32_t>(ids.size()) < len) {
    ids.insert(static_cast<int32_t>(rng.NextUint64(static_cast<uint64_t>(universe))));
  }
  return std::vector<int32_t>(ids.begin(), ids.end());
}

struct AccumulateRow {
  double scalar_mops = 0.0;      // counter bumps/sec, scalar extract
  double dispatched_mops = 0.0;  // counter bumps/sec, dispatched extract
  int64_t survivors = 0;
  bool identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  kjoin::FlagSet flags("bench_micro_intersect");
  int64_t* reps = flags.Int("reps", 64, "timed passes / 4 per dispatch level");
  std::string* out = flags.String("out", "", "optional JSON report path");
  if (!flags.Parse(argc, argv)) return 1;

  const IsaLevel best = kjoin::simd::MaxSupportedLevel();
  std::printf("dispatch: max=%s active=%s\n", kjoin::simd::IsaLevelName(best),
              kjoin::simd::IsaLevelName(kjoin::simd::ActiveLevel()));

  kjoin::Rng rng(20260808);

  // ---- count accumulation + extraction ----
  // Workload shaped like one probe: a handful of posting lists bump a
  // dense counter array, then every touched block is threshold-extracted
  // and cleared. Throughput is counter bumps per second (the accumulate
  // loop dominates; the extract is charged to the same timer because the
  // probe always pays both).
  AccumulateRow acc;
  {
    constexpr int32_t kUniverse = 1 << 16;
    constexpr int kLists = 24;
    std::vector<std::vector<int32_t>> lists;
    int64_t entries = 0;
    for (int l = 0; l < kLists; ++l) {
      lists.push_back(RandomList(rng, 4096, kUniverse));
      entries += static_cast<int64_t>(lists.back().size());
    }
    std::vector<uint8_t> counts(static_cast<size_t>(kUniverse), 0);
    const int32_t num_blocks = kUniverse / kjoin::simd::kCounterBlock;
    std::vector<uint64_t> touched(static_cast<size_t>(num_blocks + 63) / 64, 0);
    std::vector<int32_t> extracted;
    extracted.reserve(static_cast<size_t>(kUniverse));
    const auto pass = [&](IsaLevel level) {
      extracted.clear();
      for (const auto& list : lists) {
        kjoin::simd::AccumulateCounts(list.data(), static_cast<int32_t>(list.size()),
                                      counts.data(), touched.data());
      }
      int32_t buf[kjoin::simd::kCounterBlock];
      for (size_t w = 0; w < touched.size(); ++w) {
        uint64_t bits = touched[w];
        touched[w] = 0;
        while (bits != 0) {
          const int bit = __builtin_ctzll(bits);
          bits &= bits - 1;
          const int32_t begin =
              static_cast<int32_t>(w * 64 + static_cast<size_t>(bit)) *
              kjoin::simd::kCounterBlock;
          const int32_t n = kjoin::simd::ExtractAndClearBlockAt(
              level, counts.data() + begin, begin, kjoin::simd::kCounterBlock,
              /*threshold=*/2, buf);
          extracted.insert(extracted.end(), buf, buf + n);
        }
      }
      return static_cast<int64_t>(extracted.size());
    };
    const int acc_reps = static_cast<int>(*reps) * 4;
    int64_t ref_survivors = 0;
    double start = NowSeconds();
    for (int rep = 0; rep < acc_reps; ++rep) ref_survivors = pass(IsaLevel::kScalar);
    const double scalar_seconds = NowSeconds() - start;
    start = NowSeconds();
    int64_t survivors = 0;
    for (int rep = 0; rep < acc_reps; ++rep) survivors = pass(best);
    const double simd_seconds = NowSeconds() - start;
    acc.identical = survivors == ref_survivors;
    acc.survivors = survivors;
    const double bumps = static_cast<double>(entries) * acc_reps;
    acc.scalar_mops = scalar_seconds > 0.0 ? bumps / scalar_seconds / 1e6 : 0.0;
    acc.dispatched_mops = simd_seconds > 0.0 ? bumps / simd_seconds / 1e6 : 0.0;
    std::printf("accumulate+extract: scalar %.1f Mbumps/s | dispatched %.1f Mbumps/s "
                "(%.2fx) | survivors=%lld identical=%s\n",
                acc.scalar_mops, acc.dispatched_mops,
                acc.scalar_mops > 0.0 ? acc.dispatched_mops / acc.scalar_mops : 0.0,
                static_cast<long long>(acc.survivors), acc.identical ? "true" : "false");
  }

  if (!out->empty()) {
    std::FILE* f = std::fopen(out->c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out->c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"micro_intersect\": {\n");
    std::fprintf(f, "    \"isa\": \"%s\",\n", kjoin::simd::IsaLevelName(best));
    std::fprintf(f,
                 "    \"accumulate\": {\"scalar_mops\": %.1f, \"dispatched_mops\": %.1f, "
                 "\"survivors\": %lld, \"identical\": %s}\n",
                 acc.scalar_mops, acc.dispatched_mops,
                 static_cast<long long>(acc.survivors), acc.identical ? "true" : "false");
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out->c_str());
  }
  return 0;
}
