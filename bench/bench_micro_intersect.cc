// Microbenchmark: the filter engine's probe set (core/probe_set.h).
//
//   ./bench_micro_intersect [--reps 64] [--out micro_intersect.json]
//
// One probe's candidate generation: ProbeSet::Add over a handful of
// posting lists, then Drain, in list entries per second. The drained ids
// are checked against a std::set union of the lists: a mismatch flips
// identical=false in the JSON (and the compare script treats that like a
// regression).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "core/probe_set.h"

namespace {

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
  double dispatched_mops = 0.0;  // list entries/sec, Add + Drain
  int64_t survivors = 0;         // distinct ids drained per pass
  bool identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  kjoin::FlagSet flags("bench_micro_intersect");
  int64_t* reps = flags.Int("reps", 64, "timed passes / 4");
  std::string* out = flags.String("out", "", "optional JSON report path");
  if (!flags.Parse(argc, argv)) return 1;

  kjoin::Rng rng(20260808);

  // Workload shaped like one probe: a handful of posting lists are added
  // to the probe set, then every touched id is drained in ascending order
  // (which clears the set). The drain is charged to the same timer
  // because the probe always pays both.
  AccumulateRow acc;
  {
    constexpr int32_t kUniverse = 1 << 16;
    constexpr int kLists = 24;
    std::vector<std::vector<int32_t>> lists;
    std::set<int32_t> reference;
    int64_t entries = 0;
    for (int l = 0; l < kLists; ++l) {
      lists.push_back(RandomList(rng, 4096, kUniverse));
      reference.insert(lists.back().begin(), lists.back().end());
      entries += static_cast<int64_t>(lists.back().size());
    }
    kjoin::ProbeSet probe_set;
    probe_set.Reserve(kUniverse);
    std::vector<int32_t> drained;
    drained.reserve(static_cast<size_t>(kUniverse));
    const auto pass = [&] {
      drained.clear();
      for (const auto& list : lists) {
        probe_set.Add(list.data(), static_cast<int32_t>(list.size()));
      }
      probe_set.Drain([&drained](int32_t id) { drained.push_back(id); });
    };
    const int acc_reps = static_cast<int>(*reps) * 4;
    const double start = NowSeconds();
    for (int rep = 0; rep < acc_reps; ++rep) pass();
    const double seconds = NowSeconds() - start;
    acc.identical = drained == std::vector<int32_t>(reference.begin(), reference.end());
    acc.survivors = static_cast<int64_t>(drained.size());
    const double total_entries = static_cast<double>(entries) * acc_reps;
    acc.dispatched_mops = seconds > 0.0 ? total_entries / seconds / 1e6 : 0.0;
    std::printf("probe set add+drain: %.1f Mentries/s | survivors=%lld identical=%s\n",
                acc.dispatched_mops, static_cast<long long>(acc.survivors),
                acc.identical ? "true" : "false");
  }

  if (!out->empty()) {
    std::FILE* f = std::fopen(out->c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out->c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"micro_intersect\": {\n");
    std::fprintf(f,
                 "    \"accumulate\": {\"dispatched_mops\": %.1f, \"survivors\": %lld, "
                 "\"identical\": %s}\n",
                 acc.dispatched_mops, static_cast<long long>(acc.survivors),
                 acc.identical ? "true" : "false");
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out->c_str());
  }
  return 0;
}
