#ifndef KJOIN_CORE_PROBE_SET_H_
#define KJOIN_CORE_PROBE_SET_H_

// The probe set behind K-Join's prefix filter (paper §3.3;
// docs/performance.md, "Filter engine"): the set of objects one probe
// touches through its prefix's posting lists. A pair is a candidate as
// soon as the two objects share one prefix signature, so membership is
// all the probe needs. Both the join's probe and KJoinIndex::Candidates
// feed it their lists and drain it in ascending doc order.
//
// Layout: one bit per doc id in `words_`, plus one summary bit per
// 64-doc word in `summary_` (bit w of the summary marks words_[w]
// non-zero), so a drain visits only the words a probe touched.
// Invariant between probes: every word and summary word is zero. Drain
// restores it as it goes, so a probe never rescans cold memory.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace kjoin {

class ProbeSet {
 public:
  // Covers doc ids [0, num_docs). Only grows; new words start at zero.
  void Reserve(int64_t num_docs) {
    const auto words = static_cast<size_t>((num_docs + 63) / 64);
    if (words_.size() < words) {
      words_.resize(words, 0);
      summary_.resize((words + 63) / 64, 0);
    }
  }

  // Adds `n` doc ids, each in [0, num_docs) of the last Reserve.
  void Add(const int32_t* docs, int32_t n) {
    for (int32_t i = 0; i < n; ++i) {
      const auto d = static_cast<uint32_t>(docs[i]);
      words_[d >> 6] |= uint64_t{1} << (d & 63);
      summary_[d >> 12] |= uint64_t{1} << ((d >> 6) & 63);
    }
  }

  // Hands each added doc to visit(int32_t doc) once, in ascending order,
  // and leaves the set empty. Each word is cleared before its docs are
  // visited. If visit throws (a full candidate buffer's bad_alloc), the
  // rest of the set is cleared before the exception propagates, so the
  // thread's next probe does not see this probe's docs.
  template <typename Visit>
  void Drain(Visit&& visit) {
    try {
      for (size_t s = 0; s < summary_.size(); ++s) {
        uint64_t marked = summary_[s];
        if (marked == 0) continue;
        summary_[s] = 0;
        while (marked != 0) {
          const size_t w = s * 64 + static_cast<size_t>(__builtin_ctzll(marked));
          marked &= marked - 1;
          uint64_t bits = words_[w];
          words_[w] = 0;
          while (bits != 0) {
            visit(static_cast<int32_t>(w * 64 + static_cast<size_t>(__builtin_ctzll(bits))));
            bits &= bits - 1;
          }
        }
      }
    } catch (...) {
      std::fill(words_.begin(), words_.end(), 0);
      std::fill(summary_.begin(), summary_.end(), 0);
      throw;
    }
  }

 private:
  std::vector<uint64_t> words_;
  std::vector<uint64_t> summary_;
};

// The calling thread's probe set, shared by every probe the thread runs
// (joins and searches alike; probes never nest).
inline ProbeSet& ThreadProbeSet() {
  static thread_local ProbeSet set;
  return set;
}

}  // namespace kjoin

#endif  // KJOIN_CORE_PROBE_SET_H_
