#ifndef KJOIN_CORE_INVERTED_INDEX_H_
#define KJOIN_CORE_INVERTED_INDEX_H_

// A signature inverted index for the baselines' candidate generation
// (paper §3.3): L(g) lists the objects whose *prefix* contains signature
// g. Keys are dense global ranks (GlobalSignatureOrder), one vector per
// rank. Only the FastJoin and SynonymJoin baselines use it; K-Join's own
// filter probes a rank-keyed CSR (core/kjoin.cc) and KJoinIndex's
// PostingStore, both through the ProbeSet (core/probe_set.h).

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace kjoin {

class InvertedIndex {
 public:
  explicit InvertedIndex(int32_t num_signature_ranks)
      : lists_(num_signature_ranks) {}

  void Add(int32_t rank, int32_t object_index) {
    KJOIN_DCHECK(rank >= 0 && rank < static_cast<int32_t>(lists_.size()));
    lists_[rank].push_back(object_index);
  }

  const std::vector<int32_t>& List(int32_t rank) const {
    KJOIN_DCHECK(rank >= 0 && rank < static_cast<int32_t>(lists_.size()));
    return lists_[rank];
  }

  int64_t total_entries() const {
    int64_t total = 0;
    for (const auto& list : lists_) total += static_cast<int64_t>(list.size());
    return total;
  }

 private:
  std::vector<std::vector<int32_t>> lists_;
};

}  // namespace kjoin

#endif  // KJOIN_CORE_INVERTED_INDEX_H_
