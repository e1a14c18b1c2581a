#ifndef KJOIN_CORE_POSTING_STORE_H_
#define KJOIN_CORE_POSTING_STORE_H_

// The frozen CSR inverted index behind every prefix filter (paper §3.3;
// docs/performance.md, "Frozen CSR postings"): num_slots() lists over
// dense slots 0..num_slots(), as two arrays
//
//   offsets_  per-slot cumulative entry counts (num_slots + 1 entries)
//   docs_     every slot's entries, concatenated in slot order
//
// A slot is whatever dense key the caller chose: a global signature rank
// (the join, the baselines) or a position in a sorted SigId key array
// (KJoinIndex layers). Each list keeps the order its entries were
// emitted in. Lists are read in place: docs(slot) points into docs_.

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace kjoin {

class PostingStore {
 public:
  PostingStore() = default;

  PostingStore(const PostingStore&) = delete;
  PostingStore& operator=(const PostingStore&) = delete;
  PostingStore(PostingStore&&) = default;
  PostingStore& operator=(PostingStore&&) = default;

  // The one build: a count pass, then a fill pass, each a call of
  // for_each_entry(emit) that calls emit(slot, doc) for every entry, slot
  // in [0, num_slots). Both calls emit the same entries in the same order,
  // except that a caller who gives up mid-build may stop the fill pass
  // early; the lists are then incomplete and must not be read.
  template <typename ForEachEntry>
  static PostingStore Build(int32_t num_slots, const ForEachEntry& for_each_entry) {
    PostingStore store;
    std::vector<int64_t>& offsets = store.offsets_;
    offsets.assign(static_cast<size_t>(num_slots) + 1, 0);
    for_each_entry([&offsets](int32_t slot, int32_t) {
      KJOIN_DCHECK(slot >= 0 && static_cast<size_t>(slot) + 1 < offsets.size());
      ++offsets[static_cast<size_t>(slot) + 1];
    });
    for (size_t s = 1; s < offsets.size(); ++s) offsets[s] += offsets[s - 1];
    store.docs_.resize(static_cast<size_t>(offsets.back()));
    std::vector<int64_t> cursor(offsets.begin(), offsets.end() - 1);
    int32_t* docs = store.docs_.data();
    for_each_entry([&cursor, docs](int32_t slot, int32_t doc) {
      docs[cursor[static_cast<size_t>(slot)]++] = doc;
    });
    return store;
  }

  // Takes the two arrays whole (a snapshot load, which has validated
  // them: offsets start at 0, never decrease and end at docs.size()).
  static PostingStore Adopt(std::vector<int64_t> offsets, std::vector<int32_t> docs);

  int32_t num_slots() const { return static_cast<int32_t>(offsets_.size() - 1); }
  // Total entries across every list.
  int64_t num_entries() const { return static_cast<int64_t>(docs_.size()); }

  int32_t length(int32_t slot) const {
    const auto s = static_cast<size_t>(slot);
    return static_cast<int32_t>(offsets_[s + 1] - offsets_[s]);
  }
  // The slot's list: length(slot) entries in emitted order.
  const int32_t* docs(int32_t slot) const {
    return docs_.data() + offsets_[static_cast<size_t>(slot)];
  }
  const int32_t* docs_end(int32_t slot) const {
    return docs_.data() + offsets_[static_cast<size_t>(slot) + 1];
  }

  // The two arrays whole, for the snapshot writer.
  const std::vector<int64_t>& offsets() const { return offsets_; }
  const std::vector<int32_t>& all_docs() const { return docs_; }

 private:
  std::vector<int64_t> offsets_{0};
  std::vector<int32_t> docs_;
};

}  // namespace kjoin

#endif  // KJOIN_CORE_POSTING_STORE_H_
