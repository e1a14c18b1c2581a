#ifndef KJOIN_CORE_POSTING_STORE_H_
#define KJOIN_CORE_POSTING_STORE_H_

// CSR postings layout (docs/performance.md, "Frozen CSR postings").
//
// Every KJoinIndex layer holds its postings here, built once when the
// layer is constructed (the flat build, a delta layer, Flatten output,
// snapshot loads), as the same three arrays the snapshot's POST section
// stores:
//
//   keys_     SigId per list, strictly ascending — binary-searched
//   offsets_  per-list cumulative doc counts (lists + 1 entries)
//   docs_     every list's doc ids, concatenated in key order
//
// Lists are read in place: docs(slot) points straight into docs_.

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "core/signature.h"

namespace kjoin {

class PostingStore {
 public:
  // Appends lists in strictly-ascending SigId order with strictly-
  // ascending, non-negative, non-empty doc lists; Finish() yields the
  // frozen store.
  class Builder {
   public:
    void Add(SigId id, const int32_t* docs, int32_t count);
    PostingStore Finish();

   private:
    std::vector<SigId> keys_;
    std::vector<int64_t> offsets_{0};
    std::vector<int32_t> docs_;
  };

  PostingStore() = default;

  PostingStore(const PostingStore&) = delete;
  PostingStore& operator=(const PostingStore&) = delete;
  PostingStore(PostingStore&&) = default;
  PostingStore& operator=(PostingStore&&) = default;

  int32_t num_lists() const { return static_cast<int32_t>(keys_.size()); }
  bool empty() const { return keys_.empty(); }
  // Total doc entries across every list.
  int64_t num_entries() const { return static_cast<int64_t>(docs_.size()); }

  // Slot of `id`, or -1. Slots index the CSR tables, 0..num_lists).
  int32_t Find(SigId id) const;

  SigId key(int32_t slot) const { return keys_[static_cast<size_t>(slot)]; }
  int32_t length(int32_t slot) const {
    const auto s = static_cast<size_t>(slot);
    return static_cast<int32_t>(offsets_[s + 1] - offsets_[s]);
  }
  // The slot's list, length(slot) ascending doc ids.
  const int32_t* docs(int32_t slot) const {
    return docs_.data() + offsets_[static_cast<size_t>(slot)];
  }

  // The three arrays whole, for the snapshot writer.
  const std::vector<SigId>& keys() const { return keys_; }
  const std::vector<int64_t>& offsets() const { return offsets_; }
  const std::vector<int32_t>& all_docs() const { return docs_; }

 private:
  std::vector<SigId> keys_;
  std::vector<int64_t> offsets_{0};
  std::vector<int32_t> docs_;
};

}  // namespace kjoin

#endif  // KJOIN_CORE_POSTING_STORE_H_
