#include "core/posting_store.h"

#include <algorithm>
#include <utility>

namespace kjoin {

void PostingStore::Builder::Add(SigId id, const int32_t* docs, int32_t count) {
  KJOIN_CHECK(count > 0);
  KJOIN_CHECK(keys_.empty() || id > keys_.back());
  KJOIN_CHECK(docs[0] >= 0);
  for (int32_t i = 1; i < count; ++i) KJOIN_CHECK(docs[i] > docs[i - 1]);
  keys_.push_back(id);
  docs_.insert(docs_.end(), docs, docs + count);
  offsets_.push_back(static_cast<int64_t>(docs_.size()));
}

PostingStore PostingStore::Builder::Finish() {
  PostingStore store;
  store.keys_ = std::move(keys_);
  store.offsets_ = std::move(offsets_);
  store.docs_ = std::move(docs_);
  store.keys_.shrink_to_fit();
  store.offsets_.shrink_to_fit();
  store.docs_.shrink_to_fit();
  return store;
}

int32_t PostingStore::Find(SigId id) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), id);
  if (it == keys_.end() || *it != id) return -1;
  return static_cast<int32_t>(it - keys_.begin());
}

}  // namespace kjoin
