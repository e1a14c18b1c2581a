#include "core/posting_store.h"

#include <utility>

namespace kjoin {

PostingStore PostingStore::Adopt(std::vector<int64_t> offsets, std::vector<int32_t> docs) {
  KJOIN_CHECK(!offsets.empty() && offsets.front() == 0 &&
              offsets.back() == static_cast<int64_t>(docs.size()));
  PostingStore store;
  store.offsets_ = std::move(offsets);
  store.docs_ = std::move(docs);
  return store;
}

}  // namespace kjoin
