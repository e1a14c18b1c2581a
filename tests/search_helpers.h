#ifndef KJOIN_TESTS_SEARCH_HELPERS_H_
#define KJOIN_TESTS_SEARCH_HELPERS_H_

// Test-side shorthands over KJoinIndex's one search entry point
// (SearchTopK with a default JoinControl). A search that does not return
// OK fails the calling test.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/kjoin_index.h"

namespace kjoin::test {

// The top-k hits at or above `min_similarity` (k <= 0: all of them).
inline std::vector<SearchHit> TopK(const KJoinIndex& index, const Object& query, int32_t k,
                                   double min_similarity) {
  std::vector<SearchHit> hits;
  const Status status = index.SearchTopK(query, k, min_similarity, JoinControl{}, &hits);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return hits;
}

// Every hit at or above the index's configured tau.
inline std::vector<SearchHit> SearchAll(const KJoinIndex& index, const Object& query) {
  return TopK(index, query, 0, index.options().tau);
}

}  // namespace kjoin::test

#endif  // KJOIN_TESTS_SEARCH_HELPERS_H_
