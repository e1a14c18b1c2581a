#ifndef KJOIN_TESTS_SEARCH_HELPERS_H_
#define KJOIN_TESTS_SEARCH_HELPERS_H_

// Test-side shorthands over KJoinIndex's one search entry point
// (SearchTopK with a default JoinControl), the brute-force oracle every
// search path is checked against, and a shard backend whose probes a
// test can hold or slow down. A search that does not return OK fails the
// calling test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/element_similarity.h"
#include "core/kjoin_index.h"
#include "core/object_similarity.h"
#include "hierarchy/lca.h"
#include "serve/shard_router.h"

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

// Every live object whose similarity to `query` reaches tau, in HitBefore
// order — computed pair by pair, sharing no filter or index code. Objects
// are numbered by their position in `objects`; indexes in `tombstones`
// are skipped. Its first k hits are the top-k answer.
inline std::vector<SearchHit> BruteForceSearch(const Hierarchy& hierarchy,
                                               const std::vector<Object>& objects,
                                               const Object& query, const KJoinOptions& options,
                                               const std::vector<int32_t>& tombstones = {}) {
  const LcaIndex lca(hierarchy);
  const ElementSimilarity element_sim(lca, options.element_metric);
  const ObjectSimilarity object_sim(element_sim, options.delta, options.set_metric);
  std::vector<SearchHit> hits;
  for (int32_t i = 0; i < static_cast<int32_t>(objects.size()); ++i) {
    if (std::find(tombstones.begin(), tombstones.end(), i) != tombstones.end()) continue;
    const double similarity = object_sim.Similarity(query, objects[i]);
    if (similarity >= options.tau - 1e-9) hits.push_back({i, similarity});
  }
  std::sort(hits.begin(), hits.end(), HitBefore);
  return hits;
}

// Same hits in the same order, similarities within the verifier's 1e-9.
inline void ExpectHitsMatchOracle(const std::vector<SearchHit>& expected,
                                  const std::vector<SearchHit>& actual,
                                  const std::string& where) {
  ASSERT_EQ(expected.size(), actual.size()) << where;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].object_index, actual[i].object_index) << where << " hit " << i;
    EXPECT_NEAR(expected[i].similarity, actual[i].similarity, 1e-9) << where << " hit " << i;
  }
}

// A ShardBackend that forwards each probe to `inner` (a LocalShard), and
// can hold probes at a gate until the test opens it — keeping a query in
// flight, or the searches behind it on one event loop waiting — or sleep
// after each answer, as a slow shard would. Open until Close(); the router must not
// be destroyed while a probe is held.
class GatedShard : public serve::ShardBackend {
 public:
  explicit GatedShard(serve::ShardBackend* inner) : inner_(inner) {}

  void Probe(const serve::ShardQuery& query, serve::ShardReply* reply) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++held_;
      changed_.notify_all();
      changed_.wait(lock, [&] { return open_; });
      --held_;
    }
    inner_->Probe(query, reply);
    probes_.fetch_add(1);
    std::this_thread::sleep_for(sleep_after_probe_);
  }
  double tau() const override { return inner_->tau(); }

  // Probes that start from now on wait for Open().
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    changed_.notify_all();
  }
  // Blocks until a probe waits at the closed gate.
  void WaitUntilHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [&] { return held_ > 0; });
  }
  // Probes waiting at the closed gate now.
  int held() {
    std::lock_guard<std::mutex> lock(mu_);
    return held_;
  }
  // Set before the router probes this shard.
  void SleepAfterProbe(std::chrono::milliseconds duration) { sleep_after_probe_ = duration; }
  // Probes forwarded to the inner shard.
  int64_t probes() const { return probes_.load(); }

 private:
  serve::ShardBackend* inner_;
  std::mutex mu_;
  std::condition_variable changed_;
  bool open_ = true;  // guarded by mu_
  int held_ = 0;      // guarded by mu_
  std::chrono::milliseconds sleep_after_probe_{0};
  std::atomic<int64_t> probes_{0};
};

}  // namespace kjoin::test

#endif  // KJOIN_TESTS_SEARCH_HELPERS_H_
