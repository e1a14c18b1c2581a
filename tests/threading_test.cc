// Threading-model tests: the shared worker pool, determinism of the
// parallel join pipeline across thread counts, and the int32_t object-id
// guard at the join entry points.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/naive_join.h"
#include "common/thread_pool.h"
#include "core/kjoin.h"
#include "core/prefix.h"
#include "data/benchmark_suite.h"
#include "data/generator.h"
#include "hierarchy/hierarchy_generator.h"

namespace kjoin {
namespace {

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  const int shards = pool.ParallelFor(kN, 4, [&](int, int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  EXPECT_GE(shards, 1);
  EXPECT_LE(shards, 4);
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelForNeverSchedulesEmptyShards) {
  // Fewer items than shards: the pool must clamp, not run idle tasks
  // (the pre-pool verifier spawned and joined empty threads here).
  ThreadPool pool(8);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  const int shards = pool.ParallelFor(3, 8, [&](int, int64_t begin, int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(begin, end);
  });
  EXPECT_EQ(shards, 3);
  ASSERT_EQ(ranges.size(), 3u);
  int64_t covered = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_LT(begin, end) << "empty shard scheduled";
    covered += end - begin;
  }
  EXPECT_EQ(covered, 3);
}

TEST(ThreadPoolTest, ParallelForOnEmptyRangeRunsNothing) {
  ThreadPool pool(4);
  bool called = false;
  EXPECT_EQ(pool.ParallelFor(0, 4, [&](int, int64_t, int64_t) { called = true; }), 0);
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleLanePoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  pool.ParallelFor(10, 1, [&](int, int64_t begin, int64_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    calls += static_cast<int>(end - begin);
  });
  EXPECT_EQ(calls, 10);
}

// A ParallelFor caller runs only its own call's shards: with the one
// worker held by a latched task and a foreign task queued behind it, the
// caller runs both shards itself and returns without touching the
// foreign task, which the worker runs once released.
TEST(ThreadPoolTest, ParallelForCallerRunsOnlyItsOwnShards) {
  ThreadPool pool(2);
  std::promise<void> worker_busy;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.Schedule([&worker_busy, released] {
    worker_busy.set_value();
    released.wait();
  });
  worker_busy.get_future().wait();
  std::promise<std::thread::id> foreign_ran_on;
  std::future<std::thread::id> foreign = foreign_ran_on.get_future();
  pool.Schedule([&foreign_ran_on] { foreign_ran_on.set_value(std::this_thread::get_id()); });

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> shard_threads(2);
  EXPECT_EQ(pool.ParallelFor(2, 2,
                             [&](int shard, int64_t, int64_t) {
                               shard_threads[static_cast<size_t>(shard)] =
                                   std::this_thread::get_id();
                             }),
            2);
  EXPECT_EQ(foreign.wait_for(std::chrono::seconds(0)), std::future_status::timeout)
      << "the ParallelFor caller ran a foreign task";
  EXPECT_EQ(shard_threads[0], caller);
  EXPECT_EQ(shard_threads[1], caller);

  release.set_value();
  EXPECT_NE(foreign.get(), caller);
}

TEST(ThreadPoolTest, ScheduledWorkDrainsBeforeDestruction) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 64; ++i) {
      pool.Schedule([&done] { done.fetch_add(1); });
    }
  }  // ~ThreadPool joins workers after the queue is drained
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, StatsCountExecutedTasks) {
  ThreadPool pool(2);
  const ThreadPoolStats before = pool.stats();
  const int shards = pool.ParallelFor(100, 2, [](int, int64_t, int64_t) {});
  const ThreadPoolStats after = pool.stats();
  EXPECT_EQ(after.tasks_executed - before.tasks_executed, shards);
  EXPECT_GE(after.busy_seconds, before.busy_seconds);
}

// ------------------------------------------- pipeline determinism

struct TestData {
  Hierarchy hierarchy;
  std::vector<Object> objects;
};

TestData MakeTestData(int num_records, bool multi_mapping = false) {
  HierarchyGenParams tree_params;
  tree_params.num_nodes = 300;
  tree_params.height = 5;
  tree_params.avg_fanout = 4.0;
  tree_params.max_fanout = 10;
  tree_params.seed = 7;
  Hierarchy tree = GenerateHierarchy(tree_params);

  RecordGenParams data_params;
  data_params.num_records = num_records;
  data_params.avg_elements = 5;
  data_params.min_elements = 2;
  data_params.max_elements = 9;
  data_params.min_depth = 2;
  data_params.max_depth = 5;
  data_params.duplicate_fraction = 0.5;
  data_params.unmatched_token_rate = 0.1;
  data_params.seed = 31;
  const Dataset dataset = DatasetGenerator(tree, data_params).Generate("threading");
  std::vector<Object> objects = BuildObjects(tree, dataset, multi_mapping).objects;
  return {std::move(tree), std::move(objects)};
}

// The counters that must not depend on the thread count (timings and the
// scheduling-shape fields legitimately do).
void ExpectSameCounters(const JoinStats& a, const JoinStats& b, int threads) {
  EXPECT_EQ(a.total_signatures, b.total_signatures) << threads << " threads";
  EXPECT_EQ(a.prefix_signatures, b.prefix_signatures) << threads << " threads";
  EXPECT_EQ(a.candidates, b.candidates) << threads << " threads";
  EXPECT_EQ(a.size_skipped, b.size_skipped) << threads << " threads";
  EXPECT_EQ(a.count_filtered, b.count_filtered) << threads << " threads";
  EXPECT_EQ(a.sketch_filtered, b.sketch_filtered) << threads << " threads";
  EXPECT_LE(a.sketch_filtered, a.count_filtered) << threads << " threads";
  // Tie-out: every pair the probe found was either screened out by the
  // count bound or sent to verification, exactly once.
  EXPECT_EQ(a.probe_pairs(), b.probe_pairs()) << threads << " threads";
  EXPECT_EQ(a.verify.pairs_verified, a.candidates) << threads << " threads";
  EXPECT_EQ(a.results, b.results) << threads << " threads";
  EXPECT_EQ(a.verify.pairs_verified, b.verify.pairs_verified) << threads << " threads";
  EXPECT_EQ(a.verify.pruned_by_count, b.verify.pruned_by_count) << threads << " threads";
  EXPECT_EQ(a.verify.pruned_by_weighted_count, b.verify.pruned_by_weighted_count)
      << threads << " threads";
  EXPECT_EQ(a.verify.accepted_by_lower_bound, b.verify.accepted_by_lower_bound)
      << threads << " threads";
  EXPECT_EQ(a.verify.rejected_by_upper_bound, b.verify.rejected_by_upper_bound)
      << threads << " threads";
  EXPECT_EQ(a.verify.hungarian_runs, b.verify.hungarian_runs) << threads << " threads";
  EXPECT_EQ(a.verify.results, b.verify.results) << threads << " threads";
}

TEST(ThreadingDeterminismTest, SelfJoinIsIdenticalAcrossThreadCounts) {
  const TestData data = MakeTestData(220);
  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 0.6;
  options.num_threads = 1;
  const JoinResult baseline = KJoin(data.hierarchy, options).SelfJoin(data.objects);
  ASSERT_FALSE(baseline.pairs.empty()) << "degenerate dataset: nothing to compare";

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    const KJoin join(data.hierarchy, options);
    const JoinResult result = join.SelfJoin(data.objects);
    // Exact vector equality: same pairs in the same order.
    EXPECT_EQ(result.pairs, baseline.pairs) << threads << " threads";
    ExpectSameCounters(result.stats, baseline.stats, threads);
    EXPECT_EQ(result.stats.threads, threads);
    // A second run on the same KJoin reuses the pool and must agree too.
    EXPECT_EQ(join.SelfJoin(data.objects).pairs, baseline.pairs);
  }
}

TEST(ThreadingDeterminismTest, ProbeShardsTallyScreenedPairsIdentically) {
  // Enough probes for the probe phase to fan out into several shards (the
  // join schedules one per 8192 probes), so the shards tally the entries
  // their size windows skip and the pairs the count bound drops
  // concurrently. The totals must match a one-thread run exactly.
  const TestData data = MakeTestData(17000);
  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 0.8;
  options.num_threads = 1;
  const JoinResult baseline = KJoin(data.hierarchy, options).SelfJoin(data.objects);
  ASSERT_FALSE(baseline.pairs.empty()) << "degenerate dataset: nothing to compare";
  ASSERT_GT(baseline.stats.size_skipped, 0);
  ASSERT_GT(baseline.stats.count_filtered, 0);

  options.num_threads = 4;
  const JoinResult result = KJoin(data.hierarchy, options).SelfJoin(data.objects);
  EXPECT_GT(result.stats.filter_tasks, 1) << "the probe phase did not fan out";
  EXPECT_EQ(result.pairs, baseline.pairs);
  ExpectSameCounters(result.stats, baseline.stats, 4);
}

TEST(ThreadingDeterminismTest, RsJoinIsIdenticalAcrossThreadCounts) {
  const TestData data = MakeTestData(200);
  std::vector<Object> left, right;
  for (size_t i = 0; i < data.objects.size(); ++i) {
    (i % 2 == 0 ? left : right).push_back(data.objects[i]);
  }
  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 0.6;
  options.num_threads = 1;
  const JoinResult baseline = KJoin(data.hierarchy, options).Join(left, right);
  ASSERT_FALSE(baseline.pairs.empty()) << "degenerate dataset: nothing to compare";

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    const JoinResult result = KJoin(data.hierarchy, options).Join(left, right);
    EXPECT_EQ(result.pairs, baseline.pairs) << threads << " threads";
    ExpectSameCounters(result.stats, baseline.stats, threads);
  }
}

TEST(ThreadingDeterminismTest, PrepareShardsBuildTheSameOrderAndPrefixes) {
  // Enough objects for Prepare to fan out (the join schedules one shard
  // per 8192 objects): shards generate signatures and prefixes
  // concurrently into their own flat arenas, joined in shard order, and
  // the order's dense document-frequency arrays are counted once between
  // the two passes.
  // Signature and prefix totals, pairs and screen counters must match a
  // one-thread run, for a pure-mode self-join and an R-S join.
  const TestData data = MakeTestData(17000);
  std::vector<Object> left, right;
  for (size_t i = 0; i < data.objects.size(); ++i) {
    (i % 2 == 0 ? left : right).push_back(data.objects[i]);
  }
  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 0.8;
  options.num_threads = 1;
  const KJoin serial(data.hierarchy, options);
  options.num_threads = 4;
  const KJoin parallel(data.hierarchy, options);

  const JoinResult self_baseline = serial.SelfJoin(data.objects);
  const JoinResult self_result = parallel.SelfJoin(data.objects);
  ASSERT_FALSE(self_baseline.pairs.empty()) << "degenerate dataset: nothing to compare";
  ASSERT_GT(self_baseline.stats.sketch_filtered, 0);
  EXPECT_GT(self_result.stats.prepare_tasks, 2) << "Prepare did not fan out";
  EXPECT_EQ(self_result.pairs, self_baseline.pairs);
  ExpectSameCounters(self_result.stats, self_baseline.stats, 4);

  const JoinResult rs_baseline = serial.Join(left, right);
  const JoinResult rs_result = parallel.Join(left, right);
  ASSERT_FALSE(rs_baseline.pairs.empty()) << "degenerate dataset: nothing to compare";
  EXPECT_GT(rs_result.stats.prepare_tasks, 2) << "Prepare did not fan out";
  EXPECT_EQ(rs_result.pairs, rs_baseline.pairs);
  ExpectSameCounters(rs_result.stats, rs_baseline.stats, 4);
}

// K-Join+ on objects whose elements really carry several weighted
// mappings, so verification runs the full Eq. 2 mapping-pair loop: pairs
// and counters must not depend on the thread count, and the pairs must
// equal the exhaustive oracle's.
TEST(ThreadingDeterminismTest, PlusModeIsIdenticalAcrossThreadCounts) {
  const TestData data = MakeTestData(220, /*multi_mapping=*/true);
  int64_t multi = 0;
  for (const Object& object : data.objects) {
    for (const Element& element : object.elements) multi += element.mappings.size() > 1;
  }
  ASSERT_GT(multi, 0) << "no element carries more than one mapping";

  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 0.6;
  options.plus_mode = true;
  options.num_threads = 1;
  const JoinResult baseline = KJoin(data.hierarchy, options).SelfJoin(data.objects);
  ASSERT_FALSE(baseline.pairs.empty()) << "degenerate dataset: nothing to compare";
  // The oracle emits pairs in (left, right) order, the join in probe order.
  std::vector<std::pair<int32_t, int32_t>> sorted = baseline.pairs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, NaiveJoin(data.hierarchy, options).SelfJoin(data.objects).pairs);

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    const JoinResult result = KJoin(data.hierarchy, options).SelfJoin(data.objects);
    EXPECT_EQ(result.pairs, baseline.pairs) << threads << " threads";
    ExpectSameCounters(result.stats, baseline.stats, threads);
  }
}

TEST(ThreadingDeterminismTest, ShardCandidateCountsSumToTotal) {
  const TestData data = MakeTestData(150);
  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 0.6;
  options.num_threads = 4;
  const JoinResult result = KJoin(data.hierarchy, options).SelfJoin(data.objects);
  int64_t sharded = 0;
  for (int64_t c : result.stats.shard_candidates) sharded += c;
  EXPECT_EQ(sharded, result.stats.candidates);
  EXPECT_GE(result.stats.prepare_tasks, 2);  // two passes, >= 1 shard each
  EXPECT_GE(result.stats.filter_tasks, 1);
  EXPECT_GE(result.stats.verify_tasks, result.stats.candidates > 0 ? 1 : 0);
  EXPECT_GE(result.stats.pool_busy_seconds, 0.0);
}

TEST(ThreadingDeterminismTest, SmallJoinCollapsesToSingleShardPerPhase) {
  // Min-work-per-shard dispatch: a join far below every per-shard
  // threshold must not fan out at all, whatever the pool width — paying
  // lane wake-up and merge overhead on a sub-millisecond join is how two
  // threads end up slower than one. Results stay identical to a
  // single-thread run.
  const TestData data = MakeTestData(220);
  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 0.6;
  options.num_threads = 1;
  const JoinResult baseline = KJoin(data.hierarchy, options).SelfJoin(data.objects);
  ASSERT_FALSE(baseline.pairs.empty()) << "degenerate dataset: nothing to compare";
  ASSERT_GT(baseline.stats.candidates, 0);

  options.num_threads = 8;
  const JoinResult result = KJoin(data.hierarchy, options).SelfJoin(data.objects);
  // 220 objects and a few thousand candidate pairs sit far below the
  // prepare/probe/verify thresholds: one inline shard per phase, no pool
  // dispatch (prepare runs its two passes as one shard each).
  EXPECT_EQ(result.stats.prepare_tasks, 2);
  EXPECT_EQ(result.stats.filter_tasks, 1);
  EXPECT_EQ(result.stats.verify_tasks, 1);
  EXPECT_EQ(result.pairs, baseline.pairs);
  ExpectSameCounters(result.stats, baseline.stats, 8);
}

// --------------------------------------------- object-id space guard

TEST(ObjectIdSpaceTest, BoundaryIsInt32Max) {
  EXPECT_TRUE(FitsObjectIdSpace(0));
  EXPECT_TRUE(FitsObjectIdSpace(kMaxJoinCollectionSize));
  EXPECT_FALSE(FitsObjectIdSpace(kMaxJoinCollectionSize + 1));
  EXPECT_FALSE(FitsObjectIdSpace(uint64_t{1} << 32));
  static_assert(kMaxJoinCollectionSize == 2147483647u,
                "candidate pairs store int32_t object ids");
}

// --------------------------------- GlobalSignatureOrder finalize guard

using GlobalOrderDeathTest = testing::Test;

TEST(GlobalOrderDeathTest, DocumentFrequencyBeforeFinalizeDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  GlobalSignatureOrder order;
  std::vector<Signature> object = {{5, 0, 1.0f}};
  order.CountObject(object);
  EXPECT_DEATH(order.DocumentFrequency(5), "Finalize");
}

}  // namespace
}  // namespace kjoin
