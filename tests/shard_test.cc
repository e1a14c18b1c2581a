// Sharded serving suite (docs/serving.md, "Sharded serving"): the
// determinism contract (scatter-gather results byte-identical to a
// single index at any shard count and pool width), the documented top-k
// tie-break order, progressive-bound pruning, per-shard deadlines, the
// router's accounting tie-out,
// stale-dictionary queries against a brute-force oracle,
// per-shard WAL recovery with numbering reconstruction, and the
// one-degraded-shard chaos case. Runs under both the asan and tsan
// presets (tests/CMakeLists.txt labels).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/kjoin_index.h"
#include "data/benchmark_suite.h"
#include "serve/index_manager.h"
#include "serve/shard_router.h"
#include "serve/sharded_index_manager.h"
#include "search_helpers.h"

namespace kjoin {
namespace {

using test::BruteForceSearch;
using test::ExpectHitsMatchOracle;
using test::GatedShard;
using test::SearchAll;
using test::TopK;

constexpr int64_t kRecords = 240;

// One dataset + prepared objects + flat reference index, shared across
// tests (the build is the expensive part; every test treats it as
// immutable).
struct ShardStack {
  Dataset dataset;
  std::shared_ptr<const Hierarchy> hierarchy;
  PreparedObjects prepared;
  std::optional<KJoinIndex> reference;  // the single unsharded index
};

KJoinOptions Options() {
  KJoinOptions options;
  options.delta = 0.8;
  options.tau = 0.6;
  options.plus_mode = true;
  return options;
}

ShardStack& Stack() {
  static ShardStack* stack = [] {
    auto* s = new ShardStack();
    BenchmarkData data = MakePoiBenchmark(kRecords, /*seed=*/77);
    s->dataset = std::move(data.dataset);
    s->hierarchy = std::make_shared<const Hierarchy>(std::move(data.hierarchy));
    s->prepared = BuildObjects(*s->hierarchy, s->dataset,
                               /*multi_mapping=*/true, /*min_phi=*/0.8);
    s->reference.emplace(*s->hierarchy, Options(), s->prepared.objects);
    return s;
  }();
  return *stack;
}

std::vector<Object> MakeQueries(int count) {
  const Dataset& dataset = Stack().dataset;
  ObjectBuilder* builder = Stack().prepared.builder.get();
  std::vector<Object> queries;
  queries.reserve(count);
  for (int q = 0; q < count; ++q) {
    std::vector<std::string> tokens =
        dataset.records[(q * 97) % dataset.records.size()].tokens;
    if (tokens.empty()) continue;
    if (q % 2 == 1) tokens.pop_back();
    queries.push_back(builder->Build(-1, tokens));
  }
  return queries;
}

std::unique_ptr<serve::ShardedIndexManager> MakeSharded(int num_shards, ThreadPool* pool,
                                                        MetricsRegistry* metrics = nullptr) {
  ShardStack& stack = Stack();
  return std::make_unique<serve::ShardedIndexManager>(
      stack.hierarchy, Options(), stack.prepared.objects,
      stack.prepared.builder->TokenTable(), stack.dataset.synonyms, num_shards, pool,
      metrics);
}

// A router over `num_shards` LocalShards, each behind an (open)
// GatedShard the test can close or slow down. Router metrics go to
// `metrics`, or to a registry the stack owns.
struct RouterStack {
  std::unique_ptr<MetricsRegistry> owned_metrics;
  MetricsRegistry* metrics = nullptr;
  std::unique_ptr<serve::ShardedIndexManager> manager;
  std::vector<std::unique_ptr<serve::LocalShard>> backends;
  std::vector<std::unique_ptr<GatedShard>> gates;
  std::unique_ptr<serve::ShardRouter> router;
};

RouterStack MakeRouter(int num_shards, ThreadPool* pool,
                       serve::ShardRouterOptions options = {},
                       MetricsRegistry* metrics = nullptr) {
  RouterStack stack;
  if (metrics == nullptr) {
    stack.owned_metrics = std::make_unique<MetricsRegistry>();
    metrics = stack.owned_metrics.get();
  }
  stack.metrics = metrics;
  stack.manager = MakeSharded(num_shards, pool, metrics);
  std::vector<serve::ShardBackend*> shards;
  for (int s = 0; s < num_shards; ++s) {
    stack.backends.push_back(std::make_unique<serve::LocalShard>(stack.manager.get(), s));
    stack.gates.push_back(std::make_unique<GatedShard>(stack.backends.back().get()));
    shards.push_back(stack.gates.back().get());
  }
  stack.router =
      std::make_unique<serve::ShardRouter>(std::move(shards), pool, options, metrics);
  return stack;
}

// The router's accounting ties out: it answered exactly the `requests`
// a test made (router.queries).
void ExpectRouterTiesOut(const RouterStack& stack, int64_t requests) {
  EXPECT_EQ(stack.metrics->counter("router.queries")->value(), requests);
}

void ExpectHitsIdentical(const std::vector<SearchHit>& expected,
                         const std::vector<SearchHit>& actual, const std::string& where) {
  ASSERT_EQ(expected.size(), actual.size()) << where;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].object_index, actual[i].object_index) << where << " hit " << i;
    // Byte-identical, not approximately equal: the same pairs go through
    // the same arithmetic regardless of which shard holds them.
    EXPECT_EQ(expected[i].similarity, actual[i].similarity) << where << " hit " << i;
  }
}

// ------------------------------------------------- placement function

TEST(ShardPlacementTest, DeterministicAndInRange) {
  for (int num_shards : {1, 2, 7, 8}) {
    for (int64_t g = 0; g < 1000; ++g) {
      const int s = serve::ShardOf(g, num_shards);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, num_shards);
      ASSERT_EQ(s, serve::ShardOf(g, num_shards));  // pure function
    }
  }
  // One shard degenerates to the unsharded layout.
  for (int64_t g = 0; g < 100; ++g) {
    EXPECT_EQ(serve::ShardOf(g, 1), 0);
  }
}

TEST(ShardPlacementTest, MappingTablesPartitionTheCollection) {
  ThreadPool pool(1);
  auto manager = MakeSharded(8, &pool);
  std::set<int32_t> seen;
  for (int s = 0; s < manager->num_shards(); ++s) {
    const auto table = manager->GlobalIndexes(s);
    for (size_t i = 0; i < table->size(); ++i) {
      if (i > 0) {
        EXPECT_LT((*table)[i - 1], (*table)[i]) << "shard " << s;
      }
      EXPECT_TRUE(seen.insert((*table)[i]).second);
    }
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), manager->num_objects());
  EXPECT_EQ(*seen.rbegin(), static_cast<int32_t>(manager->num_objects() - 1));
}

// ------------------------------------------- determinism contract

// The tentpole contract: Search and SearchTopK through the router are
// byte-identical to the single unsharded index — same hits, same
// similarities, same tie-break order — at every shard count and pool
// width.
TEST(ShardDeterminismTest, IdenticalToSingleIndexAcrossShardsAndThreads) {
  const std::vector<Object> queries = MakeQueries(40);
  const KJoinIndex& reference = *Stack().reference;
  for (int num_shards : {1, 2, 8}) {
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      RouterStack stack = MakeRouter(num_shards, &pool);
      for (size_t q = 0; q < queries.size(); ++q) {
        const std::string where = "shards=" + std::to_string(num_shards) +
                                  " threads=" + std::to_string(threads) +
                                  " query=" + std::to_string(q);
        // Threshold search.
        serve::QueryRequest request;
        request.query = queries[q];
        serve::QueryResponse response = stack.router->Search(request);
        ASSERT_TRUE(response.status.ok()) << where << ": " << response.status.ToString();
        ExpectHitsIdentical(SearchAll(reference, queries[q]), response.hits,
                            where + " threshold");
        // Top-k (k chosen to cut through the result set).
        request.top_k = 5;
        response = stack.router->Search(request);
        ASSERT_TRUE(response.status.ok()) << where << ": " << response.status.ToString();
        ExpectHitsIdentical(TopK(reference, queries[q], 5, Options().tau),
                            response.hits, where + " top-k");
      }
      ExpectRouterTiesOut(stack, static_cast<int64_t>(2 * queries.size()));
    }
  }
}

// A threshold request's floor reaches every shard: above tau, the router
// returns exactly the single index's hits at that floor, at any shard
// count (the one-shard router over an unsharded manager included).
TEST(ShardDeterminismTest, ThresholdSearchAppliesFloorAboveTau) {
  const std::vector<Object> queries = MakeQueries(40);
  const KJoinIndex& reference = *Stack().reference;
  constexpr double kFloor = 0.8;  // above tau = 0.6
  ThreadPool pool(2);
  serve::IndexManager unsharded(Stack().hierarchy, Options(), Stack().prepared.objects,
                                Stack().prepared.builder->TokenTable(),
                                Stack().dataset.synonyms, &pool);
  serve::LocalShard whole(&unsharded);
  serve::ShardRouter one_shard({&whole}, &pool);
  RouterStack three = MakeRouter(3, &pool);
  size_t dropped = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    serve::QueryRequest request;
    request.query = queries[q];
    request.min_similarity = kFloor;
    const std::vector<SearchHit> expected = TopK(reference, queries[q], 0, kFloor);
    dropped += SearchAll(reference, queries[q]).size() - expected.size();
    for (serve::ShardRouter* router : {&one_shard, three.router.get()}) {
      const serve::QueryResponse response = router->Search(request);
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ExpectHitsIdentical(expected, response.hits,
                          "query " + std::to_string(q) + " shards " +
                              std::to_string(router->num_shards()));
    }
  }
  EXPECT_GT(dropped, 0u) << "no query had a hit between tau and the floor";
  ExpectRouterTiesOut(three, static_cast<int64_t>(queries.size()));
}

// ------------------------------------------------- stale dictionaries

// Normalized labels of length 5-6 turned into unseen typos: each maps
// back with φ = 1 − 1/len <= 0.834, below 1.
std::vector<std::string> LabelTypos(const ObjectBuilder& builder,
                                    const TokenDictionary& dictionary, int count) {
  std::vector<std::string> typos;
  const Hierarchy& hierarchy = *Stack().hierarchy;
  for (NodeId v = 1; v < hierarchy.num_nodes() && static_cast<int>(typos.size()) < count; ++v) {
    std::string label;
    for (char c : hierarchy.label(v)) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        label.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      }
    }
    if (label.size() < 5 || label.size() > 6) continue;
    label[2] = label[2] == 'q' ? 'x' : 'q';
    if (dictionary.Find(label) >= 0) continue;
    const Object probe = builder.BuildQuery(-1, {label}, dictionary);
    if (probe.size() != 1 || !probe.elements[0].has_node()) continue;
    if (probe.elements[0].max_phi() >= 1.0) continue;
    if (std::find(typos.begin(), typos.end(), label) != typos.end()) continue;
    typos.push_back(label);
  }
  return typos;
}

// A query built against dictionary D0 searches an epoch holding an
// object inserted after D0 that carries the query's unknown tokens. The
// probe must re-resolve them: unmapped ones would otherwise probe only
// the reserved signature, and typo ones would let the weighted count
// bound charge φ < 1 for what is an identical token.
TEST(StaleDictionaryTest, QueryBuiltBeforeInsertMatchesBruteForce) {
  ShardStack& stack = Stack();
  // A private builder and index: the inserts must not leak into Stack().
  ObjectBuilder builder(*stack.prepared.matcher, /*multi_mapping=*/true);
  builder.PreloadTokens(stack.prepared.builder->TokenTable());
  KJoinOptions options = Options();
  // Tight enough that a φ-only bound (3 × 0.834 < 0.75 / 1.75 × 6)
  // prunes the inserted copy, and 2-element queries probe a 1-signature
  // prefix.
  options.tau = 0.75;

  const std::vector<std::string> typos = LabelTypos(builder, *builder.Dictionary(), 3);
  ASSERT_EQ(typos.size(), 3u);
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases = {
      {"unmapped", {"zqxjvkw", "wvkjxqz"}},
      {"typo", typos},
  };
  for (const auto& [name, tokens] : cases) {
    ThreadPool pool(2);
    serve::ShardedIndexManager manager(stack.hierarchy, options, stack.prepared.objects,
                                       builder.TokenTable(), stack.dataset.synonyms,
                                       /*num_shards=*/2, &pool);
    std::vector<std::unique_ptr<serve::LocalShard>> backends;
    std::vector<serve::ShardBackend*> shards;
    for (int s = 0; s < 2; ++s) {
      backends.push_back(std::make_unique<serve::LocalShard>(&manager, s));
      shards.push_back(backends.back().get());
    }
    serve::ShardRouter router(std::move(shards), &pool);

    const std::shared_ptr<const TokenDictionary> d0 = builder.Dictionary();
    const Object stale = builder.BuildQuery(-1, tokens, *d0);
    for (const Element& element : stale.elements) {
      ASSERT_EQ(element.token_id, -1) << name << ": " << element.token;
      ASSERT_EQ(element.has_node(), name == "typo") << name << ": " << element.token;
    }
    std::vector<Object> live = stack.prepared.objects;
    auto check = [&](const std::string& where) {
      const std::vector<SearchHit> expected =
          BruteForceSearch(*stack.hierarchy, live, stale, options);
      serve::QueryRequest request;
      request.query = stale;
      const serve::QueryResponse threshold = router.Search(request);
      ASSERT_TRUE(threshold.status.ok()) << where << ": " << threshold.status.ToString();
      ExpectHitsMatchOracle(expected, threshold.hits, where + " threshold");
      request.top_k = 3;
      const serve::QueryResponse top = router.Search(request);
      ASSERT_TRUE(top.status.ok()) << where << ": " << top.status.ToString();
      ExpectHitsMatchOracle(
          std::vector<SearchHit>(expected.begin(),
                                 expected.begin() + std::min<size_t>(3, expected.size())),
          top.hits, where + " top-3");
    };
    check(name + " before insert");

    live.push_back(builder.Build(9000, tokens));
    ASSERT_TRUE(manager.InsertBatch({live.back()}, builder.TokenTable()).ok());
    manager.Flush();
    check(name + " after insert");
    const std::vector<SearchHit> after =
        BruteForceSearch(*stack.hierarchy, live, stale, options);
    ASSERT_FALSE(after.empty());
    EXPECT_EQ(after.front().object_index, static_cast<int32_t>(live.size()) - 1) << name;
  }
}

// ------------------------------------------------- tie-break order

// Duplicate objects produce exactly-equal similarities; the documented
// total order (similarity desc, then object index asc) must decide the
// k-cut identically on the single index and through the router.
TEST(TopKTieBreakTest, TiedSimilaritiesBreakByAscendingObjectIndex) {
  ShardStack& stack = Stack();
  std::vector<Object> objects;
  for (int i = 0; i < 6; ++i) objects.push_back(stack.prepared.objects[0]);
  for (int i = 1; i < 5; ++i) objects.push_back(stack.prepared.objects[i]);
  KJoinIndex index(*stack.hierarchy, Options(), objects);

  const Object& query = stack.prepared.objects[0];
  const std::vector<SearchHit> top = TopK(index, query, 4, Options().tau);
  ASSERT_EQ(top.size(), 4u);
  // The six copies tie at the maximum similarity; the cut keeps the four
  // lowest object indexes, in ascending order.
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].object_index, static_cast<int32_t>(i));
    EXPECT_EQ(top[i].similarity, top[0].similarity);
  }
  // The full result set is in the documented total order.
  const std::vector<SearchHit> all = SearchAll(index, query);
  ASSERT_GE(all.size(), 6u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_TRUE(HitBefore(all[i - 1], all[i]) || !HitBefore(all[i], all[i - 1]));
    EXPECT_FALSE(HitBefore(all[i], all[i - 1]));
  }

  // Sharded: the tied group spreads across shards, and the gather must
  // reproduce the same cut.
  ThreadPool pool(1);
  auto manager = std::make_unique<serve::ShardedIndexManager>(
      stack.hierarchy, Options(), objects, stack.prepared.builder->TokenTable(),
      stack.dataset.synonyms, 2, &pool);
  serve::LocalShard shard0(manager.get(), 0);
  serve::LocalShard shard1(manager.get(), 1);
  serve::ShardRouter router({&shard0, &shard1}, &pool);
  serve::QueryRequest request;
  request.query = query;
  request.top_k = 4;
  const serve::QueryResponse response = router.Search(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ExpectHitsIdentical(top, response.hits, "sharded tie-break");
}

// ------------------------------------------------- progressive bound

TEST(ProgressiveBoundTest, TopKProbesTightenAndPrune) {
  ThreadPool pool(1);
  RouterStack stack = MakeRouter(8, &pool);
  const std::vector<Object> queries = MakeQueries(40);
  SearchStats total;
  for (const Object& query : queries) {
    serve::QueryRequest request;
    request.query = query;
    request.top_k = 3;
    const serve::QueryResponse response = stack.router->Search(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    total.bound_tightenings += response.stats.bound_tightenings;
    total.bound_pruned_lists += response.stats.bound_pruned_lists;
    total.bound_pruned_entries += response.stats.bound_pruned_entries;
    total.bound_raised_verifies += response.stats.bound_raised_verifies;
  }
  // Across the workload the shared bound must have both tightened and
  // saved work somewhere (exact counts are data-dependent).
  EXPECT_GT(total.bound_tightenings, 0);
  EXPECT_GT(total.bound_pruned_entries + total.bound_pruned_lists +
                total.bound_raised_verifies,
            0);
  ExpectRouterTiesOut(stack, static_cast<int64_t>(queries.size()));
}

// ------------------------------------------------------------ deadlines

// A shard reached after the deadline is not probed. On a one-lane pool
// the shards run in order:
// shard 0 answers, then stalls past the 20 ms deadline, so shards 1 and
// 2 are skipped and the query returns shard 0's hits with
// kDeadlineExceeded.
TEST(RouterDeadlineTest, ShardsReachedAfterTheDeadlineAreNotProbed) {
  ThreadPool pool(1);
  RouterStack stack = MakeRouter(3, &pool);
  // A query with hits on shard 0, and those hits as shard 0 alone finds
  // them.
  serve::QueryRequest request;
  request.top_k = 3;
  request.deadline_seconds = 0.02;
  serve::ShardReply shard0;
  for (const Object& query : MakeQueries(40)) {
    serve::ShardQuery probe;
    probe.query = &query;
    probe.top_k = request.top_k;
    probe.min_similarity = Options().tau;
    stack.backends[0]->Probe(probe, &shard0);
    ASSERT_TRUE(shard0.status.ok()) << shard0.status.ToString();
    if (!shard0.hits.empty()) {
      request.query = query;
      break;
    }
  }
  ASSERT_FALSE(shard0.hits.empty()) << "no query has a hit on shard 0";
  stack.gates[0]->SleepAfterProbe(std::chrono::milliseconds(60));

  const auto check = [&](const serve::QueryResponse& response, const std::string& where) {
    EXPECT_TRUE(IsDeadlineExceeded(response.status)) << where << ": "
                                                     << response.status.ToString();
    EXPECT_NE(response.status.message().find("before shard 1 was probed"), std::string::npos)
        << where << ": " << response.status.ToString();
    ASSERT_EQ(response.hits.size(), shard0.hits.size()) << where;
    for (size_t i = 0; i < shard0.hits.size(); ++i) {
      EXPECT_EQ(response.hits[i].object_index, shard0.hits[i].global_index) << where;
      EXPECT_EQ(response.hits[i].similarity, shard0.hits[i].similarity) << where;
    }
  };
  check(stack.router->Search(request), "Search");
  EXPECT_EQ(stack.gates[0]->probes(), 1);
  EXPECT_EQ(stack.gates[1]->probes(), 0);
  EXPECT_EQ(stack.gates[2]->probes(), 0);
  EXPECT_EQ(stack.metrics->counter("router.deadline_exceeded")->value(), 1);
  ExpectRouterTiesOut(stack, 1);
}

// ------------------------------------------------- WAL + recovery

TEST(ShardWalTest, RecoveryReconstructsNumberingAndAnswers) {
  const std::string prefix = testing::TempDir() + "/shard_test_recover.wal";
  for (int s = 0; s < 3; ++s) {
    std::remove((prefix + ".shard-" + std::to_string(s)).c_str());
  }
  ThreadPool pool(1);
  const std::vector<Object> queries = MakeQueries(12);
  std::vector<std::vector<SearchHit>> before;
  int64_t total_objects = 0;
  {
    RouterStack stack = MakeRouter(3, &pool);
    ASSERT_TRUE(stack.manager->AttachWal(prefix).ok());
    // Mutations that must survive: inserts (copies of existing objects,
    // so similarities duplicate deterministically) and one delete.
    std::vector<Object> inserts;
    for (int i = 0; i < 7; ++i) inserts.push_back(Stack().prepared.objects[i]);
    ASSERT_TRUE(stack.manager->InsertBatch(std::move(inserts)).ok());
    ASSERT_TRUE(stack.manager->DeleteObjects({3}).ok());
    stack.manager->Flush();
    total_objects = stack.manager->num_objects();
    EXPECT_EQ(total_objects, kRecords + 7);
    for (const Object& query : queries) {
      serve::QueryRequest request;
      request.query = query;
      before.push_back(stack.router->Search(request).hits);
    }
  }
  // Fresh stack from the same initial collection + the shard WAL set.
  RouterStack stack = MakeRouter(3, &pool);
  ASSERT_TRUE(stack.manager->AttachWal(prefix).ok());
  EXPECT_EQ(stack.manager->num_objects(), total_objects);
  for (size_t q = 0; q < queries.size(); ++q) {
    serve::QueryRequest request;
    request.query = queries[q];
    const serve::QueryResponse response = stack.router->Search(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ExpectHitsIdentical(before[q], response.hits, "recovered query " + std::to_string(q));
  }
  for (int s = 0; s < 3; ++s) {
    std::remove((prefix + ".shard-" + std::to_string(s)).c_str());
  }
}

TEST(ShardWalTest, MissingShardLogFailsReconstructionAsDataLoss) {
  const std::string prefix = testing::TempDir() + "/shard_test_dataloss.wal";
  for (int s = 0; s < 3; ++s) {
    std::remove((prefix + ".shard-" + std::to_string(s)).c_str());
  }
  ThreadPool pool(1);
  int victim = -1;
  {
    auto manager = MakeSharded(3, &pool);
    ASSERT_TRUE(manager->AttachWal(prefix).ok());
    std::vector<Object> inserts;
    for (int i = 0; i < 8; ++i) inserts.push_back(Stack().prepared.objects[i]);
    const int64_t base = manager->num_objects();
    ASSERT_TRUE(manager->InsertBatch(std::move(inserts)).ok());
    manager->Flush();
    // Pick a shard that actually received part of the batch.
    for (int s = 0; s < 3 && victim < 0; ++s) {
      if ((*manager->GlobalIndexes(s)).back() >= base) victim = s;
    }
    ASSERT_GE(victim, 0);
  }
  // Losing one shard's log makes the set non-reconstructible: the counts
  // no longer agree with the placement function.
  std::remove((prefix + ".shard-" + std::to_string(victim)).c_str());
  auto manager = MakeSharded(3, &pool);
  const Status status = manager->AttachWal(prefix);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsDataLoss(status)) << status.ToString();
  for (int s = 0; s < 3; ++s) {
    std::remove((prefix + ".shard-" + std::to_string(s)).c_str());
  }
}

// ------------------------------------------------------- chaos

// One shard's WAL goes bad and trips degraded read-only mode; the router
// must keep serving correct reads off every shard while sharded writes
// are rejected up front — and heal once the log recovers.
TEST(ShardChaosTest, DegradedShardKeepsServingReads) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const std::string prefix = testing::TempDir() + "/shard_test_chaos.wal";
  for (int s = 0; s < 4; ++s) {
    std::remove((prefix + ".shard-" + std::to_string(s)).c_str());
  }
  ThreadPool pool(1);
  RouterStack stack = MakeRouter(4, &pool);
  ASSERT_TRUE(stack.manager->AttachWal(prefix).ok());
  const KJoinIndex& reference = *Stack().reference;
  const std::vector<Object> queries = MakeQueries(8);

  {
    fault::Scope scope;
    fault::Enable("serve/wal_append");  // every append fails, as a full disk would
    // Trip ONE shard by writing to it directly; the default threshold is
    // 3 consecutive failures.
    serve::IndexManager* victim = stack.manager->shard(1);
    for (int i = 0; i < 3; ++i) {
      const Status failed = victim->InsertBatch({Stack().prepared.objects[0]});
      ASSERT_FALSE(failed.ok());
    }
    ASSERT_EQ(victim->HealthSnapshot().state, serve::HealthState::kDegradedReadOnly);
    // Worst-of health is degraded...
    EXPECT_EQ(stack.manager->HealthSnapshot().state,
              serve::HealthState::kDegradedReadOnly);
    // ...sharded writes are refused up front (numbering stays intact)...
    std::vector<Object> batch = {Stack().prepared.objects[1]};
    const Status rejected = stack.manager->InsertBatch(std::move(batch));
    ASSERT_FALSE(rejected.ok());
    EXPECT_TRUE(IsUnavailable(rejected)) << rejected.ToString();
    // ...and reads keep serving every shard, still byte-identical.
    for (const Object& query : queries) {
      serve::QueryRequest request;
      request.query = query;
      request.top_k = 5;
      const serve::QueryResponse response = stack.router->Search(request);
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ExpectHitsIdentical(TopK(reference, query, 5, Options().tau), response.hits,
                          "degraded read");
    }
  }
  // Fault disarmed: the shard's probe loop moves it to kRecovering (a
  // real acked append, not the probe, is what restores kServing — and
  // that append must flow through the sharded write path, so the gate
  // admits recovering shards).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stack.manager->HealthSnapshot().state == serve::HealthState::kDegradedReadOnly &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(stack.manager->HealthSnapshot().state, serve::HealthState::kDegradedReadOnly);
  // ShardOf walks pseudo-randomly, so keep inserting until the healing
  // append actually lands on the recovering shard.
  for (int i = 0; i < 64 &&
                  stack.manager->HealthSnapshot().state != serve::HealthState::kServing;
       ++i) {
    std::vector<Object> batch = {Stack().prepared.objects[1]};
    ASSERT_TRUE(stack.manager->InsertBatch(std::move(batch)).ok());
  }
  stack.manager->Flush();
  EXPECT_EQ(stack.manager->HealthSnapshot().state, serve::HealthState::kServing);
  for (int s = 0; s < 4; ++s) {
    std::remove((prefix + ".shard-" + std::to_string(s)).c_str());
  }
}

}  // namespace
}  // namespace kjoin
