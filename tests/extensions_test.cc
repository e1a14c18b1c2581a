// Tests for the system layers around the join: KJoinIndex (similarity
// search), result clustering, dataset IO, and parallel verification.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/naive_join.h"
#include "core/clustering.h"
#include "core/kjoin_index.h"
#include "data/benchmark_suite.h"
#include "data/dataset_io.h"
#include "hierarchy/hierarchy_builder.h"
#include "search_helpers.h"
#include "verify_helpers.h"

namespace kjoin {
namespace {

using test::BruteForceSearch;
using test::ExpectHitsMatchOracle;
using test::SearchAll;
using test::TopK;

// ------------------------------------------------------------ KJoinIndex

class SearchFixture : public testing::Test {
 protected:
  SearchFixture() : data_(MakeResBenchmark()) {
    prepared_ = BuildObjects(data_.hierarchy, data_.dataset, /*multi_mapping=*/true, 0.7);
    options_.delta = 0.7;
    options_.tau = 0.6;
    options_.plus_mode = true;
  }

  BenchmarkData data_;
  PreparedObjects prepared_;
  KJoinOptions options_;
};

TEST_F(SearchFixture, SearchMatchesLinearScan) {
  const KJoinIndex index(data_.hierarchy, options_, prepared_.objects);
  const LcaIndex lca(data_.hierarchy);
  const ElementSimilarity esim(lca);
  const ObjectSimilarity osim(esim, options_.delta, options_.set_metric);

  for (int32_t q = 0; q < 40; ++q) {
    const Object& query = prepared_.objects[q];
    std::set<int32_t> expected;
    for (int32_t i = 0; i < static_cast<int32_t>(prepared_.objects.size()); ++i) {
      if (i == q) continue;
      if (osim.Similarity(query, prepared_.objects[i]) >= options_.tau - 1e-9) {
        expected.insert(i);
      }
    }
    std::set<int32_t> got;
    for (const SearchHit& hit : SearchAll(index, query)) {
      if (hit.object_index != q) got.insert(hit.object_index);
    }
    ASSERT_EQ(got, expected) << "query " << q;
  }
}

TEST_F(SearchFixture, HitsSortedBySimilarity) {
  const KJoinIndex index(data_.hierarchy, options_, prepared_.objects);
  const auto hits = SearchAll(index, prepared_.objects[3]);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].similarity, hits[i].similarity);
  }
  // The object itself is indexed and must be a perfect hit.
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].object_index, 3);
  EXPECT_NEAR(hits[0].similarity, 1.0, 1e-9);
}

TEST_F(SearchFixture, TopKRespectsKAndThreshold) {
  const KJoinIndex index(data_.hierarchy, options_, prepared_.objects);
  const auto all = SearchAll(index, prepared_.objects[5]);
  const auto top2 = TopK(index, prepared_.objects[5], 2, options_.tau);
  EXPECT_LE(top2.size(), 2u);
  for (size_t i = 0; i < top2.size(); ++i) EXPECT_EQ(top2[i], all[i]);
  const auto strict = TopK(index, prepared_.objects[5], 0, 0.99);
  for (const SearchHit& hit : strict) EXPECT_GE(hit.similarity, 0.99 - 1e-9);
}

TEST_F(SearchFixture, QueryWithUnknownTokensIsSafe) {
  const KJoinIndex index(data_.hierarchy, options_, prepared_.objects);
  Object query = prepared_.builder->Build(9999, {"zzzzneverseen", "qqqqalsonew"});
  EXPECT_TRUE(SearchAll(index, query).empty());
}

TEST_F(SearchFixture, InsertMakesObjectSearchable) {
  // Start with the first half indexed, layer the second half over it, and
  // check each layered object finds itself and its duplicates.
  const auto half = static_cast<std::ptrdiff_t>(prepared_.objects.size() / 2);
  const auto base = std::make_shared<const KJoinIndex>(
      data_.hierarchy, options_,
      std::vector<Object>(prepared_.objects.begin(), prepared_.objects.begin() + half));
  const KJoinIndex index(
      base, std::vector<Object>(prepared_.objects.begin() + half, prepared_.objects.end()), {});
  EXPECT_EQ(index.num_indexed(), static_cast<int64_t>(prepared_.objects.size()));
  // Layered objects continue the base's numbering.
  for (size_t i = static_cast<size_t>(half); i < prepared_.objects.size(); ++i) {
    ASSERT_EQ(index.object_at(static_cast<int32_t>(i)).id, prepared_.objects[i].id) << i;
  }
  // Every object must now retrieve itself as a perfect hit.
  for (int32_t q : {0, 100, 500, 863}) {
    const auto hits = SearchAll(index, prepared_.objects[q]);
    ASSERT_FALSE(hits.empty()) << q;
    EXPECT_EQ(hits[0].object_index, q);
    EXPECT_NEAR(hits[0].similarity, 1.0, 1e-9);
  }
}

TEST_F(SearchFixture, InsertMatchesRebuiltIndex) {
  const auto base = std::make_shared<const KJoinIndex>(
      data_.hierarchy, options_,
      std::vector<Object>(prepared_.objects.begin(), prepared_.objects.begin() + 400));
  const KJoinIndex layered(
      base, std::vector<Object>(prepared_.objects.begin() + 400, prepared_.objects.end()), {});
  const KJoinIndex rebuilt(data_.hierarchy, options_, prepared_.objects);
  for (int32_t q = 0; q < 30; ++q) {
    ASSERT_EQ(SearchAll(layered, prepared_.objects[q]), SearchAll(rebuilt, prepared_.objects[q]))
        << "query " << q;
  }
}

// A three-layer chain whose tombstones hit a base object, a middle-layer
// object, an object its own layer inserted, one index twice (and one
// already deleted lower down), and every carrier of one signature. Every
// layer also holds empty objects, one of them tombstoned. Its threshold
// and top-k answers, and those of the flat index rebuilt from Flatten(),
// must equal brute force over the live objects — for an empty query too,
// whose hits are the live empty objects at similarity 1.
TEST_F(SearchFixture, DeltaChainWithTombstonesMatchesBruteForce) {
  std::vector<Object> all = prepared_.objects;
  const int32_t n = static_cast<int32_t>(all.size());
  const int32_t a = n / 3;      // base: [0, a)
  const int32_t b = 2 * n / 3;  // middle: [a, b); top: [b, n)
  const std::vector<int32_t> empty = {7, a + 5, a + 7, b + 7, b + 11};  // a + 5 dies
  for (const int32_t index : empty) all[index].elements.clear();
  auto slice = [&](int32_t begin, int32_t end) {
    return std::vector<Object>(all.begin() + begin, all.begin() + end);
  };

  // Every carrier of one signature: a short list of the index over all
  // objects (chain-global indexes are collection positions).
  const KJoinIndex whole(data_.hierarchy, options_, all);
  std::vector<int32_t> carriers;
  SigId emptied = 0;
  const PostingStore& lists = whole.postings().lists;
  for (int32_t slot = 0; slot < lists.num_slots() && carriers.empty(); ++slot) {
    const int32_t length = lists.length(slot);
    const int32_t* docs = lists.docs(slot);
    if (length >= 2 && length <= 4 && docs[0] < a && docs[length - 1] >= b) {
      carriers.assign(docs, docs + length);
      emptied = whole.postings().keys[static_cast<size_t>(slot)];
    }
  }
  ASSERT_FALSE(carriers.empty()) << "no short signature list spans the chain";

  const auto base = std::make_shared<const KJoinIndex>(data_.hierarchy, options_, slice(0, a));
  const std::vector<int32_t> middle_dead = {3, a + 1, 3};
  const auto middle = std::make_shared<const KJoinIndex>(base, slice(a, b), middle_dead);
  std::vector<int32_t> top_dead = {a + 5, b + 2, 3};
  top_dead.insert(top_dead.end(), carriers.begin(), carriers.end());
  const auto top = std::make_shared<const KJoinIndex>(middle, slice(b, n), top_dead);
  ASSERT_EQ(top->delta_depth(), 2);

  std::vector<int32_t> tombstones = middle_dead;
  tombstones.insert(tombstones.end(), top_dead.begin(), top_dead.end());
  std::sort(tombstones.begin(), tombstones.end());
  tombstones.erase(std::unique(tombstones.begin(), tombstones.end()), tombstones.end());
  EXPECT_EQ(middle->num_live(), b - 2);
  EXPECT_EQ(top->num_live(), n - static_cast<int64_t>(tombstones.size()));
  for (const int32_t index : tombstones) EXPECT_TRUE(top->deleted(index)) << index;

  std::vector<Object> flat_objects;
  KJoinIndex::RestoredParts parts;
  top->Flatten(&flat_objects, &parts);
  EXPECT_EQ(parts.tombstones, tombstones);
  EXPECT_EQ(parts.postings.Find(emptied), -1) << "a list of dead carriers only survived";
  const KJoinIndex flat(data_.hierarchy, options_, std::move(flat_objects), std::move(parts));
  EXPECT_EQ(flat.num_live(), top->num_live());

  std::vector<int32_t> queries = tombstones;
  for (int32_t q = 0; q < n; q += 23) queries.push_back(q);
  queries.push_back(empty[0]);
  int64_t total_hits = 0;
  for (const int32_t q : queries) {
    const Object& query = all[q];
    const std::vector<SearchHit> expected =
        BruteForceSearch(data_.hierarchy, all, query, options_, tombstones);
    if (query.size() == 0) {
      EXPECT_EQ(expected.size(), empty.size() - 1) << "query " << q;
    }
    total_hits += static_cast<int64_t>(expected.size());
    for (const KJoinIndex* index : {top.get(), &flat}) {
      const std::string where =
          std::string(index == &flat ? "flattened" : "chain") + " query " + std::to_string(q);
      ExpectHitsMatchOracle(expected, TopK(*index, query, 0, options_.tau),
                            where + " threshold");
      for (const int32_t k : {1, 3}) {
        ExpectHitsMatchOracle(
            std::vector<SearchHit>(expected.begin(),
                                   expected.begin() + std::min<size_t>(k, expected.size())),
            TopK(*index, query, k, options_.tau), where + " top-" + std::to_string(k));
      }
    }
  }
  EXPECT_GT(total_hits, 0) << "the workload found no hits";
}

TEST_F(SearchFixture, CandidateCountIsBounded) {
  const KJoinIndex index(data_.hierarchy, options_, prepared_.objects);
  std::vector<SearchHit> hits;
  SearchStats stats;
  ASSERT_TRUE(
      index.SearchTopK(prepared_.objects[0], 0, options_.tau, JoinControl{}, &hits, &stats)
          .ok());
  EXPECT_LE(stats.candidates, index.num_indexed());
}

// A threshold search at τ is exactly "every indexed object the verifier
// accepts at τ", scored by ObjectSimilarity and sorted by HitBefore —
// including a hit whose similarity sits within 1e-9 below τ, which the
// verifier's tolerance accepts and the floor must not drop.
TEST_F(SearchFixture, ThresholdSearchAtTauIsTheVerifierScan) {
  const auto scan = [&](const KJoinOptions& options, const Object& query) {
    const LcaIndex lca(data_.hierarchy);
    const ElementSimilarity esim(lca, options.element_metric);
    const SignatureGenerator signatures(data_.hierarchy, options.element_metric,
                                        options.scheme, options.delta);
    const Verifier verifier(
        esim, signatures,
        VerifierOptions{options.delta, options.tau, options.verify_mode, options.set_metric,
                        options.count_pruning, options.weighted_count_pruning,
                        options.plus_mode});
    const ObjectSimilarity osim(esim, options.delta, options.set_metric);
    std::vector<SearchHit> hits;
    VerifyStats stats;
    for (int32_t i = 0; i < static_cast<int32_t>(prepared_.objects.size()); ++i) {
      if (test::VerifyWithFreshPlans(verifier, query, prepared_.objects[i], &stats)) {
        hits.push_back({i, osim.Similarity(query, prepared_.objects[i])});
      }
    }
    std::sort(hits.begin(), hits.end(), HitBefore);
    return hits;
  };

  const KJoinIndex index(data_.hierarchy, options_, prepared_.objects);
  for (int32_t q = 0; q < 25; ++q) {
    ASSERT_EQ(TopK(index, prepared_.objects[q], 0, options_.tau),
              scan(options_, prepared_.objects[q]))
        << "query " << q;
  }

  // Re-threshold just above the first imperfect hit's similarity.
  int32_t q = 0;
  SearchHit near;
  for (; q < static_cast<int32_t>(prepared_.objects.size()); ++q) {
    const std::vector<SearchHit> hits = SearchAll(index, prepared_.objects[q]);
    const auto it = std::find_if(hits.begin(), hits.end(),
                                 [](const SearchHit& hit) { return hit.similarity < 0.99; });
    if (it != hits.end()) {
      near = *it;
      break;
    }
  }
  ASSERT_LT(q, static_cast<int32_t>(prepared_.objects.size())) << "no imperfect hit";
  const Object& query = prepared_.objects[q];
  KJoinOptions edge = options_;
  edge.tau = near.similarity + 2e-10;
  const KJoinIndex edge_index(data_.hierarchy, edge, prepared_.objects);
  const std::vector<SearchHit> expected = scan(edge, query);
  ASSERT_TRUE(std::any_of(expected.begin(), expected.end(), [&](const SearchHit& hit) {
    return hit.object_index == near.object_index;
  })) << "the verifier must accept the hit 2e-10 below tau";
  EXPECT_EQ(TopK(edge_index, query, 0, edge.tau), expected);
}

// ------------------------------------------------------------ clustering

TEST(ClusteringTest, ConnectedComponents) {
  const Clustering clustering = ClusterPairs(6, {{0, 1}, {1, 2}, {4, 5}});
  EXPECT_EQ(clustering.num_clusters, 3);  // {0,1,2}, {3}, {4,5}
  EXPECT_EQ(clustering.cluster_of[0], clustering.cluster_of[2]);
  EXPECT_NE(clustering.cluster_of[0], clustering.cluster_of[3]);
  EXPECT_EQ(clustering.cluster_of[4], clustering.cluster_of[5]);
  EXPECT_EQ(clustering.clusters[clustering.cluster_of[0]].size(), 3u);
}

TEST(ClusteringTest, NoPairsMeansSingletons) {
  const Clustering clustering = ClusterPairs(4, {});
  EXPECT_EQ(clustering.num_clusters, 4);
  for (const auto& cluster : clustering.clusters) EXPECT_EQ(cluster.size(), 1u);
}

TEST(ClusteringTest, DuplicateAndReversedPairs) {
  const Clustering a = ClusterPairs(3, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(a.num_clusters, 2);
}

TEST(ClusteringTest, PerfectClusteringScoresOne) {
  const std::vector<int32_t> truth = {0, 0, 1, 1, -1};
  const Clustering predicted = ClusterPairs(5, {{0, 1}, {2, 3}});
  const ClusterQuality quality = EvaluateClustering(predicted, truth);
  EXPECT_DOUBLE_EQ(quality.precision, 1.0);
  EXPECT_DOUBLE_EQ(quality.recall, 1.0);
  EXPECT_DOUBLE_EQ(quality.f1, 1.0);
}

TEST(ClusteringTest, OverMergingHurtsPrecision) {
  const std::vector<int32_t> truth = {0, 0, 1, 1};
  // Everything in one blob: 6 predicted pairs, 2 true, 2 common.
  const Clustering predicted = ClusterPairs(4, {{0, 1}, {1, 2}, {2, 3}});
  const ClusterQuality quality = EvaluateClustering(predicted, truth);
  EXPECT_EQ(quality.predicted_pairs, 6);
  EXPECT_EQ(quality.truth_pairs, 2);
  EXPECT_EQ(quality.common_pairs, 2);
  EXPECT_NEAR(quality.precision, 2.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(quality.recall, 1.0);
}

TEST(ClusteringTest, UnderMergingHurtsRecall) {
  const std::vector<int32_t> truth = {0, 0, 0};
  const Clustering predicted = ClusterPairs(3, {{0, 1}});
  const ClusterQuality quality = EvaluateClustering(predicted, truth);
  EXPECT_DOUBLE_EQ(quality.precision, 1.0);
  EXPECT_NEAR(quality.recall, 1.0 / 3.0, 1e-12);
}

TEST(ClusteringTest, EndToEndDeduplication) {
  const BenchmarkData data = MakeResBenchmark();
  const PreparedObjects prepared = BuildObjects(data.hierarchy, data.dataset, true, 0.5);
  KJoinOptions options;
  options.delta = 0.5;
  // Transitive closure amplifies any false pair into a merged blob, so
  // clustering wants a stricter tau than the pairwise join.
  options.tau = 0.75;
  options.plus_mode = true;
  const JoinResult result = KJoin(data.hierarchy, options).SelfJoin(prepared.objects);
  const Clustering clustering =
      ClusterPairs(static_cast<int64_t>(prepared.objects.size()), result.pairs);
  std::vector<int32_t> truth;
  for (const Record& record : data.dataset.records) truth.push_back(record.cluster);
  const ClusterQuality quality = EvaluateClustering(clustering, truth);
  EXPECT_GT(quality.f1, 0.6);
  EXPECT_GT(quality.precision, 0.7);
}

// ------------------------------------------------------------ dataset IO

TEST(DatasetIoTest, RoundTrip) {
  Dataset dataset;
  dataset.name = "mini";
  dataset.records = {{0, 3, {"pizza", "nyc"}}, {1, -1, {"sushi"}}, {2, 3, {"pizza", "ny"}}};
  dataset.synonyms = {{"bigapple", "nyc"}};
  auto parsed = ParseDataset(SerializeDataset(dataset), "mini");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->records.size(), 3u);
  EXPECT_EQ(parsed->records[0].tokens, dataset.records[0].tokens);
  EXPECT_EQ(parsed->records[0].cluster, 3);
  EXPECT_EQ(parsed->records[1].cluster, -1);
  EXPECT_EQ(parsed->synonyms, dataset.synonyms);
}

TEST(DatasetIoTest, GeneratedDatasetRoundTrips) {
  const BenchmarkData data = MakePoiBenchmark(200);
  auto parsed = ParseDataset(SerializeDataset(data.dataset));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->records.size(), data.dataset.records.size());
  for (size_t i = 0; i < parsed->records.size(); ++i) {
    ASSERT_EQ(parsed->records[i].tokens, data.dataset.records[i].tokens);
    ASSERT_EQ(parsed->records[i].cluster, data.dataset.records[i].cluster);
  }
}

TEST(DatasetIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseDataset("X\t1\ta").has_value());        // unknown type
  EXPECT_FALSE(ParseDataset("R\tabc\ttok").has_value());    // bad cluster
  EXPECT_FALSE(ParseDataset("R\t1").has_value());           // no tokens
  EXPECT_FALSE(ParseDataset("S\talias").has_value());       // synonym arity
}

TEST(DatasetIoTest, IgnoresCommentsAndEmptyInput) {
  auto empty = ParseDataset("# nothing here\n\n");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->records.empty());
}

TEST(DatasetIoTest, FileRoundTrip) {
  const BenchmarkData data = MakeResBenchmark();
  const std::string path = testing::TempDir() + "/kjoin_dataset_test.tsv";
  ASSERT_TRUE(WriteDatasetFile(data.dataset, path).ok());
  auto loaded = ReadDatasetFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->records.size(), data.dataset.records.size());
  EXPECT_FALSE(ReadDatasetFile("/nonexistent/file.tsv").has_value());
}

// ------------------------------------------------- parallel verification

TEST(ParallelJoinTest, ThreadsProduceIdenticalResults) {
  const BenchmarkData data = MakePoiBenchmark(1500, 21);
  const PreparedObjects prepared = BuildObjects(data.hierarchy, data.dataset, false);
  KJoinOptions options;
  options.delta = 0.8;
  options.tau = 0.8;

  const JoinResult sequential = KJoin(data.hierarchy, options).SelfJoin(prepared.objects);
  for (int threads : {2, 4, 8}) {
    options.num_threads = threads;
    const JoinResult parallel = KJoin(data.hierarchy, options).SelfJoin(prepared.objects);
    ASSERT_EQ(parallel.pairs, sequential.pairs) << threads << " threads";
    ASSERT_EQ(parallel.stats.candidates, sequential.stats.candidates);
    ASSERT_EQ(parallel.stats.verify.pairs_verified,
              sequential.stats.verify.pairs_verified);
  }
}

TEST(ParallelJoinTest, RsJoinParallelMatchesSequential) {
  const BenchmarkData data = MakeTweetBenchmark(1200, 23);
  const PreparedObjects prepared = BuildObjects(data.hierarchy, data.dataset, false);
  std::vector<Object> left(prepared.objects.begin(), prepared.objects.begin() + 600);
  std::vector<Object> right(prepared.objects.begin() + 600, prepared.objects.end());
  KJoinOptions options;
  options.delta = 0.8;
  options.tau = 0.75;
  const JoinResult sequential = KJoin(data.hierarchy, options).Join(left, right);
  options.num_threads = 4;
  const JoinResult parallel = KJoin(data.hierarchy, options).Join(left, right);
  EXPECT_EQ(parallel.pairs, sequential.pairs);
}

}  // namespace
}  // namespace kjoin
