// Tests for src/data: dataset generation, ground truth, quality metrics,
// the benchmark suite presets.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/benchmark_suite.h"
#include "data/dataset.h"
#include "data/dataset_io.h"
#include "data/generator.h"
#include "data/quality.h"
#include "hierarchy/hierarchy_generator.h"

namespace kjoin {
namespace {

TEST(QualityTest, PerfectMatch) {
  const std::vector<std::pair<int32_t, int32_t>> pairs = {{0, 1}, {2, 3}};
  const QualityReport report = EvaluateQuality(pairs, pairs);
  EXPECT_DOUBLE_EQ(report.precision, 1.0);
  EXPECT_DOUBLE_EQ(report.recall, 1.0);
  EXPECT_DOUBLE_EQ(report.f_measure, 1.0);
}

TEST(QualityTest, PartialOverlap) {
  const QualityReport report =
      EvaluateQuality({{0, 1}, {2, 3}, {4, 5}, {6, 7}}, {{0, 1}, {2, 3}, {8, 9}});
  EXPECT_EQ(report.true_positives, 2);
  EXPECT_DOUBLE_EQ(report.precision, 0.5);
  EXPECT_DOUBLE_EQ(report.recall, 2.0 / 3.0);
  EXPECT_NEAR(report.f_measure, 2 * 0.5 * (2.0 / 3.0) / (0.5 + 2.0 / 3.0), 1e-12);
}

TEST(QualityTest, OrderAndDuplicatesIgnored) {
  const QualityReport report = EvaluateQuality({{1, 0}, {0, 1}, {1, 0}}, {{0, 1}});
  EXPECT_EQ(report.reported, 1);
  EXPECT_EQ(report.true_positives, 1);
}

TEST(QualityTest, EmptyInputs) {
  const QualityReport all_empty = EvaluateQuality({}, {});
  EXPECT_DOUBLE_EQ(all_empty.precision, 1.0);
  EXPECT_DOUBLE_EQ(all_empty.recall, 1.0);
  const QualityReport nothing_reported = EvaluateQuality({}, {{0, 1}});
  EXPECT_DOUBLE_EQ(nothing_reported.precision, 1.0);
  EXPECT_DOUBLE_EQ(nothing_reported.recall, 0.0);
  EXPECT_DOUBLE_EQ(nothing_reported.f_measure, 0.0);
}

TEST(QualityTest, SelfPairsIgnored) {
  const QualityReport report = EvaluateQuality({{3, 3}}, {{0, 1}});
  EXPECT_EQ(report.reported, 0);
}

TEST(GroundTruthTest, PairsFromClusters) {
  Dataset dataset;
  dataset.records = {{0, 0, {}}, {1, 0, {}}, {2, -1, {}}, {3, 1, {}}, {4, 0, {}}, {5, 1, {}}};
  const auto pairs = GroundTruthPairs(dataset);
  // Cluster 0 = {0,1,4} -> 3 pairs; cluster 1 = {3,5} -> 1 pair.
  EXPECT_EQ(pairs.size(), 4u);
  const std::set<std::pair<int32_t, int32_t>> set(pairs.begin(), pairs.end());
  EXPECT_TRUE(set.count({0, 1}));
  EXPECT_TRUE(set.count({0, 4}));
  EXPECT_TRUE(set.count({1, 4}));
  EXPECT_TRUE(set.count({3, 5}));
}

TEST(DatasetGeneratorTest, ProducesRequestedCount) {
  const Hierarchy tree = GenerateHierarchy({/*num_nodes=*/500, /*height=*/5,
                                            /*avg_fanout=*/4.0, /*max_fanout=*/15,
                                            /*seed=*/3});
  RecordGenParams params;
  params.num_records = 777;
  params.min_depth = 2;
  params.max_depth = 5;
  params.seed = 5;
  const Dataset dataset = DatasetGenerator(tree, params).Generate("test");
  EXPECT_EQ(dataset.records.size(), 777u);
  EXPECT_EQ(dataset.name, "test");
  for (size_t i = 0; i < dataset.records.size(); ++i) {
    EXPECT_EQ(dataset.records[i].id, static_cast<int32_t>(i));
    EXPECT_FALSE(dataset.records[i].tokens.empty());
  }
}

TEST(DatasetGeneratorTest, DeterministicPerSeed) {
  const Hierarchy tree = GenerateHierarchy({300, 5, 4.0, 12, 3});
  RecordGenParams params;
  params.num_records = 100;
  params.min_depth = 2;
  params.max_depth = 5;
  params.seed = 5;
  const Dataset a = DatasetGenerator(tree, params).Generate("a");
  const Dataset b = DatasetGenerator(tree, params).Generate("b");
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_EQ(a.records[i].tokens, b.records[i].tokens);
    ASSERT_EQ(a.records[i].cluster, b.records[i].cluster);
  }
}

TEST(DatasetGeneratorTest, HasDuplicateClusters) {
  const Hierarchy tree = GenerateHierarchy({300, 5, 4.0, 12, 3});
  RecordGenParams params;
  params.num_records = 500;
  params.min_depth = 2;
  params.max_depth = 5;
  params.duplicate_fraction = 0.4;
  const Dataset dataset = DatasetGenerator(tree, params).Generate("dups");
  const auto truth = GroundTruthPairs(dataset);
  EXPECT_GT(truth.size(), 20u);
  // Duplicates should not be identical too often (perturbation applied).
  int identical = 0;
  for (const auto& [a, b] : truth) {
    identical += (dataset.records[a].tokens == dataset.records[b].tokens);
  }
  EXPECT_LT(identical, static_cast<int>(truth.size()));
}

TEST(DatasetGeneratorTest, SynonymTableRefersToRealLabels) {
  const Hierarchy tree = GenerateHierarchy({300, 5, 4.0, 12, 3});
  RecordGenParams params;
  params.num_records = 50;
  params.min_depth = 2;
  params.max_depth = 5;
  params.synonym_vocabulary_fraction = 0.5;
  const Dataset dataset = DatasetGenerator(tree, params).Generate("syn");
  EXPECT_FALSE(dataset.synonyms.empty());
  for (const auto& [alias, label] : dataset.synonyms) {
    EXPECT_FALSE(tree.NodesWithLabel(label).empty()) << label;
    EXPECT_NE(alias, label);
  }
}

TEST(BenchmarkSuiteTest, PubShapeMatchesTable3) {
  const BenchmarkData data = MakePubBenchmark();
  EXPECT_EQ(data.dataset.records.size(), 1879u);  // Table 3
  EntityMatcher matcher(data.hierarchy);
  const DatasetStats stats = ComputeDatasetStats(data.dataset, matcher);
  EXPECT_NEAR(stats.avg_len, 6.0, 2.0);
  EXPECT_GT(stats.num_truth_pairs, 100);
}

TEST(BenchmarkSuiteTest, ResShapeMatchesTable3) {
  const BenchmarkData data = MakeResBenchmark();
  EXPECT_EQ(data.dataset.records.size(), 864u);  // Table 3
  EntityMatcher matcher(data.hierarchy);
  const DatasetStats stats = ComputeDatasetStats(data.dataset, matcher);
  EXPECT_NEAR(stats.avg_len, 4.0, 0.5);
}

TEST(BenchmarkSuiteTest, PoiShapeMatchesTable3) {
  const BenchmarkData data = MakePoiBenchmark(2000);
  EXPECT_EQ(data.dataset.records.size(), 2000u);
  EXPECT_EQ(data.hierarchy.num_nodes(), 4222);  // Table 2 hierarchy
  EntityMatcher matcher(data.hierarchy);
  const DatasetStats stats = ComputeDatasetStats(data.dataset, matcher);
  EXPECT_NEAR(stats.avg_len, 11.0, 2.0);   // Table 3: AvgLen 11
  EXPECT_NEAR(stats.avg_depth, 4.0, 0.7);  // Table 3: AvgDep 4
}

TEST(BenchmarkSuiteTest, TweetShapeMatchesTable3) {
  const BenchmarkData data = MakeTweetBenchmark(2000);
  EntityMatcher matcher(data.hierarchy);
  const DatasetStats stats = ComputeDatasetStats(data.dataset, matcher);
  EXPECT_NEAR(stats.avg_len, 8.0, 2.0);    // Table 3: AvgLen ~8
  EXPECT_NEAR(stats.avg_depth, 5.0, 0.7);  // Table 3: AvgDep 5
}

TEST(BenchmarkSuiteTest, BuildObjectsSingleVsPlus) {
  const BenchmarkData data = MakeResBenchmark();
  const PreparedObjects single = BuildObjects(data.hierarchy, data.dataset, false);
  const PreparedObjects plus = BuildObjects(data.hierarchy, data.dataset, true);
  ASSERT_EQ(single.objects.size(), plus.objects.size());
  // Plus mode must map at least as many elements (synonyms + typos).
  int64_t single_mapped = 0, plus_mapped = 0;
  for (size_t i = 0; i < single.objects.size(); ++i) {
    for (const Element& e : single.objects[i].elements) single_mapped += e.has_node();
    for (const Element& e : plus.objects[i].elements) plus_mapped += e.has_node();
  }
  EXPECT_GT(plus_mapped, single_mapped);
}

TEST(DatasetIoTest, LineEndingsDoNotChangeTheParse) {
  // LF or CRLF, with or without a final newline: the same records.
  for (const char* text :
       {"S\tcolonel\tKFC\nR\t3\tpizza\thut\nR\t-1\tkfc", "S\tcolonel\tKFC\nR\t3\tpizza\thut\nR\t-1\tkfc\n",
        "S\tcolonel\tKFC\r\nR\t3\tpizza\thut\r\nR\t-1\tkfc",
        "S\tcolonel\tKFC\r\nR\t3\tpizza\thut\r\nR\t-1\tkfc\r\n"}) {
    auto parsed = ParseDataset(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    ASSERT_EQ(parsed->records.size(), 2u);
    EXPECT_EQ(parsed->records[0].cluster, 3);
    EXPECT_EQ(parsed->records[0].tokens, (std::vector<std::string>{"pizza", "hut"}));
    EXPECT_EQ(parsed->records[1].id, 1);
    EXPECT_EQ(parsed->records[1].tokens, std::vector<std::string>{"kfc"});
    ASSERT_EQ(parsed->synonyms.size(), 1u);
    EXPECT_EQ(parsed->synonyms[0], (std::pair<std::string, std::string>{"colonel", "KFC"}));
  }
}

TEST(DatasetIoTest, EmptyTokenFieldsAreKept) {
  // An empty field between tabs is an empty token; tabs at the end of a
  // line are stripped with its other whitespace.
  auto parsed = ParseDataset("R\t1\ta\t\tb\nR\t2\t\tc\nR\t3\td\t\t\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed->records.size(), 3u);
  EXPECT_EQ(parsed->records[0].tokens, (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(parsed->records[1].tokens, (std::vector<std::string>{"", "c"}));
  EXPECT_EQ(parsed->records[2].tokens, std::vector<std::string>{"d"});
}

TEST(DatasetIoTest, MalformedLineErrorsAreStable) {
  // Every error names the source and the line; blank and comment lines
  // count towards the line number.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"# c\n\nX\t1\ta", "data.tsv:3: unknown line type 'X'"},
      {"R\t1\ta\r\n\r\n# x\r\nR\tabc\ttok\r\n", "data.tsv:4: bad cluster 'abc'"},
      {"R\t 7x\ttok", "data.tsv:1: bad cluster ' 7x'"},
      {"R\t99999999999\ttok", "data.tsv:1: bad cluster '99999999999'"},
      {"R\t1\ta\nR\t1", "data.tsv:2: record lines need a cluster and >= 1 token"},
      {"\n\nS\talias", "data.tsv:3: synonym lines need 3 fields, got 2"},
      {"S\ta\tb\tc", "data.tsv:1: synonym lines need 3 fields, got 4"},
      {"S\ta\t\xff", "data.tsv:1: synonym is not valid UTF-8"},
      {"R\t1\tok\t\xc3\n", "data.tsv:1: token 1 is not valid UTF-8"},
      {"R\t1\t\xc3\t\xa9", "data.tsv:1: token 0 is not valid UTF-8"},
      {"R\t1\tok\tcaf\xc3\xa9\t\xe2\x82\tok", "data.tsv:1: token 2 is not valid UTF-8"},
      {"\t\t\n R \t1\ta", "data.tsv:2: unknown line type 'R '"},
      {"r\t1\ta", "data.tsv:1: unknown line type 'r'"},
  };
  for (const auto& [text, message] : cases) {
    const auto parsed = ParseDataset(text, "data.tsv");
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_TRUE(IsInvalidArgument(parsed.status())) << text;
    EXPECT_EQ(parsed.status().message(), message) << text;
  }
}

TEST(BenchmarkSuiteTest, DatasetStatsComputesLengths) {
  Dataset dataset;
  dataset.name = "mini";
  dataset.records = {{0, -1, {"a", "b"}}, {1, -1, {"c"}}, {2, -1, {"d", "e", "f"}}};
  const Hierarchy tree = GenerateHierarchy({100, 3, 4.0, 10, 1});
  EntityMatcher matcher(tree);
  const DatasetStats stats = ComputeDatasetStats(dataset, matcher);
  EXPECT_EQ(stats.size, 3);
  EXPECT_DOUBLE_EQ(stats.avg_len, 2.0);
  EXPECT_EQ(stats.max_len, 3);
  EXPECT_EQ(stats.min_len, 1);
}

}  // namespace
}  // namespace kjoin
