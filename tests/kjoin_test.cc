// End-to-end tests of the K-Join driver: completeness/correctness against
// the exhaustive NaiveJoin oracle across the full option matrix
// (signature schemes × prefix rules × verifiers × metrics × modes), the
// paper's running example, and R-S joins.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include "baselines/naive_join.h"
#include "common/rng.h"
#include "core/kjoin.h"
#include "data/benchmark_suite.h"
#include "data/generator.h"
#include "hierarchy/dag.h"
#include "hierarchy/hierarchy_builder.h"
#include "hierarchy/hierarchy_generator.h"

namespace kjoin {
namespace {

using PairSet = std::set<std::pair<int32_t, int32_t>>;

PairSet ToSet(const std::vector<std::pair<int32_t, int32_t>>& pairs) {
  PairSet set;
  for (auto [a, b] : pairs) {
    if (a > b) std::swap(a, b);
    set.emplace(a, b);
  }
  return set;
}

TEST(KJoinTest, PaperRunningExample) {
  // Table 1 objects, δ = 0.7, τ = 0.6. ⟨S1, S3⟩ is the worked answer.
  const Hierarchy tree = MakeFigure1Hierarchy();
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, /*multi_mapping=*/false);
  const std::vector<std::vector<std::string>> table1 = {
      {"BurgerKing", "MountainView"},
      {"Pizza", "PaloAlto", "Brooklyn"},
      {"Fastfood", "GoogleHeadquarters"},
      {"PizzaHut", "KFC", "CA"},
      {"Pizza", "GoogleHeadquarters"},
      {"Fastfood", "Manhattan"},
      {"Brooklyn", "Food"},
      {"Pizza", "KFC", "Dominos", "SanFrancisco", "Manhattan", "Brooklyn"},
      {"Fastfood", "PizzaHut", "BurgerKing", "PaloAlto", "MountainView", "NewYork"},
  };
  std::vector<Object> objects;
  for (size_t i = 0; i < table1.size(); ++i) {
    objects.push_back(builder.Build(static_cast<int32_t>(i), table1[i]));
  }

  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 0.6;
  const KJoin join(tree, options);
  const JoinResult result = join.SelfJoin(objects);
  const JoinResult oracle = NaiveJoin(tree, options).SelfJoin(objects);
  EXPECT_EQ(ToSet(result.pairs), ToSet(oracle.pairs));
  // S1 (index 0) and S3 (index 2) must be reported.
  EXPECT_TRUE(ToSet(result.pairs).count({0, 2}));
}

TEST(KJoinTest, FilterNeverExceedsAllPairs) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, false);
  Rng rng(5);
  std::vector<std::string> labels;
  for (NodeId v = 1; v < tree.num_nodes(); ++v) labels.push_back(tree.label(v));
  std::vector<Object> objects;
  for (int i = 0; i < 40; ++i) {
    std::vector<std::string> tokens;
    const int n = 1 + static_cast<int>(rng.NextUint64(5));
    for (int k = 0; k < n; ++k) tokens.push_back(labels[rng.NextUint64(labels.size())]);
    objects.push_back(builder.Build(i, tokens));
  }
  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 0.8;
  const JoinResult result = KJoin(tree, options).SelfJoin(objects);
  EXPECT_LE(result.stats.candidates, 40 * 39 / 2);
  EXPECT_GE(result.stats.candidates, result.stats.results);
}

// -------- randomized completeness sweep over the option matrix ----------

struct SweepCase {
  SignatureScheme scheme;
  bool weighted_prefix;
  VerifyMode verify_mode;
  SetMetric set_metric;
  ElementMetric element_metric;
  bool plus_mode;
  double delta;
  double tau;
};

std::string CaseName(const testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string name;
  switch (c.scheme) {
    case SignatureScheme::kNode: name += "Node"; break;
    case SignatureScheme::kShallowPath: name += "Shallow"; break;
    case SignatureScheme::kDeepPath: name += "Deep"; break;
  }
  name += c.weighted_prefix ? "Weighted" : "Plain";
  switch (c.verify_mode) {
    case VerifyMode::kBasic: name += "Basic"; break;
    case VerifyMode::kSubGraph: name += "SubGraph"; break;
    case VerifyMode::kAdaptive: name += "Adaptive"; break;
  }
  switch (c.set_metric) {
    case SetMetric::kJaccard: name += "Jaccard"; break;
    case SetMetric::kDice: name += "Dice"; break;
    case SetMetric::kCosine: name += "Cosine"; break;
  }
  name += c.element_metric == ElementMetric::kKJoin ? "KJ" : "WP";
  name += c.plus_mode ? "Plus" : "Single";
  name += "D" + std::to_string(static_cast<int>(c.delta * 100));
  name += "T" + std::to_string(static_cast<int>(c.tau * 100));
  return name;
}

class KJoinSweepTest : public testing::TestWithParam<SweepCase> {};

TEST_P(KJoinSweepTest, MatchesNaiveJoin) {
  const SweepCase& c = GetParam();

  // A mid-sized random hierarchy plus a noisy dataset with duplicates —
  // the perturbation channels exercise sibling swaps, typos, synonyms.
  HierarchyGenParams tree_params;
  tree_params.num_nodes = 300;
  tree_params.height = 5;
  tree_params.avg_fanout = 4.0;
  tree_params.max_fanout = 10;
  tree_params.seed = 42;
  const Hierarchy tree = GenerateHierarchy(tree_params);

  RecordGenParams data_params;
  data_params.num_records = 120;
  data_params.avg_elements = 5;
  data_params.min_elements = 2;
  data_params.max_elements = 9;
  data_params.min_depth = 2;
  data_params.max_depth = 5;
  data_params.duplicate_fraction = 0.5;
  data_params.unmatched_token_rate = 0.15;
  data_params.seed = 99;
  const Dataset dataset = DatasetGenerator(tree, data_params).Generate("sweep");

  const PreparedObjects prepared = BuildObjects(tree, dataset, c.plus_mode);

  KJoinOptions options;
  options.delta = c.delta;
  options.tau = c.tau;
  options.scheme = c.scheme;
  options.weighted_prefix = c.weighted_prefix;
  options.verify_mode = c.verify_mode;
  options.set_metric = c.set_metric;
  options.element_metric = c.element_metric;
  options.plus_mode = c.plus_mode;

  const JoinResult result = KJoin(tree, options).SelfJoin(prepared.objects);
  const JoinResult oracle = NaiveJoin(tree, options).SelfJoin(prepared.objects);

  const PairSet got = ToSet(result.pairs);
  const PairSet expected = ToSet(oracle.pairs);
  // Completeness is the property every filter lemma promises; report any
  // missing pair precisely.
  for (const auto& pair : expected) {
    EXPECT_TRUE(got.count(pair)) << "missing pair (" << pair.first << ", " << pair.second
                                 << ")";
  }
  for (const auto& pair : got) {
    EXPECT_TRUE(expected.count(pair))
        << "spurious pair (" << pair.first << ", " << pair.second << ")";
  }
  EXPECT_FALSE(expected.empty()) << "sweep case degenerated: no true pairs to check";
}

INSTANTIATE_TEST_SUITE_P(
    FilterSchemes, KJoinSweepTest,
    testing::Values(
        SweepCase{SignatureScheme::kNode, false, VerifyMode::kAdaptive, SetMetric::kJaccard,
                  ElementMetric::kKJoin, false, 0.7, 0.6},
        SweepCase{SignatureScheme::kShallowPath, false, VerifyMode::kAdaptive,
                  SetMetric::kJaccard, ElementMetric::kKJoin, false, 0.7, 0.6},
        SweepCase{SignatureScheme::kDeepPath, false, VerifyMode::kAdaptive, SetMetric::kJaccard,
                  ElementMetric::kKJoin, false, 0.7, 0.6},
        SweepCase{SignatureScheme::kDeepPath, true, VerifyMode::kAdaptive, SetMetric::kJaccard,
                  ElementMetric::kKJoin, false, 0.7, 0.6}),
    CaseName);

INSTANTIATE_TEST_SUITE_P(
    Verifiers, KJoinSweepTest,
    testing::Values(
        SweepCase{SignatureScheme::kDeepPath, true, VerifyMode::kBasic, SetMetric::kJaccard,
                  ElementMetric::kKJoin, false, 0.7, 0.7},
        SweepCase{SignatureScheme::kDeepPath, true, VerifyMode::kSubGraph, SetMetric::kJaccard,
                  ElementMetric::kKJoin, false, 0.7, 0.7},
        SweepCase{SignatureScheme::kDeepPath, true, VerifyMode::kAdaptive, SetMetric::kJaccard,
                  ElementMetric::kKJoin, false, 0.7, 0.7}),
    CaseName);

INSTANTIATE_TEST_SUITE_P(
    Thresholds, KJoinSweepTest,
    testing::Values(
        SweepCase{SignatureScheme::kDeepPath, true, VerifyMode::kAdaptive, SetMetric::kJaccard,
                  ElementMetric::kKJoin, false, 0.5, 0.5},
        SweepCase{SignatureScheme::kDeepPath, true, VerifyMode::kAdaptive, SetMetric::kJaccard,
                  ElementMetric::kKJoin, false, 0.6, 0.8},
        SweepCase{SignatureScheme::kDeepPath, true, VerifyMode::kAdaptive, SetMetric::kJaccard,
                  ElementMetric::kKJoin, false, 0.8, 0.9},
        SweepCase{SignatureScheme::kNode, false, VerifyMode::kAdaptive, SetMetric::kJaccard,
                  ElementMetric::kKJoin, false, 0.9, 0.5}),
    CaseName);

INSTANTIATE_TEST_SUITE_P(
    Metrics, KJoinSweepTest,
    testing::Values(
        SweepCase{SignatureScheme::kDeepPath, true, VerifyMode::kAdaptive, SetMetric::kDice,
                  ElementMetric::kKJoin, false, 0.7, 0.7},
        SweepCase{SignatureScheme::kDeepPath, true, VerifyMode::kAdaptive, SetMetric::kCosine,
                  ElementMetric::kKJoin, false, 0.7, 0.7},
        SweepCase{SignatureScheme::kDeepPath, true, VerifyMode::kAdaptive, SetMetric::kJaccard,
                  ElementMetric::kWuPalmer, false, 0.7, 0.7},
        SweepCase{SignatureScheme::kNode, false, VerifyMode::kSubGraph, SetMetric::kDice,
                  ElementMetric::kWuPalmer, false, 0.6, 0.6}),
    CaseName);

INSTANTIATE_TEST_SUITE_P(
    PlusMode, KJoinSweepTest,
    testing::Values(
        SweepCase{SignatureScheme::kDeepPath, true, VerifyMode::kAdaptive, SetMetric::kJaccard,
                  ElementMetric::kKJoin, true, 0.7, 0.6},
        SweepCase{SignatureScheme::kDeepPath, false, VerifyMode::kSubGraph, SetMetric::kJaccard,
                  ElementMetric::kKJoin, true, 0.7, 0.7},
        SweepCase{SignatureScheme::kNode, false, VerifyMode::kAdaptive, SetMetric::kJaccard,
                  ElementMetric::kKJoin, true, 0.8, 0.7},
        SweepCase{SignatureScheme::kShallowPath, false, VerifyMode::kBasic, SetMetric::kJaccard,
                  ElementMetric::kKJoin, true, 0.6, 0.6},
        SweepCase{SignatureScheme::kDeepPath, true, VerifyMode::kAdaptive, SetMetric::kJaccard,
                  ElementMetric::kWuPalmer, true, 0.7, 0.6},
        SweepCase{SignatureScheme::kDeepPath, true, VerifyMode::kAdaptive, SetMetric::kDice,
                  ElementMetric::kWuPalmer, true, 0.8, 0.7}),
    CaseName);

// ------------------------------------------------------------- R-S join

TEST(KJoinTest, RsJoinMatchesNaive) {
  HierarchyGenParams tree_params;
  tree_params.num_nodes = 200;
  tree_params.height = 5;
  tree_params.avg_fanout = 4.0;
  tree_params.seed = 9;
  const Hierarchy tree = GenerateHierarchy(tree_params);

  RecordGenParams data_params;
  data_params.num_records = 150;
  data_params.avg_elements = 4;
  data_params.min_elements = 2;
  data_params.max_elements = 7;
  data_params.min_depth = 2;
  data_params.max_depth = 5;
  data_params.duplicate_fraction = 0.6;
  data_params.seed = 123;
  const Dataset dataset = DatasetGenerator(tree, data_params).Generate("rs");
  const PreparedObjects prepared = BuildObjects(tree, dataset, /*multi_mapping=*/true);

  // Split into two collections sharing the builder's token space.
  // Interleave so duplicate clusters (adjacent records) straddle the two
  // sides and the join has true matches to find.
  std::vector<Object> left, right;
  for (size_t i = 0; i < prepared.objects.size(); ++i) {
    (i % 2 == 0 ? left : right).push_back(prepared.objects[i]);
  }

  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 0.6;
  options.plus_mode = true;
  const JoinResult result = KJoin(tree, options).Join(left, right);
  const JoinResult oracle = NaiveJoin(tree, options).Join(left, right);
  EXPECT_EQ(ToSet(result.pairs), ToSet(oracle.pairs));
  EXPECT_FALSE(oracle.pairs.empty());
}

TEST(KJoinTest, SelfJoinOrdersPairs) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, false);
  std::vector<Object> objects;
  objects.push_back(builder.Build(0, {"KFC", "CA"}));
  objects.push_back(builder.Build(1, {"KFC", "CA"}));
  objects.push_back(builder.Build(2, {"KFC", "CA"}));
  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 0.9;
  const JoinResult result = KJoin(tree, options).SelfJoin(objects);
  EXPECT_EQ(result.pairs.size(), 3u);
  for (auto [a, b] : result.pairs) EXPECT_LT(a, b);
}

TEST(KJoinTest, EmptyAndSingletonInputs) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  KJoinOptions options;
  const KJoin join(tree, options);
  EXPECT_TRUE(join.SelfJoin({}).pairs.empty());
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, false);
  std::vector<Object> one = {builder.Build(0, {"KFC"})};
  EXPECT_TRUE(join.SelfJoin(one).pairs.empty());
  EXPECT_TRUE(join.Join(one, {}).pairs.empty());
  EXPECT_TRUE(join.Join({}, one).pairs.empty());
}

TEST(KJoinTest, DagHierarchyThroughPlusMode) {
  // §6.5: a DAG is unfolded; the duplicated label maps to several nodes.
  Dag dag;
  const int32_t food = dag.AddNode("Food");
  const int32_t fast = dag.AddNode("Fastfood");
  const int32_t pizza = dag.AddNode("Pizza");
  const int32_t hut = dag.AddNode("PizzaHut");  // both fastfood and pizza
  dag.AddEdge(0, food);
  dag.AddEdge(food, fast);
  dag.AddEdge(food, pizza);
  dag.AddEdge(fast, hut);
  dag.AddEdge(pizza, hut);
  auto tree = ConvertDagToTree(dag);
  ASSERT_TRUE(tree.has_value());

  EntityMatcherOptions matcher_options;
  matcher_options.enable_approximate = false;
  EntityMatcher matcher(*tree, matcher_options);
  ObjectBuilder builder(matcher, /*multi_mapping=*/true);
  std::vector<Object> objects;
  objects.push_back(builder.Build(0, {"PizzaHut", "Fastfood"}));
  objects.push_back(builder.Build(1, {"PizzaHut", "Pizza"}));

  ASSERT_EQ(objects[0].elements[0].mappings.size(), 2u);  // both copies

  // Identical PizzaHut tokens give overlap 1; Fastfood-Pizza (LCA Food at
  // depth 1, both depth 2) is below δ. SIM = 1/(2+2−1) = 1/3.
  KJoinOptions options;
  options.delta = 0.6;
  options.tau = 0.3;
  options.plus_mode = true;
  const KJoin join(*tree, options);
  const JoinResult result = join.SelfJoin(objects);
  const JoinResult oracle = NaiveJoin(*tree, options).SelfJoin(objects);
  EXPECT_EQ(ToSet(result.pairs), ToSet(oracle.pairs));
  EXPECT_EQ(result.pairs.size(), 1u);
}

// ------------------------------------------ probe-side bounds at the edges
//
// The probe drops a pair before verification when its sizes alone rule
// it out (needed overlap > min(|x|, |y|) + 1e-9) or, in pure mode with
// count pruning, when Lemma 3's count bound does. Both must be lossless
// right at the boundary, where the needed overlap equals what the pair
// can reach.

// Exact lookups only, so hand-picked unmapped tokens stay unmapped.
EntityMatcher ExactMatcher(const Hierarchy& tree) {
  EntityMatcherOptions matcher_options;
  matcher_options.enable_approximate = false;
  return EntityMatcher(tree, matcher_options);
}

const std::vector<std::string> kEdgeLabels = {"BurgerKing", "Pizza",      "KFC",
                                              "Manhattan",  "Brooklyn",   "PaloAlto",
                                              "Dominos",    "SanFrancisco"};

std::vector<std::string> FirstLabels(int n) {
  return {kEdgeLabels.begin(), kEdgeLabels.begin() + n};
}

TEST(ProbeBoundsTest, PairsWhoseSmallerSideIsExactlyTheNeededOverlapAreVerified) {
  // x is the first `small` elements of y, so the fuzzy overlap is exactly
  // |x| and the similarity lands exactly on τ:
  //   Jaccard τ = 1/2,  sizes 2, 4: τ/(1+τ)·6 = 2 = |x|, SIM = 2/4;
  //   Dice    τ = 2/3,  sizes 2, 4: τ/2·6     = 2 = |x|, SIM = 4/6;
  //   Cosine  τ = 1/2,  sizes 2, 8: τ·√16     = 2 = |x|, SIM = 2/4.
  struct Edge {
    SetMetric metric;
    double tau;
    int small;
    int large;
  };
  const Hierarchy tree = MakeFigure1Hierarchy();
  for (const Edge& edge : {Edge{SetMetric::kJaccard, 0.5, 2, 4},
                           Edge{SetMetric::kDice, 2.0 / 3.0, 2, 4},
                           Edge{SetMetric::kCosine, 0.5, 2, 8}}) {
    for (const bool plus : {false, true}) {
      for (const bool count_pruning : {true, false}) {
        EntityMatcher matcher = ExactMatcher(tree);
        ObjectBuilder builder(matcher, /*multi_mapping=*/plus);
        const std::vector<Object> objects = {builder.Build(0, FirstLabels(edge.small)),
                                             builder.Build(1, FirstLabels(edge.large))};
        KJoinOptions options;
        options.delta = 0.7;
        options.tau = edge.tau;
        options.set_metric = edge.metric;
        options.plus_mode = plus;
        options.count_pruning = count_pruning;
        const std::string label = "metric " + std::to_string(static_cast<int>(edge.metric)) +
                                  (plus ? " plus" : " pure") +
                                  (count_pruning ? " count" : " no-count");
        const JoinResult result = KJoin(tree, options).SelfJoin(objects);
        EXPECT_EQ(result.stats.size_skipped, 0) << label;
        EXPECT_EQ(result.stats.count_filtered, 0) << label;
        EXPECT_EQ(result.stats.candidates, 1) << label;
        EXPECT_EQ(result.pairs, (std::vector<std::pair<int32_t, int32_t>>{{0, 1}})) << label;
        EXPECT_EQ(result.pairs, NaiveJoin(tree, options).SelfJoin(objects).pairs) << label;
      }
    }
  }
}

TEST(ProbeBoundsTest, OneElementShortOfTheEdgeIsFilteredUnverified) {
  // Jaccard τ = 1/2 with sizes 1 and 4 needs an overlap of 5/3 > 1. Every
  // element of the larger side repeats the smaller side's one element, so
  // any prefix of it shares a signature: the pair's posting entries are
  // in the larger side's lists, and its size window skips them (SIM is
  // 1/4).
  const Hierarchy tree = MakeFigure1Hierarchy();
  EntityMatcher matcher = ExactMatcher(tree);
  ObjectBuilder builder(matcher, /*multi_mapping=*/false);
  const std::vector<Object> objects = {
      builder.Build(0, {"Pizza"}), builder.Build(1, {"Pizza", "Pizza", "Pizza", "Pizza"})};
  ASSERT_EQ(objects[1].size(), 4);
  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 0.5;
  const JoinResult result = KJoin(tree, options).SelfJoin(objects);
  EXPECT_GT(result.stats.size_skipped, 0);
  EXPECT_EQ(result.stats.count_filtered, 0);
  EXPECT_EQ(result.stats.candidates, 0);
  EXPECT_EQ(result.stats.verify.pairs_verified, 0);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_TRUE(NaiveJoin(tree, options).SelfJoin(objects).pairs.empty());
}

TEST(ProbeBoundsTest, CountBoundKeepsExactlyTheReachablePairs) {
  // Jaccard τ = 1/2, sizes 4 and 4: the needed overlap is 8/3, so a pair
  // sharing 3 elements (SIM 3/5) must be verified and accepted, and one
  // sharing 2 (count bound 2 < 8/3, SIM 2/6) dropped by the count bound.
  // The rest are unmapped tokens, whose token signatures are distinct.
  const Hierarchy tree = MakeFigure1Hierarchy();
  for (const int shared : {3, 2}) {
    EntityMatcher matcher = ExactMatcher(tree);
    ObjectBuilder builder(matcher, /*multi_mapping=*/false);
    std::vector<std::string> x = FirstLabels(shared);
    std::vector<std::string> y = FirstLabels(shared);
    for (int k = shared; k < 4; ++k) {
      x.push_back("qxunmappedleft" + std::to_string(k));
      y.push_back("qxunmappedright" + std::to_string(k));
    }
    const std::vector<Object> objects = {builder.Build(0, x), builder.Build(1, y)};
    KJoinOptions options;
    options.delta = 0.7;
    options.tau = 0.5;
    const JoinResult result = KJoin(tree, options).SelfJoin(objects);
    const JoinResult oracle = NaiveJoin(tree, options).SelfJoin(objects);
    ASSERT_EQ(result.stats.candidates + result.stats.count_filtered, 1)
        << "the probe must find the pair for the bound to be exercised";
    EXPECT_EQ(result.stats.size_skipped, 0);
    EXPECT_EQ(result.stats.count_filtered, shared == 3 ? 0 : 1) << shared << " shared";
    EXPECT_EQ(result.pairs, oracle.pairs) << shared << " shared";
    EXPECT_EQ(result.pairs.size(), shared == 3 ? 1u : 0u) << shared << " shared";
  }
}

TEST(ProbeBoundsTest, ZeroTauFiltersNothing) {
  // τ = 0: every pair is similar, so neither bound may drop anything.
  // Every object carries "Pizza", so every pair shares a signature and is
  // found by the probe.
  const Hierarchy tree = MakeFigure1Hierarchy();
  Rng rng(14);
  std::vector<std::string> labels;
  for (NodeId v = 1; v < tree.num_nodes(); ++v) labels.push_back(tree.label(v));
  for (const SetMetric metric : {SetMetric::kJaccard, SetMetric::kDice, SetMetric::kCosine}) {
    for (const bool plus : {false, true}) {
      EntityMatcher matcher = ExactMatcher(tree);
      ObjectBuilder builder(matcher, /*multi_mapping=*/plus);
      std::vector<Object> objects;
      for (int i = 0; i < 30; ++i) {
        std::vector<std::string> tokens = {"Pizza"};
        const int n = static_cast<int>(rng.NextUint64(7));
        for (int k = 0; k < n; ++k) tokens.push_back(labels[rng.NextUint64(labels.size())]);
        objects.push_back(builder.Build(i, tokens));
      }
      KJoinOptions options;
      options.delta = 0.7;
      options.tau = 0.0;
      options.set_metric = metric;
      options.plus_mode = plus;
      const JoinResult result = KJoin(tree, options).SelfJoin(objects);
      EXPECT_EQ(result.stats.size_skipped, 0);
      EXPECT_EQ(result.stats.count_filtered, 0);
      EXPECT_EQ(result.stats.candidates, 30 * 29 / 2);
      EXPECT_EQ(result.pairs.size(), 30u * 29u / 2u);
      EXPECT_EQ(ToSet(result.pairs), ToSet(NaiveJoin(tree, options).SelfJoin(objects).pairs));
    }
  }
}

TEST(ProbeBoundsTest, RsJoinScreensWithTheProbeSidePlans) {
  // R-S joins keep both collections' plans in one array, the probe side
  // behind the indexed side; a wrong offset would screen each probe with
  // another object's signatures. Pure mode with count pruning is where the
  // probe reads them. Uneven collection sizes make an off-by-offset read
  // land on the wrong object rather than on the right one by accident.
  HierarchyGenParams tree_params;
  tree_params.num_nodes = 200;
  tree_params.height = 5;
  tree_params.avg_fanout = 4.0;
  tree_params.seed = 19;
  const Hierarchy tree = GenerateHierarchy(tree_params);

  RecordGenParams data_params;
  data_params.num_records = 180;
  data_params.avg_elements = 5;
  data_params.min_elements = 1;
  data_params.max_elements = 10;
  data_params.min_depth = 2;
  data_params.max_depth = 5;
  data_params.duplicate_fraction = 0.6;
  data_params.seed = 321;
  const Dataset dataset = DatasetGenerator(tree, data_params).Generate("rs-pure");
  const PreparedObjects prepared = BuildObjects(tree, dataset, /*multi_mapping=*/false);
  std::vector<Object> left, right;
  for (size_t i = 0; i < prepared.objects.size(); ++i) {
    (i % 3 == 0 ? left : right).push_back(prepared.objects[i]);
  }

  for (const SetMetric metric : {SetMetric::kJaccard, SetMetric::kDice, SetMetric::kCosine}) {
    for (const double tau : {0.55, 0.65, 0.8}) {
      for (const bool count_pruning : {true, false}) {
        KJoinOptions options;
        options.delta = 0.7;
        options.tau = tau;
        options.set_metric = metric;
        options.count_pruning = count_pruning;
        const JoinResult result = KJoin(tree, options).Join(left, right);
        const JoinResult oracle = NaiveJoin(tree, options).Join(left, right);
        EXPECT_EQ(ToSet(result.pairs), ToSet(oracle.pairs))
            << "metric " << static_cast<int>(metric) << " tau " << tau << " count "
            << count_pruning;
        EXPECT_EQ(result.stats.verify.pruned_by_count, 0);
        if (!count_pruning) {
          EXPECT_EQ(result.stats.count_filtered, 0);
        }
      }
    }
  }
  // The sweep must have had something to find and something to screen.
  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 0.65;
  const JoinResult result = KJoin(tree, options).Join(left, right);
  EXPECT_FALSE(result.pairs.empty());
  EXPECT_GT(result.stats.size_skipped, 0);
  EXPECT_GT(result.stats.count_filtered, 0);
}

TEST(ProbeBoundsTest, SizeSliceMatchesNaiveJoin) {
  // A probe touches only the size-admissible run of each posting list
  // (ranked by (size, id)); a self-join probe only the part ranked below
  // itself. Many objects share each size, so runs begin and end inside
  // equal-size blocks; singletons sit at the bottom of every list. Every
  // non-empty object carries "Pizza", so at τ = 0 every pair of them
  // shares a signature and the filter must find them all. Empty objects
  // carry no signature; the join emits every pair of two of them
  // directly, at similarity 1. The oracle is NaiveJoin without the pairs
  // of one empty and one non-empty object (similarity 0), which only
  // τ = 0 admits and no signature links.
  const Hierarchy tree = MakeFigure1Hierarchy();
  std::vector<std::string> labels;
  for (NodeId v = 1; v < tree.num_nodes(); ++v) labels.push_back(tree.label(v));
  std::vector<std::vector<std::string>> records;
  Rng rng(24);
  const int sizes[] = {0, 1, 1, 2, 3, 3, 3, 3, 4, 4, 4, 5, 6, 6, 8, 11};
  for (int i = 0; i < 64; ++i) {
    const int size = sizes[rng.NextUint64(std::size(sizes))];
    std::vector<std::string> tokens;
    if (size > 0 && i % 5 == 4) {
      // A near-duplicate of an earlier record of this size, if any.
      for (int j = i - 1; j >= 0; --j) {
        if (static_cast<int>(records[j].size()) != size) continue;
        tokens = records[j];
        if (size > 1) tokens.back() = labels[rng.NextUint64(labels.size())];
        break;
      }
    }
    if (tokens.empty() && size > 0) {
      tokens.push_back("Pizza");
      while (static_cast<int>(tokens.size()) < size) {
        tokens.push_back(labels[rng.NextUint64(labels.size())]);
      }
    }
    records.push_back(tokens);
  }
  const auto linked_pairs = [](const std::vector<Object>& lhs, const std::vector<Object>& rhs,
                               const JoinResult& oracle) {
    std::vector<std::pair<int32_t, int32_t>> kept;
    for (const auto& [a, b] : oracle.pairs) {
      if ((lhs[a].size() == 0) == (rhs[b].size() == 0)) kept.emplace_back(a, b);
    }
    return kept;
  };
  const auto empty_pairs = [](const std::vector<Object>& lhs, const std::vector<Object>& rhs,
                              const JoinResult& result) {
    return std::count_if(result.pairs.begin(), result.pairs.end(), [&](const auto& pair) {
      return lhs[pair.first].size() == 0 && rhs[pair.second].size() == 0;
    });
  };
  const auto by_second_first = [](const std::vector<std::pair<int32_t, int32_t>>& pairs) {
    return std::is_sorted(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
      return std::tie(a.second, a.first) < std::tie(b.second, b.first);
    });
  };

  int64_t skipped = 0;
  int64_t found = 0;
  int64_t self_empty = 0;
  int64_t rs_empty = 0;
  for (const bool plus : {false, true}) {
    EntityMatcher matcher = ExactMatcher(tree);
    ObjectBuilder builder(matcher, /*multi_mapping=*/plus);
    std::vector<Object> objects, left, right;
    for (size_t i = 0; i < records.size(); ++i) {
      objects.push_back(builder.Build(static_cast<int32_t>(i), records[i]));
      (i % 3 == 0 ? left : right).push_back(objects.back());
    }
    for (const SetMetric metric : {SetMetric::kJaccard, SetMetric::kDice, SetMetric::kCosine}) {
      for (const double tau : {0.0, 0.5, 0.7, 0.8, 1.0}) {
        for (const bool count_pruning : {true, false}) {
          KJoinOptions options;
          options.delta = 0.7;
          options.tau = tau;
          options.set_metric = metric;
          options.plus_mode = plus;
          options.count_pruning = count_pruning;
          const std::string label =
              std::string(plus ? "plus" : "pure") + " metric " +
              std::to_string(static_cast<int>(metric)) + " tau " + std::to_string(tau) +
              (count_pruning ? " count" : " no-count");
          const NaiveJoin naive(tree, options);
          const std::vector<std::pair<int32_t, int32_t>> self_expected =
              linked_pairs(objects, objects, naive.SelfJoin(objects));
          const std::vector<std::pair<int32_t, int32_t>> rs_expected =
              linked_pairs(left, right, naive.Join(left, right));

          options.num_threads = 1;
          const KJoin serial(tree, options);
          const JoinResult self = serial.SelfJoin(objects);
          const JoinResult rs = serial.Join(left, right);
          EXPECT_EQ(ToSet(self.pairs), ToSet(self_expected)) << label;
          EXPECT_EQ(ToSet(rs.pairs), ToSet(rs_expected)) << label;
          // Each pair once, as (smaller, larger), ordered by larger id, then
          // smaller: the order of a probe walk by id.
          EXPECT_EQ(ToSet(self.pairs).size(), self.pairs.size()) << label;
          for (const auto& [a, b] : self.pairs) EXPECT_LT(a, b) << label;
          EXPECT_TRUE(by_second_first(self.pairs)) << label;
          EXPECT_TRUE(by_second_first(rs.pairs)) << label;
          EXPECT_EQ(self.stats.verify.pairs_verified, self.stats.candidates) << label;
          if (tau == 0.0) {
            EXPECT_EQ(self.stats.size_skipped, 0) << label;
          }

          options.num_threads = 4;
          const KJoin parallel(tree, options);
          for (const bool is_self : {true, false}) {
            const JoinResult& one = is_self ? self : rs;
            const JoinResult four = is_self ? parallel.SelfJoin(objects)
                                            : parallel.Join(left, right);
            EXPECT_EQ(four.pairs, one.pairs) << label << (is_self ? " self" : " rs");
            EXPECT_EQ(four.stats.candidates, one.stats.candidates) << label;
            EXPECT_EQ(four.stats.size_skipped, one.stats.size_skipped) << label;
            EXPECT_EQ(four.stats.count_filtered, one.stats.count_filtered) << label;
            EXPECT_EQ(four.stats.sketch_filtered, one.stats.sketch_filtered) << label;
          }
          skipped += self.stats.size_skipped + rs.stats.size_skipped;
          found += static_cast<int64_t>(self.pairs.size() + rs.pairs.size());
          self_empty += empty_pairs(objects, objects, self);
          rs_empty += empty_pairs(left, right, rs);
        }
      }
    }
  }
  // The sweep must have had pairs to find, pairs of empty objects among
  // them on both join shapes, and entries to skip.
  EXPECT_GT(skipped, 0);
  EXPECT_GT(found, 0);
  EXPECT_GT(self_empty, 0);
  EXPECT_GT(rs_empty, 0);
}

TEST(KJoinTest, StatsAreConsistent) {
  const BenchmarkData data = MakePoiBenchmark(300, 7);
  const PreparedObjects prepared = BuildObjects(data.hierarchy, data.dataset, false);
  KJoinOptions options;
  options.delta = 0.8;
  options.tau = 0.85;
  const JoinResult result = KJoin(data.hierarchy, options).SelfJoin(prepared.objects);
  EXPECT_EQ(result.stats.num_objects_left, 300);
  EXPECT_EQ(result.stats.results, static_cast<int64_t>(result.pairs.size()));
  EXPECT_EQ(result.stats.verify.pairs_verified, result.stats.candidates);
  EXPECT_GE(result.stats.total_signatures, result.stats.prefix_signatures);
  EXPECT_GE(result.stats.total_seconds, 0.0);
}

}  // namespace
}  // namespace kjoin
