// Tests for src/core primitives: element/object similarity, signatures,
// global order, prefixes, verifier. Most expectations replay worked
// examples from the paper (Figure 1 tree, Table 1 objects).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "core/element_similarity.h"
#include "core/object.h"
#include "core/object_similarity.h"
#include "core/prefix.h"
#include "core/signature.h"
#include "core/verifier.h"
#include "data/benchmark_suite.h"
#include "hierarchy/hierarchy_builder.h"
#include "hierarchy/lca.h"
#include "matching/hungarian.h"
#include "text/entity_matcher.h"
#include "text/tokenizer.h"

namespace kjoin {
namespace {

// Shared fixture: Figure 1 hierarchy + matcher + builders.
class PaperFixture : public testing::Test {
 protected:
  PaperFixture()
      : tree_(MakeFigure1Hierarchy()),
        lca_(tree_),
        esim_(lca_),
        matcher_(tree_),
        builder_(matcher_, /*multi_mapping=*/false) {}

  Object Make(int32_t id, const std::vector<std::string>& tokens) {
    return builder_.Build(id, tokens);
  }

  NodeId Node(const std::string& label) { return *tree_.FindByLabel(label); }

  Hierarchy tree_;
  LcaIndex lca_;
  ElementSimilarity esim_;
  EntityMatcher matcher_;
  ObjectBuilder builder_;
};

// ---------------------------------------------------------------- elements

TEST_F(PaperFixture, ElementSimilarityPaperExamples) {
  // §2.1.1: SIM(BurgerKing, KFC) = 3/4.
  EXPECT_DOUBLE_EQ(esim_.NodeSim(Node("BurgerKing"), Node("KFC")), 3.0 / 4.0);
  // §2.2: SIM(MountainView, GoogleHeadquarters) = 5/6.
  EXPECT_DOUBLE_EQ(esim_.NodeSim(Node("MountainView"), Node("GoogleHeadquarters")), 5.0 / 6.0);
  // §3.1: SIM(BurgerKing, Manhattan) = 0 (LCA is the root).
  EXPECT_DOUBLE_EQ(esim_.NodeSim(Node("BurgerKing"), Node("Manhattan")), 0.0);
  // §2.1.2 Figure 2 edges: BK-PizzaHut 0.5, MV-CA 0.6.
  EXPECT_DOUBLE_EQ(esim_.NodeSim(Node("BurgerKing"), Node("PizzaHut")), 0.5);
  EXPECT_DOUBLE_EQ(esim_.NodeSim(Node("MountainView"), Node("CA")), 0.6);
  // Identity.
  EXPECT_DOUBLE_EQ(esim_.NodeSim(Node("KFC"), Node("KFC")), 1.0);
  // §4.1: SIM(BurgerKing, Dominos) = 2/4.
  EXPECT_DOUBLE_EQ(esim_.NodeSim(Node("BurgerKing"), Node("Dominos")), 0.5);
}

TEST_F(PaperFixture, ElementSimilaritySymmetric) {
  for (NodeId x = 0; x < tree_.num_nodes(); ++x) {
    for (NodeId y = 0; y < tree_.num_nodes(); ++y) {
      ASSERT_DOUBLE_EQ(esim_.NodeSim(x, y), esim_.NodeSim(y, x));
    }
  }
}

TEST_F(PaperFixture, WuPalmerMetric) {
  const ElementSimilarity wp(lca_, ElementMetric::kWuPalmer);
  // Wu&Palmer: 2*3/(4+4) = 3/4 for BurgerKing-KFC.
  EXPECT_DOUBLE_EQ(wp.NodeSim(Node("BurgerKing"), Node("KFC")), 3.0 / 4.0);
  // MountainView-GoogleHeadquarters: 2*5/(5+6) = 10/11.
  EXPECT_DOUBLE_EQ(wp.NodeSim(Node("MountainView"), Node("GoogleHeadquarters")), 10.0 / 11.0);
  EXPECT_DOUBLE_EQ(wp.NodeSim(Node("KFC"), Node("KFC")), 1.0);
}

TEST_F(PaperFixture, IdenticalTokensAreSimilarEvenUnmatched) {
  const Object a = Make(0, {"zzztoken"});
  const Object b = Make(1, {"zzztoken"});
  EXPECT_DOUBLE_EQ(esim_.Sim(a.elements[0], b.elements[0]), 1.0);
  const Object c = Make(2, {"othertoken"});
  EXPECT_DOUBLE_EQ(esim_.Sim(a.elements[0], c.elements[0]), 0.0);
}

TEST_F(PaperFixture, MultiMappingUsesPhiProduct) {
  // K-Join+ object with a typo: "pizzahat" maps to PizzaHut with φ = 7/8.
  ObjectBuilder plus_builder(matcher_, /*multi_mapping=*/true);
  const Object typo = plus_builder.Build(0, {"pizzahat"});
  const Object exact = plus_builder.Build(1, {"pizzahut"});
  ASSERT_TRUE(typo.elements[0].has_node());
  // Eq. 2: SIM = (d_lca / max depth) * φ * φ' = 1 * 7/8 * 1.
  EXPECT_DOUBLE_EQ(esim_.Sim(typo.elements[0], exact.elements[0]), 7.0 / 8.0);
  // Against a sibling: (3/4) * (7/8).
  const Object dominos = plus_builder.Build(2, {"dominos"});
  EXPECT_DOUBLE_EQ(esim_.Sim(typo.elements[0], dominos.elements[0]), 3.0 / 4.0 * 7.0 / 8.0);
}

TEST_F(PaperFixture, MultiMappingSimScansAllPairsUnderPhiBound) {
  // Hand-built elements (distinct tokens, φ < 1) where the BEST pair has
  // the LOWEST φ product. A premature exit on the φ ceiling must not skip
  // it, and the old `best >= 1` exit could never fire here at all.
  Element x;
  x.token = "x";
  x.token_id = 100;
  x.mappings = {{Node("BurgerKing"), 0.9}, {Node("MountainView"), 0.85}};
  Element y;
  y.token = "y";
  y.token_id = 200;
  y.mappings = {{Node("Manhattan"), 0.9}, {Node("GoogleHeadquarters"), 0.85}};
  // Pair similarities: BK-Manhattan and BK-GH are 0 (LCA is the root);
  // MV-Manhattan is (2/5)·0.85·0.9; MV-GH is (5/6)·0.85·0.85 — the max.
  EXPECT_DOUBLE_EQ(esim_.Sim(x, y), 5.0 / 6.0 * 0.85 * 0.85);
  EXPECT_DOUBLE_EQ(esim_.Sim(y, x), 5.0 / 6.0 * 0.85 * 0.85);
}

TEST_F(PaperFixture, MultiMappingSimEarlyExitAtPhiCeiling) {
  // Identical nodes with φ < 1: the first pair already reaches the
  // max(φ_x)·max(φ_y) ceiling, so the exit fires and is exact.
  Element x;
  x.token = "kfc";
  x.token_id = 100;
  x.mappings = {{Node("KFC"), 0.9}};
  Element y;
  y.token = "kfcc";
  y.token_id = 200;
  y.mappings = {{Node("KFC"), 0.7}, {Node("PizzaHut"), 0.6}};
  EXPECT_DOUBLE_EQ(esim_.Sim(x, y), 0.9 * 0.7);
}

TEST_F(PaperFixture, MultiMappingSimMatchesBruteForceOnRandomElements) {
  Rng rng(77);
  const auto random_element = [&](int32_t id) {
    Element e;
    e.token = "t" + std::to_string(id);
    e.token_id = id;
    const int n = 1 + static_cast<int>(rng.NextUint64(4));
    for (int i = 0; i < n; ++i) {
      const NodeId node = static_cast<NodeId>(rng.NextUint64(tree_.num_nodes()));
      const double phi = 0.05 + 0.95 * rng.NextDouble();
      e.mappings.push_back({node, phi});
    }
    // Deliberately NOT sorted by φ descending: Sim must not rely on it.
    return e;
  };
  for (int trial = 0; trial < 500; ++trial) {
    const Element x = random_element(1000 + 2 * trial);
    const Element y = random_element(1001 + 2 * trial);
    double brute = 0.0;
    for (const ElementMapping& mx : x.mappings) {
      for (const ElementMapping& my : y.mappings) {
        brute = std::max(brute, esim_.NodeSim(mx.node, my.node) * mx.phi * my.phi);
      }
    }
    ASSERT_DOUBLE_EQ(esim_.Sim(x, y), brute) << "trial " << trial;
  }
}

TEST(ThresholdGeometryTest, MinSignatureDepth) {
  // §3.1: δ = 0.7 -> d_δ = 3; δ = 0.6 -> 2; δ = 0.5 -> 1; δ = 0.8 -> 4.
  EXPECT_EQ(ElementSimilarity::MinSignatureDepth(0.7, ElementMetric::kKJoin), 3);
  EXPECT_EQ(ElementSimilarity::MinSignatureDepth(0.6, ElementMetric::kKJoin), 2);
  EXPECT_EQ(ElementSimilarity::MinSignatureDepth(0.5, ElementMetric::kKJoin), 1);
  EXPECT_EQ(ElementSimilarity::MinSignatureDepth(0.8, ElementMetric::kKJoin), 4);
  // §6.2 Wu&Palmer: δ/(2(1−δ)); δ = 0.8 -> 2.
  EXPECT_EQ(ElementSimilarity::MinSignatureDepth(0.8, ElementMetric::kWuPalmer), 2);
}

TEST(ThresholdGeometryTest, MinLcaDepthFor) {
  // Deep signature range lower ends (§4.1): δ = 0.6, d = 4 -> ⌈2.4⌉ = 3.
  EXPECT_EQ(ElementSimilarity::MinLcaDepthFor(4, 0.6, ElementMetric::kKJoin), 3);
  EXPECT_EQ(ElementSimilarity::MinLcaDepthFor(5, 0.7, ElementMetric::kKJoin), 4);
  EXPECT_EQ(ElementSimilarity::MinLcaDepthFor(3, 0.7, ElementMetric::kKJoin), 3);
  // Exactly integral products stay put.
  EXPECT_EQ(ElementSimilarity::MinLcaDepthFor(5, 0.6, ElementMetric::kKJoin), 3);
}

TEST(ThresholdGeometryTest, MaxSimBounds) {
  EXPECT_DOUBLE_EQ(ElementSimilarity::MaxSimToDistinctNode(4, ElementMetric::kKJoin),
                   4.0 / 5.0);
  EXPECT_DOUBLE_EQ(ElementSimilarity::MaxSimToDistinctNode(3, ElementMetric::kWuPalmer),
                   6.0 / 7.0);
  EXPECT_DOUBLE_EQ(ElementSimilarity::MaxSimThroughDepth(3, 4, ElementMetric::kKJoin),
                   3.0 / 4.0);
  EXPECT_DOUBLE_EQ(ElementSimilarity::MaxSimThroughDepth(4, 4, ElementMetric::kKJoin), 1.0);
}

// ----------------------------------------------------------------- objects

TEST_F(PaperFixture, FuzzyOverlapPaperFigure2) {
  // §2.1.2: S1 ∩̃0.5 S4 = 3/4 + 3/5 = 27/20 and SIMδ = 27/73.
  const Object s1 = Make(1, {"BurgerKing", "MountainView"});
  const Object s4 = Make(4, {"PizzaHut", "KFC", "CA"});
  const ObjectSimilarity osim(esim_, /*delta=*/0.5);
  EXPECT_NEAR(osim.FuzzyOverlap(s1, s4), 27.0 / 20.0, 1e-12);
  EXPECT_NEAR(osim.Similarity(s1, s4), 27.0 / 73.0, 1e-12);
}

TEST_F(PaperFixture, SimilarityPaperSection22) {
  // §2.2: SIMδ(S1, S3) = 19/29 with δ = 0.7.
  const Object s1 = Make(1, {"BurgerKing", "MountainView"});
  const Object s3 = Make(3, {"Fastfood", "GoogleHeadquarters"});
  const ObjectSimilarity osim(esim_, /*delta=*/0.7);
  EXPECT_NEAR(osim.FuzzyOverlap(s1, s3), 19.0 / 12.0, 1e-12);
  EXPECT_NEAR(osim.Similarity(s1, s3), 19.0 / 29.0, 1e-12);
  EXPECT_GT(osim.Similarity(s1, s3), 0.6);  // ⟨S1,S3⟩ is an answer
}

TEST_F(PaperFixture, DeltaThresholdDropsWeakEdges) {
  const Object s1 = Make(1, {"BurgerKing", "MountainView"});
  const Object s4 = Make(4, {"PizzaHut", "KFC", "CA"});
  // With δ = 0.7 only BK-KFC (0.75) survives; MV-CA (0.6) is dropped.
  const ObjectSimilarity osim(esim_, /*delta=*/0.7);
  EXPECT_NEAR(osim.FuzzyOverlap(s1, s4), 0.75, 1e-12);
}

TEST(SetMetricTest, MinSimilarElements) {
  EXPECT_EQ(MinSimilarElements(3, 0.6, SetMetric::kJaccard), 2);   // ⌈1.8⌉
  EXPECT_EQ(MinSimilarElements(2, 0.6, SetMetric::kJaccard), 2);   // ⌈1.2⌉
  EXPECT_EQ(MinSimilarElements(5, 0.8, SetMetric::kJaccard), 4);   // exactly 4.0
  EXPECT_EQ(MinSimilarElements(4, 0.5, SetMetric::kDice), 2);      // ⌈4/3⌉
  EXPECT_EQ(MinSimilarElements(4, 0.5, SetMetric::kCosine), 1);    // ⌈1.0⌉
  EXPECT_EQ(MinSimilarElements(10, 0.0, SetMetric::kJaccard), 0);
}

TEST(SetMetricTest, MinFuzzyOverlapJaccard) {
  // §3.2: τ/(1+τ)(|Sx|+|Sy|); τ = 0.6, sizes 2+2 -> 1.5.
  EXPECT_NEAR(MinFuzzyOverlap(2, 2, 0.6, SetMetric::kJaccard), 1.5, 1e-12);
  EXPECT_NEAR(MinFuzzyOverlap(2, 3, 0.6, SetMetric::kJaccard), 15.0 / 8.0, 1e-12);
}

TEST(SetMetricTest, CombineOverlapAllMetrics) {
  EXPECT_NEAR(CombineOverlap(1.5, 2, 3, SetMetric::kJaccard), 1.5 / 3.5, 1e-12);
  EXPECT_NEAR(CombineOverlap(1.5, 2, 3, SetMetric::kDice), 3.0 / 5.0, 1e-12);
  EXPECT_NEAR(CombineOverlap(1.5, 2, 3, SetMetric::kCosine), 1.5 / std::sqrt(6.0), 1e-12);
  EXPECT_DOUBLE_EQ(CombineOverlap(0.0, 0, 0, SetMetric::kJaccard), 1.0);
  EXPECT_DOUBLE_EQ(CombineOverlap(0.0, 0, 3, SetMetric::kJaccard), 0.0);
}

TEST(SetMetricTest, ConsistencyBetweenBounds) {
  // If SIM >= τ then overlap >= MinFuzzyOverlap: check the algebra by
  // inverting CombineOverlap at the boundary.
  for (SetMetric metric : {SetMetric::kJaccard, SetMetric::kDice, SetMetric::kCosine}) {
    for (double tau : {0.5, 0.7, 0.9}) {
      const int sx = 5, sy = 8;
      const double needed = MinFuzzyOverlap(sx, sy, tau, metric);
      EXPECT_NEAR(CombineOverlap(needed, sx, sy, metric), tau, 1e-9);
    }
  }
}

// -------------------------------------------------------------- signatures

TEST_F(PaperFixture, NodeSignaturesTable1) {
  // δ = 0.7 -> d_δ = 3. Table 1 column "Node Signature".
  const SignatureGenerator gen(tree_, ElementMetric::kKJoin, SignatureScheme::kNode, 0.7);
  auto labels_of = [&](const Object& object) {
    std::multiset<std::string> labels;
    for (const Signature& sig : gen.Generate(object)) {
      if (sig.id < tree_.num_nodes()) {
        labels.insert(tree_.label(static_cast<NodeId>(sig.id)));
      } else {
        labels.insert("<token>");
      }
    }
    return labels;
  };
  EXPECT_EQ(labels_of(Make(1, {"BurgerKing", "MountainView"})),
            (std::multiset<std::string>{"Fastfood", "CA"}));
  EXPECT_EQ(labels_of(Make(2, {"Pizza", "PaloAlto", "Brooklyn"})),
            (std::multiset<std::string>{"Pizza", "CA", "NY"}));
  EXPECT_EQ(labels_of(Make(4, {"PizzaHut", "KFC", "CA"})),
            (std::multiset<std::string>{"Pizza", "Fastfood", "CA"}));
  EXPECT_EQ(labels_of(Make(7, {"Brooklyn", "Food"})),
            (std::multiset<std::string>{"NY", "Food"}));
  // S8 has duplicate signatures (multiset semantics).
  EXPECT_EQ(labels_of(Make(8, {"Pizza", "KFC", "Dominos", "SanFrancisco", "Manhattan",
                               "Brooklyn"})),
            (std::multiset<std::string>{"Pizza", "Fastfood", "Pizza", "CA", "NY", "NY"}));
}

TEST_F(PaperFixture, DeepPathSignaturesTable1) {
  const SignatureGenerator gen(tree_, ElementMetric::kKJoin, SignatureScheme::kDeepPath, 0.7);
  auto labels_of = [&](const Object& object) {
    std::multiset<std::string> labels;
    for (const Signature& sig : gen.Generate(object)) {
      labels.insert(tree_.label(static_cast<NodeId>(sig.id)));
    }
    return labels;
  };
  // Table 1, "(Deep) Path Signature" column.
  EXPECT_EQ(labels_of(Make(1, {"BurgerKing", "MountainView"})),
            (std::multiset<std::string>{"BurgerKing", "MountainView", "SanFrancisco",
                                        "Fastfood"}));
  EXPECT_EQ(labels_of(Make(3, {"Fastfood", "GoogleHeadquarters"})),
            (std::multiset<std::string>{"GoogleHeadquarters", "MountainView", "Fastfood"}));
  EXPECT_EQ(labels_of(Make(4, {"PizzaHut", "KFC", "CA"})),
            (std::multiset<std::string>{"PizzaHut", "CA", "KFC", "Pizza", "Fastfood"}));
  EXPECT_EQ(labels_of(Make(6, {"Fastfood", "Manhattan"})),
            (std::multiset<std::string>{"Manhattan", "Fastfood", "NewYork"}));
}

TEST_F(PaperFixture, ShallowSignaturesSection41) {
  // §4.1, δ = 0.6: BurgerKing -> {Fastfood, WesternFood};
  // Dominos -> {Pizza, WesternFood}.
  const SignatureGenerator gen(tree_, ElementMetric::kKJoin, SignatureScheme::kShallowPath,
                               0.6);
  auto labels_of = [&](const Object& object) {
    std::multiset<std::string> labels;
    for (const Signature& sig : gen.Generate(object)) {
      labels.insert(tree_.label(static_cast<NodeId>(sig.id)));
    }
    return labels;
  };
  EXPECT_EQ(labels_of(Make(0, {"BurgerKing"})),
            (std::multiset<std::string>{"Fastfood", "WesternFood"}));
  EXPECT_EQ(labels_of(Make(1, {"Dominos"})),
            (std::multiset<std::string>{"Pizza", "WesternFood"}));
}

TEST_F(PaperFixture, DeepSignaturesSection41) {
  // §4.1, δ = 0.6: deep signatures of BurgerKing = {Fastfood, BurgerKing},
  // of Dominos = {Pizza, Dominos} — they do not overlap, pruning the pair
  // node/shallow signatures cannot prune.
  const SignatureGenerator gen(tree_, ElementMetric::kKJoin, SignatureScheme::kDeepPath, 0.6);
  auto ids_of = [&](const Object& object) {
    std::set<SigId> ids;
    for (const Signature& sig : gen.Generate(object)) ids.insert(sig.id);
    return ids;
  };
  const auto burger = ids_of(Make(0, {"BurgerKing"}));
  const auto dominos = ids_of(Make(1, {"Dominos"}));
  EXPECT_EQ(burger.size(), 2u);
  EXPECT_EQ(dominos.size(), 2u);
  std::vector<SigId> common;
  std::set_intersection(burger.begin(), burger.end(), dominos.begin(), dominos.end(),
                        std::back_inserter(common));
  EXPECT_TRUE(common.empty());
}

TEST_F(PaperFixture, SimilarElementsShareDeepSignature) {
  // Property behind Lemma 5: for all node pairs and several δ, δ-similar
  // nodes share a deep signature and a shallow signature.
  for (double delta : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    const SignatureGenerator deep(tree_, ElementMetric::kKJoin, SignatureScheme::kDeepPath,
                                  delta);
    const SignatureGenerator shallow(tree_, ElementMetric::kKJoin,
                                     SignatureScheme::kShallowPath, delta);
    const SignatureGenerator node(tree_, ElementMetric::kKJoin, SignatureScheme::kNode, delta);
    for (NodeId x = 1; x < tree_.num_nodes(); ++x) {
      for (NodeId y = 1; y < tree_.num_nodes(); ++y) {
        if (esim_.NodeSim(x, y) < delta) continue;
        for (const SignatureGenerator* gen : {&deep, &shallow, &node}) {
          Object ox, oy;
          ox.elements.push_back({tree_.label(x), 0, {{x, 1.0}}});
          oy.elements.push_back({tree_.label(y), 1, {{y, 1.0}}});
          std::set<SigId> sx, sy;
          for (const Signature& s : gen->Generate(ox)) sx.insert(s.id);
          for (const Signature& s : gen->Generate(oy)) sy.insert(s.id);
          std::vector<SigId> common;
          std::set_intersection(sx.begin(), sx.end(), sy.begin(), sy.end(),
                                std::back_inserter(common));
          ASSERT_FALSE(common.empty())
              << tree_.label(x) << " ~ " << tree_.label(y) << " @ delta " << delta;
        }
      }
    }
  }
}

// ---------------------------------------------------------------- prefixes

std::vector<Signature> MakeSigs(const std::vector<std::pair<int32_t, double>>& entries) {
  // Builds a signature list already in "global order": ids are positions.
  std::vector<Signature> sigs;
  for (size_t i = 0; i < entries.size(); ++i) {
    sigs.push_back({static_cast<SigId>(i), entries[i].first,
                    static_cast<float>(entries[i].second)});
  }
  return sigs;
}

TEST(PrefixTest, PathPrefixPaperS4) {
  // §4.2.1: PS4 = {PizzaHut, CA, KFC, Pizza, Fastfood} with elements
  // PizzaHut=0, CA=2, KFC=1, Pizza=0, Fastfood=1; τ_S4 = 2 -> keep 4.
  const auto sigs = MakeSigs({{0, 1.0}, {2, 1.0}, {1, 1.0}, {0, 0.75}, {1, 0.75}});
  EXPECT_EQ(PrefixLengthDistinct(sigs, 2), 4);
}

TEST(PrefixTest, PathPrefixPaperS1) {
  // §4.2.1: PS1 = {BurgerKing, MountainView, SanFrancisco, Fastfood},
  // elements BK=0, MV=1, SF=1, FF=0; τ_S1 = 2 -> keep 3.
  const auto sigs = MakeSigs({{0, 1.0}, {1, 1.0}, {1, 0.8}, {0, 0.75}});
  EXPECT_EQ(PrefixLengthDistinct(sigs, 2), 3);
}

TEST(PrefixTest, WeightedPathPrefixPaperS4) {
  // §4.2.2: weights {PizzaHut:1, CA:1, KFC:1, Pizza:3/4, Fastfood:3/4},
  // τ|S4| = 1.8 -> weighted prefix keeps only {PizzaHut, CA}.
  const auto sigs = MakeSigs({{0, 1.0}, {2, 1.0}, {1, 1.0}, {0, 0.75}, {1, 0.75}});
  EXPECT_EQ(PrefixLengthWeighted(sigs, 1.8), 2);
}

TEST(PrefixTest, WeightedPrefixFullRemovalCostsOne) {
  // An element whose low-weight signatures are all removed must be charged
  // similarity 1 (an identical token matches it fully).
  const auto sigs = MakeSigs({{0, 1.0}, {1, 0.5}, {1, 0.4}});
  // Budget 0.95: removing both of element 1's signatures costs 1 >= 0.95,
  // so only one can go... in fact removing the *second* one already makes
  // the element fully removed -> cost 1 -> stop after removing none?
  // Walk: remove sig id=2 (w=.4, element 1 partial, mass .4 < .95 ok);
  // remove sig id=1 (element 1 now fully removed, mass = 1 >= .95 stop).
  EXPECT_EQ(PrefixLengthWeighted(sigs, 0.95), 2);
}

TEST(PrefixTest, PrefixNeverEmpty) {
  const auto sigs = MakeSigs({{0, 0.3}, {0, 0.2}});
  EXPECT_GE(PrefixLengthDistinct(sigs, 1), 1);
  EXPECT_GE(PrefixLengthWeighted(sigs, 10.0), 1);
  EXPECT_EQ(PrefixLengthDistinct({}, 3), 0);
}

TEST(PrefixTest, ZeroThresholdKeepsEverything) {
  const auto sigs = MakeSigs({{0, 1.0}, {1, 1.0}});
  EXPECT_EQ(PrefixLengthDistinct(sigs, 0), 2);
  EXPECT_EQ(PrefixLengthWeighted(sigs, 0.0), 2);
}

TEST(GlobalOrderTest, RareSignaturesFirst) {
  GlobalSignatureOrder order;
  // Object A has sigs {1, 2}, B has {2, 3}, C has {2}. df: 1->1, 3->1, 2->3.
  const auto a = MakeSigs({{0, 1.0}, {0, 1.0}});
  std::vector<Signature> oa = {{1, 0, 1.0f}, {2, 1, 1.0f}};
  std::vector<Signature> ob = {{2, 0, 1.0f}, {3, 1, 1.0f}};
  std::vector<Signature> oc = {{2, 0, 1.0f}};
  order.CountObject(oa);
  order.CountObject(ob);
  order.CountObject(oc);
  order.Finalize();
  EXPECT_EQ(order.DocumentFrequency(2), 3);
  EXPECT_EQ(order.DocumentFrequency(1), 1);
  EXPECT_LT(order.Rank(1), order.Rank(2));
  EXPECT_LT(order.Rank(3), order.Rank(2));
  EXPECT_LT(order.Rank(1), order.Rank(3));  // tie broken by id
  SortByGlobalOrder(order, &oa);
  EXPECT_EQ(oa[0].id, 1);
  EXPECT_EQ(oa[1].id, 2);
}

TEST(GlobalOrderDeathTest, RankOfNeverCountedIdDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  GlobalSignatureOrder order;
  std::vector<Signature> object = {{7, 0, 1.0f}, {kUnknownTokenSignature, 1, 1.0f}};
  order.CountObject(object);
  order.Finalize();
  EXPECT_EQ(order.Rank(kUnknownTokenSignature), 0);
  EXPECT_EQ(order.Rank(7), 1);
  // Inside the dense range, but never counted.
  EXPECT_DEATH(order.Rank(3), "never counted");
  // Past the dense range's end, and below kUnknownTokenSignature.
  EXPECT_DEATH(order.Rank(999), "never counted");
  EXPECT_DEATH(order.Rank(-2), "never counted");
}

TEST(GlobalOrderTest, DuplicateSigsInOneObjectCountOnce) {
  GlobalSignatureOrder order;
  std::vector<Signature> object = {{5, 0, 1.0f}, {5, 1, 1.0f}};
  order.CountObject(object);
  order.Finalize();
  EXPECT_EQ(order.DocumentFrequency(5), 1);
}

// ---------------------------------------------------------------- verifier

class VerifierFixture : public PaperFixture {
 protected:
  Verifier MakeVerifier(double delta, double tau, VerifyMode mode,
                        const SignatureGenerator& gen) {
    VerifierOptions options;
    options.delta = delta;
    options.tau = tau;
    options.mode = mode;
    return Verifier(esim_, gen, options);
  }
};

TEST_F(VerifierFixture, CountPruningPaperExampleS1S6) {
  // §3.2: S1 and S6 with δ = 0.7, τ = 0.6: Σ min sizes = 1 < 1.5 -> prune.
  const SignatureGenerator gen(tree_, ElementMetric::kKJoin, SignatureScheme::kNode, 0.7);
  VerifierOptions options;
  options.delta = 0.7;
  options.tau = 0.6;
  options.weighted_count_pruning = false;
  const Verifier verifier(esim_, gen, options);
  VerifyStats stats;
  EXPECT_FALSE(verifier.Verify(Make(1, {"BurgerKing", "MountainView"}),
                               Make(6, {"Fastfood", "Manhattan"}), &stats));
  EXPECT_EQ(stats.pruned_by_count, 1);
  EXPECT_EQ(stats.hungarian_runs, 0);
}

TEST_F(VerifierFixture, WeightedCountPruningPaperExampleS1S4) {
  // §3.2: count pruning cannot prune ⟨S1, S4⟩ but the weighted bound
  // 31/20 < 15/8 does.
  const SignatureGenerator gen(tree_, ElementMetric::kKJoin, SignatureScheme::kNode, 0.7);
  VerifierOptions options;
  options.delta = 0.7;
  options.tau = 0.6;
  const Verifier verifier(esim_, gen, options);
  VerifyStats stats;
  EXPECT_FALSE(verifier.Verify(Make(1, {"BurgerKing", "MountainView"}),
                               Make(4, {"PizzaHut", "KFC", "CA"}), &stats));
  EXPECT_EQ(stats.pruned_by_count, 0);
  EXPECT_EQ(stats.pruned_by_weighted_count, 1);
  EXPECT_EQ(stats.hungarian_runs, 0);
}

TEST_F(VerifierFixture, AcceptsPaperAnswerS1S3) {
  const SignatureGenerator gen(tree_, ElementMetric::kKJoin, SignatureScheme::kNode, 0.7);
  for (VerifyMode mode : {VerifyMode::kBasic, VerifyMode::kSubGraph, VerifyMode::kAdaptive}) {
    VerifierOptions options;
    options.delta = 0.7;
    options.tau = 0.6;
    options.mode = mode;
    const Verifier verifier(esim_, gen, options);
    VerifyStats stats;
    EXPECT_TRUE(verifier.Verify(Make(1, {"BurgerKing", "MountainView"}),
                                Make(3, {"Fastfood", "GoogleHeadquarters"}), &stats));
  }
}

TEST_F(VerifierFixture, RejectsPaperSection52ExampleS8S9) {
  // §5.2: SIMδ(S8, S9) with δ = τ = 0.6 is below τ (real overlap 113/30).
  const SignatureGenerator gen(tree_, ElementMetric::kKJoin, SignatureScheme::kNode, 0.6);
  const Object s8 =
      Make(8, {"Pizza", "KFC", "Dominos", "SanFrancisco", "Manhattan", "Brooklyn"});
  const Object s9 = Make(9, {"Fastfood", "PizzaHut", "BurgerKing", "PaloAlto", "MountainView",
                             "NewYork"});
  // Exact overlap = 13/6 + 8/5 = 113/30 (the paper's combined lower bound
  // is tight here).
  const ObjectSimilarity osim(esim_, 0.6);
  EXPECT_NEAR(osim.FuzzyOverlap(s8, s9), 113.0 / 30.0, 1e-9);
  for (VerifyMode mode : {VerifyMode::kBasic, VerifyMode::kSubGraph, VerifyMode::kAdaptive}) {
    VerifierOptions options;
    options.delta = 0.6;
    options.tau = 0.6;
    options.mode = mode;
    const Verifier verifier(esim_, gen, options);
    VerifyStats stats;
    EXPECT_FALSE(verifier.Verify(s8, s9, &stats));
  }
}

TEST_F(VerifierFixture, AllModesAgreeOnRandomPairs) {
  // Property: Basic, SubGraph and Adaptive verify identically (with and
  // without pruning), and agree with exact similarity.
  Rng rng(2024);
  const SignatureGenerator gen(tree_, ElementMetric::kKJoin, SignatureScheme::kNode, 0.6);
  std::vector<std::string> labels;
  for (NodeId v = 1; v < tree_.num_nodes(); ++v) labels.push_back(tree_.label(v));
  labels.push_back("freetoken1");
  labels.push_back("freetoken2");

  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::string> tx, ty;
    const int nx = 1 + static_cast<int>(rng.NextUint64(6));
    const int ny = 1 + static_cast<int>(rng.NextUint64(6));
    for (int i = 0; i < nx; ++i) tx.push_back(labels[rng.NextUint64(labels.size())]);
    for (int i = 0; i < ny; ++i) ty.push_back(labels[rng.NextUint64(labels.size())]);
    const Object x = Make(0, tx);
    const Object y = Make(1, ty);

    const ObjectSimilarity osim(esim_, 0.6);
    const bool expected = osim.Similarity(x, y) >= 0.6 - 1e-9;
    for (VerifyMode mode : {VerifyMode::kBasic, VerifyMode::kSubGraph, VerifyMode::kAdaptive}) {
      for (bool pruning : {true, false}) {
        VerifierOptions options;
        options.delta = 0.6;
        options.tau = 0.6;
        options.mode = mode;
        options.count_pruning = pruning;
        options.weighted_count_pruning = pruning;
        const Verifier verifier(esim_, gen, options);
        VerifyStats stats;
        ASSERT_EQ(verifier.Verify(x, y, &stats), expected)
            << "trial " << trial << " mode " << static_cast<int>(mode) << " pruning "
            << pruning;
      }
    }
  }
}

TEST_F(VerifierFixture, AllModesAgreeOnRandomPlusModePairs) {
  // The same property in K-Join+ mode: multi-node mappings, merged groups
  // (§6.4), and the plan-merge group construction must leave all three
  // modes in exact agreement with the oracle.
  Rng rng(6404);
  const SignatureGenerator gen(tree_, ElementMetric::kKJoin, SignatureScheme::kNode, 0.6);
  ObjectBuilder plus_builder(matcher_, /*multi_mapping=*/true);
  std::vector<std::string> labels;
  for (NodeId v = 1; v < tree_.num_nodes(); ++v) labels.push_back(tree_.label(v));
  labels.push_back("pizzahat");  // typo: φ < 1, several candidate entities
  labels.push_back("freetoken1");

  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::string> tx, ty;
    const int nx = 1 + static_cast<int>(rng.NextUint64(6));
    const int ny = 1 + static_cast<int>(rng.NextUint64(6));
    for (int i = 0; i < nx; ++i) tx.push_back(labels[rng.NextUint64(labels.size())]);
    for (int i = 0; i < ny; ++i) ty.push_back(labels[rng.NextUint64(labels.size())]);
    const Object x = plus_builder.Build(0, tx);
    const Object y = plus_builder.Build(1, ty);

    const ObjectSimilarity osim(esim_, 0.6);
    const bool expected = osim.Similarity(x, y) >= 0.6 - 1e-9;
    for (VerifyMode mode : {VerifyMode::kBasic, VerifyMode::kSubGraph, VerifyMode::kAdaptive}) {
      for (bool pruning : {true, false}) {
        VerifierOptions options;
        options.delta = 0.6;
        options.tau = 0.6;
        options.mode = mode;
        options.plus_mode = true;
        options.count_pruning = pruning;
        options.weighted_count_pruning = pruning;
        const Verifier verifier(esim_, gen, options);
        VerifyStats stats;
        ASSERT_EQ(verifier.Verify(x, y, &stats), expected)
            << "trial " << trial << " mode " << static_cast<int>(mode) << " pruning "
            << pruning;
      }
    }
  }
}

TEST_F(VerifierFixture, PrecomputedPlansMatchPlanlessVerification) {
  // The join builds one ObjectGroupPlan per object and reuses it across
  // every candidate pair; the plan-taking Verify overload must make the
  // same decisions with the same counters as the plan-less one.
  Rng rng(777);
  const SignatureGenerator gen(tree_, ElementMetric::kKJoin, SignatureScheme::kNode, 0.6);
  std::vector<std::string> labels;
  for (NodeId v = 1; v < tree_.num_nodes(); ++v) labels.push_back(tree_.label(v));
  labels.push_back("pizzahat");

  for (bool plus : {false, true}) {
    ObjectBuilder builder(matcher_, /*multi_mapping=*/plus);
    std::vector<Object> objects;
    for (int32_t id = 0; id < 12; ++id) {
      std::vector<std::string> tokens;
      const int n = 1 + static_cast<int>(rng.NextUint64(6));
      for (int i = 0; i < n; ++i) tokens.push_back(labels[rng.NextUint64(labels.size())]);
      objects.push_back(builder.Build(id, tokens));
    }
    VerifierOptions options;
    options.delta = 0.6;
    options.tau = 0.6;
    options.plus_mode = plus;
    const Verifier verifier(esim_, gen, options);
    std::vector<ObjectGroupPlan> plans(objects.size());
    for (size_t o = 0; o < objects.size(); ++o) verifier.BuildPlan(objects[o], &plans[o]);

    for (size_t i = 0; i < objects.size(); ++i) {
      for (size_t j = i + 1; j < objects.size(); ++j) {
        VerifyStats planless, planned;
        const bool a = verifier.Verify(objects[i], objects[j], &planless);
        const bool b = verifier.Verify(objects[i], objects[j], plans[i], plans[j], &planned);
        ASSERT_EQ(a, b) << (plus ? "plus" : "pure") << " pair " << i << "," << j;
        EXPECT_EQ(planless.pruned_by_count, planned.pruned_by_count);
        EXPECT_EQ(planless.pruned_by_weighted_count, planned.pruned_by_weighted_count);
        EXPECT_EQ(planless.accepted_by_lower_bound, planned.accepted_by_lower_bound);
        EXPECT_EQ(planless.rejected_by_upper_bound, planned.rejected_by_upper_bound);
        EXPECT_EQ(planless.hungarian_runs, planned.hungarian_runs);
        EXPECT_EQ(planless.groups_pinned, planned.groups_pinned);
        EXPECT_EQ(planless.results, planned.results);
      }
    }
  }
}

TEST_F(VerifierFixture, AdaptiveUsesEarlyTermination) {
  // Two identical large objects: lower bound accepts without Hungarian.
  const SignatureGenerator gen(tree_, ElementMetric::kKJoin, SignatureScheme::kNode, 0.7);
  VerifierOptions options;
  options.delta = 0.7;
  options.tau = 0.6;
  options.mode = VerifyMode::kAdaptive;
  const Verifier verifier(esim_, gen, options);
  const Object a = Make(0, {"BurgerKing", "Pizza", "Manhattan", "CA"});
  const Object b = Make(1, {"BurgerKing", "Pizza", "Manhattan", "CA"});
  VerifyStats stats;
  EXPECT_TRUE(verifier.Verify(a, b, &stats));
  EXPECT_EQ(stats.hungarian_runs, 0);
  EXPECT_EQ(stats.accepted_by_lower_bound, 1);
}

// ------------------------------------------------------------- token table

// ObjectBuilder resolves each token id's mappings once and copies them for
// every later occurrence. These tests hold that table to the matcher run
// directly on every occurrence, in both modes.

// `token`'s mappings as the matcher gives them, per occurrence.
std::vector<ElementMapping> DirectMappings(const EntityMatcher& matcher, bool plus,
                                           const std::string& token) {
  std::vector<ElementMapping> mappings;
  if (plus) {
    for (const EntityMatch& match : matcher.MatchAll(token)) {
      mappings.push_back({match.node, match.phi});
    }
  } else if (const auto match = matcher.MatchOne(token); match.has_value()) {
    mappings.push_back({match->node, match->phi});
  }
  return mappings;
}

// Build without a token table: ids from a plain first-seen map, and the
// matcher called on every occurrence.
class ReferenceBuilder {
 public:
  ReferenceBuilder(const EntityMatcher& matcher, bool plus) : matcher_(matcher), plus_(plus) {}

  Object Build(int32_t id, const std::vector<std::string>& tokens) {
    Object object;
    object.id = id;
    for (const std::string& raw : tokens) {
      const std::string token = tokenizer_.Normalize(raw);
      if (token.empty()) continue;
      Element element;
      element.token = token;
      element.token_id = ids_.emplace(token, static_cast<int32_t>(ids_.size())).first->second;
      element.mappings = DirectMappings(matcher_, plus_, token);
      object.elements.push_back(std::move(element));
    }
    return object;
  }

 private:
  const EntityMatcher& matcher_;
  bool plus_;
  Tokenizer tokenizer_;
  std::unordered_map<std::string, int32_t> ids_;
};

void ExpectSameObject(const Object& actual, const Object& expected) {
  EXPECT_EQ(actual.id, expected.id);
  EXPECT_EQ(actual.dictionary_size, expected.dictionary_size);
  ASSERT_EQ(actual.size(), expected.size()) << "object " << expected.id;
  for (int32_t i = 0; i < expected.size(); ++i) {
    const Element& a = actual.elements[i];
    const Element& e = expected.elements[i];
    EXPECT_EQ(a.token, e.token);
    EXPECT_EQ(a.token_id, e.token_id) << e.token;
    EXPECT_EQ(a.mappings, e.mappings) << e.token;
  }
}

class TokenTableTest : public testing::TestWithParam<bool> {
 protected:
  // min_phi = δ = 0.8, as joins run it; lower floors only slow the typo
  // channel down.
  TokenTableTest()
      : data_(MakePoiBenchmark(150, 61)),
        prepared_(BuildObjects(data_.hierarchy, data_.dataset, GetParam(), 0.8)) {}

  bool plus() const { return GetParam(); }
  const EntityMatcher& matcher() const { return *prepared_.matcher; }
  const std::vector<Record>& records() const { return data_.dataset.records; }

  // DirectMappings of a normalized token, matched once per distinct token
  // here; the builder under test never sees this memo.
  const std::vector<ElementMapping>& Expected(const std::string& token) {
    auto it = expected_.find(token);
    if (it == expected_.end()) {
      it = expected_.emplace(token, DirectMappings(matcher(), plus(), token)).first;
    }
    return it->second;
  }

  BenchmarkData data_;
  PreparedObjects prepared_;
  std::unordered_map<std::string, std::vector<ElementMapping>> expected_;
};

TEST_P(TokenTableTest, BuildEqualsPerOccurrenceMatching) {
  ReferenceBuilder reference(matcher(), plus());
  int64_t typo_mappings = 0;
  int64_t repeats = 0;
  std::set<int32_t> seen;
  for (size_t r = 0; r < records().size(); ++r) {
    const Object& built = prepared_.objects[r];
    ExpectSameObject(built, reference.Build(records()[r].id, records()[r].tokens));
    for (const Element& element : built.elements) {
      repeats += seen.insert(element.token_id).second ? 0 : 1;
      for (const ElementMapping& mapping : element.mappings) typo_mappings += mapping.phi < 1.0;
    }
  }
  // The data exercises the table: tokens recur, and K-Join+ maps typos.
  EXPECT_GT(repeats, 1000);
  if (plus()) {
    EXPECT_GT(typo_mappings, 0);
  }
  EXPECT_EQ(prepared_.builder->TokenTable().size(), seen.size());
}

TEST_P(TokenTableTest, BuildWithSpansMapsEveryElementLikeTheMatcher) {
  ObjectBuilder builder(matcher(), plus());
  for (int pass = 0; pass < 2; ++pass) {  // the second pass copies resolved ids
    for (const Record& record : records()) {
      const Object object = builder.BuildWithSpans(record.id, record.tokens);
      for (const Element& element : object.elements) {
        ASSERT_EQ(builder.TokenTable()[element.token_id], element.token);
        ASSERT_EQ(element.mappings, Expected(element.token)) << element.token;
      }
    }
  }
}

TEST_P(TokenTableTest, PreloadedIdsResolveOnFirstBuild) {
  ObjectBuilder builder(matcher(), plus());
  builder.PreloadTokens(prepared_.builder->TokenTable());
  const std::shared_ptr<const TokenDictionary> preloaded = builder.Dictionary();
  for (int32_t id = 0; id < preloaded->size(); ++id) {
    ASSERT_FALSE(preloaded->mappings().resolved(id)) << "preload ran the matcher";
  }
  for (size_t r = 0; r < records().size(); ++r) {
    ExpectSameObject(builder.Build(records()[r].id, records()[r].tokens), prepared_.objects[r]);
  }
  // Resolving ids without new tokens still republishes.
  EXPECT_EQ(builder.num_distinct_tokens(), preloaded->size());
  const std::shared_ptr<const TokenDictionary> resolved = builder.Dictionary();
  EXPECT_NE(resolved, preloaded);
  for (int32_t id = 0; id < resolved->size(); ++id) {
    ASSERT_TRUE(resolved->mappings().resolved(id));
  }
}

TEST_P(TokenTableTest, BuildQueryMatchesBuildAcrossDictionaries) {
  // Preload the first half's tokens, build a quarter of the records (some
  // ids resolved, some only interned), publish; build the rest, publish.
  const size_t n = records().size();
  ObjectBuilder half(matcher(), plus());
  for (size_t r = 0; r < n / 2; ++r) half.Build(records()[r].id, records()[r].tokens);
  ObjectBuilder builder(matcher(), plus());
  builder.PreloadTokens(half.TokenTable());
  for (size_t r = 0; r < n / 4; ++r) builder.Build(records()[r].id, records()[r].tokens);
  const std::shared_ptr<const TokenDictionary> old_dictionary = builder.Dictionary();
  for (size_t r = n / 4; r < n; ++r) builder.Build(records()[r].id, records()[r].tokens);
  const std::shared_ptr<const TokenDictionary> new_dictionary = builder.Dictionary();
  ASSERT_LT(old_dictionary->size(), new_dictionary->size());

  // Queries: every record, plus each record with a typo no record holds.
  std::vector<std::vector<std::string>> queries;
  for (const Record& record : records()) {
    queries.push_back(record.tokens);
    std::vector<std::string> typo = record.tokens;
    typo.front() += "qx";
    queries.push_back(std::move(typo));
  }
  for (const auto& dictionary : {old_dictionary, new_dictionary}) {
    int64_t resolved = 0;
    int64_t unresolved = 0;
    int64_t unknown = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      const Object query = builder.BuildQuery(static_cast<int32_t>(q), queries[q], *dictionary);
      EXPECT_EQ(query.dictionary_size, dictionary->size());
      for (const Element& element : query.elements) {
        ASSERT_EQ(element.token_id, dictionary->Find(element.token));
        ASSERT_EQ(element.mappings, Expected(element.token)) << element.token;
        if (element.token_id < 0) {
          ++unknown;
        } else if (dictionary->mappings().resolved(element.token_id)) {
          ++resolved;
        } else {
          ++unresolved;
        }
      }
    }
    EXPECT_GT(resolved, 0);
    EXPECT_GT(unknown, 0);
    if (dictionary == old_dictionary) {
      EXPECT_GT(unresolved, 0);
    } else {
      EXPECT_EQ(unresolved, 0);
    }
  }
}

TEST_P(TokenTableTest, BuildQueryOnFourThreadsWhileTheOwnerBuilds) {
  const size_t n = records().size();
  ObjectBuilder builder(matcher(), plus());
  for (size_t r = 0; r < n / 3; ++r) builder.Build(records()[r].id, records()[r].tokens);
  std::mutex mu;
  std::shared_ptr<const TokenDictionary> current = builder.Dictionary();
  // Expected mappings, filled before the race and only read during it.
  Tokenizer tokenizer;
  for (const Record& record : records()) {
    for (const std::string& raw : record.tokens) {
      const std::string token = tokenizer.Normalize(raw);
      if (!token.empty()) Expected(token);
    }
  }

  std::atomic<bool> done{false};
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (size_t q = static_cast<size_t>(t); !done.load() || q < n; q += 4) {
        std::shared_ptr<const TokenDictionary> dictionary;
        {
          std::lock_guard<std::mutex> lock(mu);
          dictionary = current;
        }
        const Record& record = records()[q % n];
        const Object query = builder.BuildQuery(record.id, record.tokens, *dictionary);
        for (const Element& element : query.elements) {
          if (element.token_id != dictionary->Find(element.token) ||
              element.mappings != expected_.at(element.token)) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (size_t r = n / 3; r < n; ++r) {
    builder.Build(records()[r].id, records()[r].tokens);
    if (r % 16 == 0) {
      std::shared_ptr<const TokenDictionary> published = builder.Dictionary();
      std::lock_guard<std::mutex> lock(mu);
      current = std::move(published);
    }
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Modes, TokenTableTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "Plus" : "Pure";
                         });

}  // namespace
}  // namespace kjoin
