// Edge-case and stress tests: degenerate hierarchies (chains, stars),
// extreme thresholds, metric combinations, and tokenizer-driven object
// construction.

#include <gtest/gtest.h>

#include <set>

#include "baselines/naive_join.h"
#include "common/rng.h"
#include "core/kjoin.h"
#include "hierarchy/hierarchy_builder.h"
#include "hierarchy/lca.h"
#include "text/entity_matcher.h"

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

// A path: Root -> c1 -> c2 -> ... -> c{depth}.
Hierarchy MakeChain(int depth) {
  HierarchyBuilder builder;
  NodeId current = builder.root();
  for (int d = 1; d <= depth; ++d) {
    current = builder.AddChild(current, "c" + std::to_string(d));
  }
  return std::move(builder).Build();
}

// Root with `fanout` leaf children.
Hierarchy MakeStar(int fanout) {
  HierarchyBuilder builder;
  for (int i = 0; i < fanout; ++i) {
    builder.AddChild(builder.root(), "leaf" + std::to_string(i));
  }
  return std::move(builder).Build();
}

TEST(ChainHierarchyTest, AncestorSimilarities) {
  const Hierarchy chain = MakeChain(40);
  const LcaIndex lca(chain);
  const ElementSimilarity esim(lca);
  const NodeId deep = *chain.FindByLabel("c40");
  const NodeId mid = *chain.FindByLabel("c20");
  // LCA(c20, c40) = c20 at depth 20 -> 20/40.
  EXPECT_DOUBLE_EQ(esim.NodeSim(deep, mid), 0.5);
  EXPECT_DOUBLE_EQ(esim.NodeSim(deep, *chain.FindByLabel("c39")), 39.0 / 40.0);
}

TEST(ChainHierarchyTest, DeepSignaturesSpanTheRange) {
  const Hierarchy chain = MakeChain(40);
  const SignatureGenerator gen(chain, ElementMetric::kKJoin, SignatureScheme::kDeepPath, 0.9);
  Object object;
  const NodeId deep = *chain.FindByLabel("c40");
  object.elements.push_back({"c40", 0, {{deep, 1.0}}});
  const auto sigs = gen.Generate(object);
  // Depths ⌈0.9·40⌉=36 .. 40 -> 5 signatures.
  EXPECT_EQ(sigs.size(), 5u);
  for (const Signature& sig : sigs) {
    const int depth = chain.depth(static_cast<NodeId>(sig.id));
    EXPECT_GE(depth, 36);
    EXPECT_LE(depth, 40);
    // Definition 9 weight: depth / 40.
    EXPECT_NEAR(sig.weight, depth / 40.0, 1e-6);
  }
}

TEST(ChainHierarchyTest, JoinOnChainMatchesOracle) {
  const Hierarchy chain = MakeChain(30);
  EntityMatcherOptions matcher_options;
  matcher_options.enable_approximate = false;
  EntityMatcher matcher(chain, matcher_options);
  ObjectBuilder builder(matcher, false);
  Rng rng(3);
  std::vector<Object> objects;
  for (int i = 0; i < 60; ++i) {
    std::vector<std::string> tokens;
    const int n = 1 + static_cast<int>(rng.NextUint64(4));
    for (int k = 0; k < n; ++k) {
      tokens.push_back("c" + std::to_string(1 + rng.NextUint64(30)));
    }
    objects.push_back(builder.Build(i, tokens));
  }
  KJoinOptions options;
  options.delta = 0.8;
  options.tau = 0.7;
  const JoinResult fast = KJoin(chain, options).SelfJoin(objects);
  const JoinResult oracle = NaiveJoin(chain, options).SelfJoin(objects);
  EXPECT_EQ(ToSet(fast.pairs), ToSet(oracle.pairs));
}

TEST(StarHierarchyTest, LeavesAreDissimilar) {
  const Hierarchy star = MakeStar(50);
  const LcaIndex lca(star);
  const ElementSimilarity esim(lca);
  const NodeId a = *star.FindByLabel("leaf0");
  const NodeId b = *star.FindByLabel("leaf1");
  EXPECT_DOUBLE_EQ(esim.NodeSim(a, b), 0.0);  // LCA is the root (depth 0)
  EXPECT_DOUBLE_EQ(esim.NodeSim(a, a), 1.0);
}

TEST(StarHierarchyTest, JoinReducesToExactSetJoin) {
  // On a star hierarchy, knowledge-aware similarity degenerates to exact
  // token matching: sanity-check against the oracle.
  const Hierarchy star = MakeStar(20);
  EntityMatcherOptions matcher_options;
  matcher_options.enable_approximate = false;
  EntityMatcher matcher(star, matcher_options);
  ObjectBuilder builder(matcher, false);
  Rng rng(5);
  std::vector<Object> objects;
  for (int i = 0; i < 80; ++i) {
    std::vector<std::string> tokens;
    const int n = 2 + static_cast<int>(rng.NextUint64(3));
    for (int k = 0; k < n; ++k) {
      tokens.push_back("leaf" + std::to_string(rng.NextUint64(20)));
    }
    objects.push_back(builder.Build(i, tokens));
  }
  KJoinOptions options;
  options.delta = 0.5;
  options.tau = 0.6;
  const JoinResult fast = KJoin(star, options).SelfJoin(objects);
  const JoinResult oracle = NaiveJoin(star, options).SelfJoin(objects);
  EXPECT_EQ(ToSet(fast.pairs), ToSet(oracle.pairs));
}

TEST(ExtremeThresholdTest, TauOneFindsOnlyPerfectMatches) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, false);
  std::vector<Object> objects;
  objects.push_back(builder.Build(0, {"KFC", "CA"}));
  objects.push_back(builder.Build(1, {"KFC", "CA"}));
  objects.push_back(builder.Build(2, {"KFC", "NY"}));
  objects.push_back(builder.Build(3, {"CA", "KFC"}));  // order-insensitive
  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 1.0;
  const JoinResult result = KJoin(tree, options).SelfJoin(objects);
  EXPECT_EQ(ToSet(result.pairs), (PairSet{{0, 1}, {0, 3}, {1, 3}}));
}

TEST(ExtremeThresholdTest, DeltaNearOneKeepsOnlyIdenticalElements) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  const LcaIndex lca(tree);
  const ElementSimilarity esim(lca);
  const ObjectSimilarity osim(esim, /*delta=*/0.99);
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, false);
  const Object a = builder.Build(0, {"BurgerKing", "KFC"});
  const Object b = builder.Build(1, {"KFC", "PizzaHut"});
  // Only the identical KFC survives δ = 0.99.
  EXPECT_NEAR(osim.FuzzyOverlap(a, b), 1.0, 1e-12);
}

TEST(MetricMatrixTest, AllVerifiersAgreeAcrossMetricCombinations) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  const LcaIndex lca(tree);
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, false);
  Rng rng(2025);
  std::vector<std::string> labels;
  for (NodeId v = 1; v < tree.num_nodes(); ++v) labels.push_back(tree.label(v));

  std::vector<Object> objects;
  for (int i = 0; i < 30; ++i) {
    std::vector<std::string> tokens;
    const int n = 1 + static_cast<int>(rng.NextUint64(5));
    for (int k = 0; k < n; ++k) tokens.push_back(labels[rng.NextUint64(labels.size())]);
    objects.push_back(builder.Build(i, tokens));
  }

  for (ElementMetric emetric : {ElementMetric::kKJoin, ElementMetric::kWuPalmer}) {
    for (SetMetric smetric : {SetMetric::kJaccard, SetMetric::kDice, SetMetric::kCosine}) {
      KJoinOptions options;
      options.delta = 0.7;
      options.tau = 0.65;
      options.element_metric = emetric;
      options.set_metric = smetric;
      const JoinResult oracle = NaiveJoin(tree, options).SelfJoin(objects);
      for (VerifyMode mode :
           {VerifyMode::kBasic, VerifyMode::kSubGraph, VerifyMode::kAdaptive}) {
        options.verify_mode = mode;
        const JoinResult result = KJoin(tree, options).SelfJoin(objects);
        ASSERT_EQ(ToSet(result.pairs), ToSet(oracle.pairs))
            << "emetric " << static_cast<int>(emetric) << " smetric "
            << static_cast<int>(smetric) << " mode " << static_cast<int>(mode);
      }
    }
  }
}

TEST(ObjectBuilderTest, BuildFromTextTokenizes) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, false);
  const Object object = builder.BuildFromText(0, "Burger-King, at Mountain_View!");
  // "burger", "king", "at", "mountain", "view" (punctuation splits).
  EXPECT_EQ(object.size(), 5);
  EXPECT_EQ(object.elements[0].token, "burger");
}

TEST(ObjectBuilderTest, BuildWithSpansRecognizesMultiWordEntities) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, false);
  // "mountain view" concatenates to "mountainview" = MountainView's
  // normalized label; "burger king" likewise.
  const Object object =
      builder.BuildWithSpans(0, {"burger", "king", "near", "mountain", "view"});
  ASSERT_EQ(object.size(), 3);  // burgerking, near, mountainview
  EXPECT_EQ(object.elements[0].token, "burgerking");
  ASSERT_TRUE(object.elements[0].has_node());
  EXPECT_EQ(object.elements[0].mappings[0].node, *tree.FindByLabel("BurgerKing"));
  EXPECT_EQ(object.elements[1].token, "near");
  EXPECT_FALSE(object.elements[1].has_node());
  EXPECT_EQ(object.elements[2].token, "mountainview");
  ASSERT_TRUE(object.elements[2].has_node());
}

TEST(ObjectBuilderTest, BuildWithSpansPrefersLongestMatch) {
  // A label that is a prefix of a longer label: spans take the longest.
  HierarchyBuilder tb;
  const NodeId food = tb.AddChild(tb.root(), "Food");
  tb.AddChild(food, "Pizza");
  tb.AddChild(food, "PizzaHut");
  const Hierarchy tree = std::move(tb).Build();
  EntityMatcherOptions options;
  options.enable_approximate = false;
  EntityMatcher matcher(tree, options);
  ObjectBuilder builder(matcher, false);
  const Object object = builder.BuildWithSpans(0, {"pizza", "hut"});
  ASSERT_EQ(object.size(), 1);
  EXPECT_EQ(object.elements[0].token, "pizzahut");
  EXPECT_EQ(object.elements[0].mappings[0].node, *tree.FindByLabel("PizzaHut"));
}

TEST(ObjectBuilderTest, BuildWithSpansFallsBackToSingles) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, false);
  const Object spans = builder.BuildWithSpans(0, {"kfc", "ca"});
  const Object plain = builder.Build(1, {"kfc", "ca"});
  ASSERT_EQ(spans.size(), plain.size());
  for (int32_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans.elements[i].token, plain.elements[i].token);
    EXPECT_EQ(spans.elements[i].mappings, plain.elements[i].mappings);
  }
}

TEST(ObjectBuilderTest, TokenIdsSharedAcrossObjects) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, false);
  const Object a = builder.Build(0, {"KFC", "foo"});
  const Object b = builder.Build(1, {"foo", "KFC"});
  EXPECT_EQ(a.elements[0].token_id, b.elements[1].token_id);
  EXPECT_EQ(a.elements[1].token_id, b.elements[0].token_id);
  EXPECT_EQ(builder.num_distinct_tokens(), 2);
}

TEST(ObjectBuilderTest, BuildQueryResolvesWithoutInterning) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, /*multi_mapping=*/true);
  const Object indexed = builder.Build(0, {"KFC", "foo", "pizzahut"});
  const std::shared_ptr<const TokenDictionary> dictionary = builder.Dictionary();
  const Object query = builder.BuildQuery(1, {"foo", "pizzahat", "KFC", "zzz"}, *dictionary);
  EXPECT_EQ(builder.num_distinct_tokens(), 3);  // nothing interned
  EXPECT_EQ(query.dictionary_size, 3);
  ASSERT_EQ(query.size(), 4);
  EXPECT_EQ(query.elements[0].token_id, indexed.elements[1].token_id);
  EXPECT_EQ(query.elements[1].token_id, -1);
  EXPECT_EQ(query.elements[2].token_id, indexed.elements[0].token_id);
  EXPECT_EQ(query.elements[3].token_id, -1);
  // Mappings are Build's, typo channel included.
  const Object built = builder.Build(2, {"foo", "pizzahat", "KFC", "zzz"});
  for (int32_t i = 0; i < query.size(); ++i) {
    EXPECT_EQ(query.elements[i].token, built.elements[i].token);
    EXPECT_EQ(query.elements[i].mappings, built.elements[i].mappings);
  }
  EXPECT_TRUE(query.elements[1].has_node());
}

TEST(ObjectBuilderTest, PublishedDictionariesStayFrozen) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, false);
  std::vector<std::shared_ptr<const TokenDictionary>> published;
  std::vector<std::string> tokens;
  for (int i = 0; i < 100; ++i) {
    tokens.push_back("t" + std::to_string(i));
    EXPECT_EQ(builder.InternToken(tokens.back()), i);
    if (i % 7 == 0) published.push_back(builder.Dictionary());
  }
  EXPECT_EQ(builder.TokenTable(), tokens);
  for (const auto& dictionary : published) {
    for (int i = 0; i < static_cast<int>(tokens.size()); ++i) {
      ASSERT_EQ(dictionary->Find(tokens[i]), i < dictionary->size() ? i : -1)
          << "token " << i << " in a dictionary of " << dictionary->size();
    }
  }
  // Interning continues after a publish; a repeat keeps its id.
  EXPECT_EQ(builder.InternToken("t3"), 3);
  EXPECT_EQ(builder.InternToken("fresh"), 100);
  EXPECT_EQ(builder.Dictionary()->Find("fresh"), 100);
  // An unchanged table republishes the same dictionary.
  EXPECT_EQ(builder.Dictionary(), builder.Dictionary());
}

TEST(ObjectBuilderTest, ResolveUnknownTokensUsesOnlyNewerIds) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, false);
  builder.Build(0, {"KFC", "foo"});
  const std::shared_ptr<const TokenDictionary> stale = builder.Dictionary();
  const Object query = builder.BuildQuery(1, {"bar", "foo", "baz"}, *stale);
  Object resolved;
  // A table no longer than the query's dictionary changes nothing.
  EXPECT_FALSE(ResolveUnknownTokens(query, builder.TokenTable(), &resolved));
  builder.Build(2, {"baz", "qux"});
  ASSERT_TRUE(ResolveUnknownTokens(query, builder.TokenTable(), &resolved));
  EXPECT_EQ(resolved.elements[0].token_id, -1);  // "bar" is still unseen
  EXPECT_EQ(resolved.elements[1].token_id, query.elements[1].token_id);
  EXPECT_EQ(resolved.elements[2].token_id, builder.InternToken("baz"));
  EXPECT_EQ(resolved.dictionary_size, 4);
  // Interned objects carry complete ids and are never re-resolved.
  const Object interned = builder.Build(3, {"foo"});
  EXPECT_FALSE(ResolveUnknownTokens(interned, builder.TokenTable(), &resolved));
}

TEST(SingleElementObjectTest, JoinWorks) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  EntityMatcher matcher(tree);
  ObjectBuilder builder(matcher, false);
  std::vector<Object> objects;
  objects.push_back(builder.Build(0, {"BurgerKing"}));
  // Element SIM(BurgerKing, KFC) = 3/4, so Jaccard = 0.75/1.25 = 0.6.
  objects.push_back(builder.Build(1, {"KFC"}));
  objects.push_back(builder.Build(2, {"Manhattan"}));  // SIM = 0
  KJoinOptions options;
  options.delta = 0.7;
  options.tau = 0.6;
  const JoinResult result = KJoin(tree, options).SelfJoin(objects);
  EXPECT_EQ(ToSet(result.pairs), (PairSet{{0, 1}}));
}

}  // namespace
}  // namespace kjoin
