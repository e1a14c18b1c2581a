// API-contract tests: invalid configurations and misuse must fail fast
// through the CHECK macros (the library's no-exceptions error policy),
// and documented preconditions must hold.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/kjoin.h"
#include "core/kjoin_index.h"
#include "core/topk_join.h"
#include "hierarchy/hierarchy_builder.h"
#include "text/entity_matcher.h"
#include "text/qgram_index.h"

namespace kjoin {
namespace {

class ContractsTest : public testing::Test {
 protected:
  ContractsTest() : tree_(MakeFigure1Hierarchy()) {}
  Hierarchy tree_;
};

TEST_F(ContractsTest, KJoinRejectsBadThresholds) {
  KJoinOptions bad_delta;
  bad_delta.delta = 0.0;
  EXPECT_DEATH(KJoin(tree_, bad_delta), "delta");

  KJoinOptions bad_tau;
  bad_tau.tau = 1.5;
  EXPECT_DEATH(KJoin(tree_, bad_tau), "tau");

  KJoinOptions bad_threads;
  bad_threads.num_threads = 0;
  EXPECT_DEATH(KJoin(tree_, bad_threads), "num_threads");
}

TEST_F(ContractsTest, WeightedPrefixRequiresDeepScheme) {
  KJoinOptions options;
  options.scheme = SignatureScheme::kNode;
  options.weighted_prefix = true;
  EXPECT_DEATH(KJoin(tree_, options), "weighted prefix");
}

TEST_F(ContractsTest, SearchTopKRejectsSubThresholdFloor) {
  EntityMatcher matcher(tree_);
  ObjectBuilder builder(matcher, false);
  std::vector<Object> objects = {builder.Build(0, {"KFC"})};
  KJoinOptions options;
  options.tau = 0.8;
  const KJoinIndex index(tree_, options, objects);
  // A floor below tau is untrusted input, not a programming error: the
  // search returns kInvalidArgument (NaN included) and no hits.
  std::vector<SearchHit> hits = {SearchHit{0, 1.0}};
  const Status status = index.SearchTopK(objects[0], 5, 0.5, JoinControl{}, &hits);
  EXPECT_TRUE(IsInvalidArgument(status)) << status.ToString();
  EXPECT_NE(status.message().find("tau"), std::string::npos);
  EXPECT_TRUE(hits.empty());
  EXPECT_TRUE(IsInvalidArgument(
      index.SearchTopK(objects[0], 0, std::nan(""), JoinControl{}, &hits)));
}

TEST_F(ContractsTest, TopKJoinValidatesSchedule) {
  TopKOptions bad_floor;
  bad_floor.tau_floor = 0.0;
  EXPECT_DEATH(TopKJoin(tree_, bad_floor), "tau_floor");

  TopKOptions bad_step;
  bad_step.tau_step = 0.0;
  EXPECT_DEATH(TopKJoin(tree_, bad_step), "tau_step");

  TopKOptions good;
  const TopKJoin topk(tree_, good);
  EXPECT_DEATH(topk.SelfJoinTopK({}, 0), "k");
}

TEST_F(ContractsTest, SynonymRegistrationFrozenAfterLookup) {
  EntityMatcher matcher(tree_);
  // Approximate lookup builds the q-gram index lazily; synonyms must be
  // registered before that.
  matcher.MatchAll("pizzahat");
  EXPECT_DEATH(matcher.AddSynonym("alias", "KFC"), "synonyms");
}

TEST_F(ContractsTest, SynonymRegistrationFrozenAfterExactLookup) {
  // Without approximate matching no q-gram index is ever built, yet a
  // lookup still fixes the token's mappings (ObjectBuilder resolves each
  // token once), so a later synonym must be refused all the same.
  EntityMatcherOptions options;
  options.enable_approximate = false;
  EntityMatcher matcher(tree_, options);
  EXPECT_FALSE(matcher.MatchOne("alias").has_value());
  EXPECT_DEATH(matcher.AddSynonym("alias", "KFC"), "synonyms");
}

TEST_F(ContractsTest, HierarchyRejectsMalformedParents) {
  // Parent after child.
  EXPECT_DEATH(Hierarchy({kInvalidNode, 2, 1}, {"r", "a", "b"}), "parents must precede");
  // Node 0 must be the root.
  EXPECT_DEATH(Hierarchy({0, 0}, {"r", "a"}), "root");
}

TEST_F(ContractsTest, AncestorAtDepthBounds) {
  const NodeId kfc = *tree_.FindByLabel("KFC");
  EXPECT_DEATH(tree_.AncestorAtDepth(kfc, -1), "");
  EXPECT_DEATH(tree_.AncestorAtDepth(kfc, tree_.depth(kfc) + 1), "");
}

TEST_F(ContractsTest, QGramIndexRejectsNegativeBudget) {
  const QGramIndex index({"abc"}, 2);
  EXPECT_DEATH(index.Candidates("abc", -1), "");
}

TEST_F(ContractsTest, QGramIndexRejectsQAboveTwo) {
  // Grams address a 2^(8q)-slot table directly, so only q = 1 and 2 build.
  EXPECT_DEATH(QGramIndex({"abc"}, 3), "q is 1 or 2");
}

TEST_F(ContractsTest, NodesWithLabelHandlesUnknownAndDuplicates) {
  EXPECT_TRUE(tree_.NodesWithLabel("NoSuchLabel").empty());
  EXPECT_FALSE(tree_.FindByLabel("NoSuchLabel").has_value());
  // Duplicate labels: FindByLabel refuses to pick.
  HierarchyBuilder builder;
  builder.AddChild(builder.root(), "Dup");
  builder.AddChild(builder.root(), "Dup");
  const Hierarchy dup = std::move(builder).Build();
  EXPECT_EQ(dup.NodesWithLabel("Dup").size(), 2u);
  EXPECT_FALSE(dup.FindByLabel("Dup").has_value());
}

}  // namespace
}  // namespace kjoin
