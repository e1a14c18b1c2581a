// Tests for src/hierarchy: tree construction, LCA, DAG conversion,
// generator, and text IO.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "hierarchy/dag.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/hierarchy_builder.h"
#include "hierarchy/hierarchy_generator.h"
#include "hierarchy/hierarchy_io.h"
#include "hierarchy/lca.h"

namespace kjoin {
namespace {

TEST(HierarchyBuilderTest, BuildsFigure1Tree) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  EXPECT_EQ(tree.num_nodes(), 20);
  EXPECT_EQ(tree.height(), 6);

  // Depths match the paper's worked examples.
  EXPECT_EQ(tree.depth(*tree.FindByLabel("BurgerKing")), 4);
  EXPECT_EQ(tree.depth(*tree.FindByLabel("KFC")), 4);
  EXPECT_EQ(tree.depth(*tree.FindByLabel("Fastfood")), 3);
  EXPECT_EQ(tree.depth(*tree.FindByLabel("MountainView")), 5);
  EXPECT_EQ(tree.depth(*tree.FindByLabel("GoogleHeadquarters")), 6);
  EXPECT_EQ(tree.depth(*tree.FindByLabel("CA")), 3);
  EXPECT_EQ(tree.depth(*tree.FindByLabel("Manhattan")), 5);
}

TEST(HierarchyTest, ParentChildRelations) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  const NodeId fastfood = *tree.FindByLabel("Fastfood");
  const NodeId burger = *tree.FindByLabel("BurgerKing");
  EXPECT_EQ(tree.parent(burger), fastfood);
  const auto& kids = tree.children(fastfood);
  EXPECT_EQ(kids.size(), 2u);
  EXPECT_TRUE(tree.IsLeaf(burger));
  EXPECT_FALSE(tree.IsLeaf(fastfood));
}

TEST(HierarchyTest, AncestorAtDepth) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  const NodeId gh = *tree.FindByLabel("GoogleHeadquarters");
  EXPECT_EQ(tree.AncestorAtDepth(gh, 6), gh);
  EXPECT_EQ(tree.label(tree.AncestorAtDepth(gh, 5)), "MountainView");
  EXPECT_EQ(tree.label(tree.AncestorAtDepth(gh, 4)), "SanFrancisco");
  EXPECT_EQ(tree.label(tree.AncestorAtDepth(gh, 3)), "CA");
  EXPECT_EQ(tree.label(tree.AncestorAtDepth(gh, 0)), "Root");
}

TEST(HierarchyTest, IsAncestor) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  const NodeId food = *tree.FindByLabel("Food");
  const NodeId kfc = *tree.FindByLabel("KFC");
  const NodeId us = *tree.FindByLabel("US");
  EXPECT_TRUE(tree.IsAncestor(food, kfc));
  EXPECT_TRUE(tree.IsAncestor(kfc, kfc));
  EXPECT_FALSE(tree.IsAncestor(us, kfc));
  EXPECT_FALSE(tree.IsAncestor(kfc, food));
}

TEST(HierarchyTest, NaiveLcaMatchesPaperExamples) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  const NodeId burger = *tree.FindByLabel("BurgerKing");
  const NodeId kfc = *tree.FindByLabel("KFC");
  // Paper §2.1.1: LCA(BurgerKing, KFC) = Fastfood at depth 3.
  EXPECT_EQ(tree.label(tree.LowestCommonAncestorNaive(burger, kfc)), "Fastfood");
  // LCA of a node with itself is itself.
  EXPECT_EQ(tree.LowestCommonAncestorNaive(kfc, kfc), kfc);
  // Across the two top branches the LCA is the root.
  const NodeId manhattan = *tree.FindByLabel("Manhattan");
  EXPECT_EQ(tree.LowestCommonAncestorNaive(burger, manhattan), tree.root());
  // Ancestor-descendant pair.
  const NodeId mv = *tree.FindByLabel("MountainView");
  const NodeId gh = *tree.FindByLabel("GoogleHeadquarters");
  EXPECT_EQ(tree.LowestCommonAncestorNaive(mv, gh), mv);
}

TEST(HierarchyTest, LeavesAndStats) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  const HierarchyStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.num_nodes, 20);
  EXPECT_EQ(stats.height, 6);
  EXPECT_EQ(stats.num_leaves, static_cast<int64_t>(tree.leaves().size()));
  EXPECT_GE(stats.max_fanout, 2);
  EXPECT_GE(stats.min_fanout, 1);
}

TEST(LcaIndexTest, MatchesNaiveOnFigure1) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  const LcaIndex lca(tree);
  for (NodeId x = 0; x < tree.num_nodes(); ++x) {
    for (NodeId y = 0; y < tree.num_nodes(); ++y) {
      EXPECT_EQ(lca.Lca(x, y), tree.LowestCommonAncestorNaive(x, y))
          << tree.label(x) << " vs " << tree.label(y);
    }
  }
}

TEST(LcaIndexTest, MatchesNaiveOnRandomTrees) {
  Rng rng(99);
  for (uint64_t seed : {1u, 2u, 3u}) {
    HierarchyGenParams params;
    params.num_nodes = 500;
    params.height = 5;
    params.avg_fanout = 4.0;
    params.max_fanout = 12;
    params.seed = seed;
    const Hierarchy tree = GenerateHierarchy(params);
    const LcaIndex lca(tree);
    for (int trial = 0; trial < 2000; ++trial) {
      const NodeId x = static_cast<NodeId>(rng.NextUint64(tree.num_nodes()));
      const NodeId y = static_cast<NodeId>(rng.NextUint64(tree.num_nodes()));
      ASSERT_EQ(lca.Lca(x, y), tree.LowestCommonAncestorNaive(x, y));
    }
  }
}

TEST(LcaIndexTest, SingleNodeTree) {
  HierarchyBuilder builder("OnlyRoot");
  const Hierarchy tree = std::move(builder).Build();
  const LcaIndex lca(tree);
  EXPECT_EQ(lca.Lca(0, 0), 0);
  EXPECT_EQ(lca.LcaDepth(0, 0), 0);
}

// Degenerate shape: a pure path (every node a single child), so depth runs
// all the way to n-1 and the sparse table's deepest levels are exercised.
TEST(LcaIndexTest, PurePathMatchesNaive) {
  const int n = 400;
  std::vector<NodeId> parents(n);
  std::vector<std::string> labels(n);
  parents[0] = kInvalidNode;
  labels[0] = "n0";
  for (int v = 1; v < n; ++v) {
    parents[v] = static_cast<NodeId>(v - 1);
    labels[v] = "n" + std::to_string(v);
  }
  const Hierarchy tree(std::move(parents), std::move(labels));
  EXPECT_EQ(tree.height(), n - 1);
  const LcaIndex lca(tree);
  // On a path the LCA is always the shallower endpoint.
  EXPECT_EQ(lca.Lca(10, 250), 10);
  EXPECT_EQ(lca.LcaDepth(0, n - 1), 0);
  EXPECT_EQ(lca.LcaDepth(n - 1, n - 1), n - 1);
  Rng rng(11);
  for (int trial = 0; trial < 4000; ++trial) {
    const NodeId x = static_cast<NodeId>(rng.NextUint64(n));
    const NodeId y = static_cast<NodeId>(rng.NextUint64(n));
    ASSERT_EQ(lca.Lca(x, y), tree.LowestCommonAncestorNaive(x, y));
    ASSERT_EQ(lca.LcaDepth(x, y), tree.depth(lca.Lca(x, y)));
  }
}

// Degenerate shape: a star (root plus n-1 leaves) — maximal fanout, Euler
// tour revisits the root between every pair of children.
TEST(LcaIndexTest, StarMatchesNaive) {
  const int n = 2001;
  std::vector<NodeId> parents(n);
  std::vector<std::string> labels(n);
  parents[0] = kInvalidNode;
  labels[0] = "hub";
  for (int v = 1; v < n; ++v) {
    parents[v] = 0;
    labels[v] = "leaf" + std::to_string(v);
  }
  const Hierarchy tree(std::move(parents), std::move(labels));
  EXPECT_EQ(tree.height(), 1);
  const LcaIndex lca(tree);
  Rng rng(13);
  for (int trial = 0; trial < 4000; ++trial) {
    const NodeId x = static_cast<NodeId>(rng.NextUint64(n));
    const NodeId y = static_cast<NodeId>(rng.NextUint64(n));
    ASSERT_EQ(lca.Lca(x, y), tree.LowestCommonAncestorNaive(x, y));
    // Distinct leaves meet at the hub; anything involving a node and
    // itself, or the hub, is resolved by depth alone.
    ASSERT_EQ(lca.LcaDepth(x, y), (x == y && x != 0) ? 1 : 0);
  }
}

// The CSR child layout must agree with the parent array: each child list
// ascending, every child's parent pointing back, and exactly n-1 edges.
TEST(HierarchyTest, CsrChildrenMatchParents) {
  HierarchyGenParams params;
  params.num_nodes = 700;
  params.height = 6;
  params.avg_fanout = 4.0;
  params.max_fanout = 10;
  params.seed = 21;
  const Hierarchy tree = GenerateHierarchy(params);
  int64_t edges = 0;
  for (NodeId v = 0; v < tree.num_nodes(); ++v) {
    const auto kids = tree.children(v);
    EXPECT_TRUE(std::is_sorted(kids.begin(), kids.end()));
    for (NodeId child : kids) {
      EXPECT_EQ(tree.parent(child), v);
    }
    edges += static_cast<int64_t>(kids.size());
    EXPECT_EQ(tree.IsLeaf(v), kids.empty());
  }
  EXPECT_EQ(edges, tree.num_nodes() - 1);
}

// FromParts treats its input as untrusted (snapshot bytes whose CRCs an
// attacker can recompute): forged interior CSR offsets must be rejected
// before the replay loop can index child_nodes out of bounds. Runs under
// the asan preset.
TEST(HierarchyTest, FromPartsRejectsForgedCsrOffsets) {
  // Valid baseline: root 0 with children {1, 2}; node 2 has child 3.
  const auto make_parts = [] {
    HierarchyParts parts;
    parts.parents = {kInvalidNode, 0, 0, 2};
    parts.labels = {"r", "a", "b", "c"};
    parts.depths = {0, 1, 1, 2};
    parts.child_offsets = {0, 2, 2, 3, 3};
    parts.child_nodes = {1, 2, 3};
    parts.leaves = {1, 3};
    parts.height = 2;
    return parts;
  };
  ASSERT_TRUE(Hierarchy::FromParts(make_parts()).ok());

  // A negative interior offset seeds node 2's replay cursor below zero
  // while still passing the `slot >= child_offsets[p + 1]` guard.
  HierarchyParts negative = make_parts();
  negative.child_offsets[2] = -50;
  StatusOr<Hierarchy> forged = Hierarchy::FromParts(std::move(negative));
  ASSERT_FALSE(forged.ok());
  EXPECT_TRUE(IsInvalidArgument(forged.status())) << forged.status().ToString();

  // An oversized interior pair passes the same guard with a slot far past
  // child_nodes.size().
  HierarchyParts oversized = make_parts();
  oversized.child_offsets[2] = 100;
  oversized.child_offsets[3] = 200;
  forged = Hierarchy::FromParts(std::move(oversized));
  ASSERT_FALSE(forged.ok());
  EXPECT_TRUE(IsInvalidArgument(forged.status())) << forged.status().ToString();
}

TEST(HierarchyBuilderTest, AddPathReusesNodes) {
  HierarchyBuilder builder;
  const NodeId a = builder.AddPath({"Food", "Pizza"});
  const NodeId b = builder.AddPath({"Food", "Burgers"});
  const NodeId c = builder.AddPath({"Food", "Pizza"});
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  const Hierarchy tree = std::move(builder).Build();
  EXPECT_EQ(tree.num_nodes(), 4);  // Root, Food, Pizza, Burgers
}

TEST(HierarchyGeneratorTest, MatchesTable2Shape) {
  const Hierarchy tree = GenerateHierarchy(HierarchyGenParams{});
  const HierarchyStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.num_nodes, 4222);  // Table 2
  EXPECT_EQ(stats.height, 6);
  EXPECT_NEAR(stats.avg_fanout, 7.0, 1.5);
  EXPECT_LE(stats.max_fanout, 49);
  EXPECT_GE(stats.max_fanout, 25);
  EXPECT_GE(stats.min_fanout, 1);
}

TEST(HierarchyGeneratorTest, DeterministicPerSeed) {
  HierarchyGenParams params;
  params.num_nodes = 300;
  params.height = 4;
  const Hierarchy a = GenerateHierarchy(params);
  const Hierarchy b = GenerateHierarchy(params);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.parent(v), b.parent(v));
    ASSERT_EQ(a.label(v), b.label(v));
  }
}

TEST(HierarchyGeneratorTest, UniqueLabels) {
  HierarchyGenParams params;
  params.num_nodes = 1000;
  params.height = 5;
  params.avg_fanout = 5.0;
  const Hierarchy tree = GenerateHierarchy(params);
  std::vector<std::string> labels;
  for (NodeId v = 0; v < tree.num_nodes(); ++v) labels.push_back(tree.label(v));
  std::sort(labels.begin(), labels.end());
  EXPECT_TRUE(std::adjacent_find(labels.begin(), labels.end()) == labels.end());
}

TEST(HierarchyGeneratorTest, LeavesAtManyDepths) {
  const Hierarchy tree = GenerateHierarchy(HierarchyGenParams{});
  std::vector<int> leaf_depth_counts(tree.height() + 1, 0);
  for (NodeId leaf : tree.leaves()) ++leaf_depth_counts[tree.depth(leaf)];
  int depths_with_leaves = 0;
  for (int d = 2; d <= tree.height(); ++d) {
    if (leaf_depth_counts[d] > 0) ++depths_with_leaves;
  }
  EXPECT_GE(depths_with_leaves, 3) << "elements should occur at varied depths";
}

TEST(DagTest, SimpleDiamondUnfoldsToTree) {
  // Root -> {A, B} -> C (C has two parents).
  Dag dag;
  const int32_t a = dag.AddNode("A");
  const int32_t b = dag.AddNode("B");
  const int32_t c = dag.AddNode("C");
  dag.AddEdge(0, a);
  dag.AddEdge(0, b);
  dag.AddEdge(a, c);
  dag.AddEdge(b, c);
  auto tree = ConvertDagToTree(dag);
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->num_nodes(), 5);  // Root, A, C@A, B, C@B
  EXPECT_EQ(tree->NodesWithLabel("C").size(), 2u);
  for (NodeId copy : tree->NodesWithLabel("C")) {
    EXPECT_EQ(tree->depth(copy), 2);
  }
}

TEST(DagTest, SubtreeBelowDuplicatedNodeIsCopied) {
  Dag dag;
  const int32_t a = dag.AddNode("A");
  const int32_t b = dag.AddNode("B");
  const int32_t c = dag.AddNode("C");
  const int32_t d = dag.AddNode("D");  // child of the duplicated C
  dag.AddEdge(0, a);
  dag.AddEdge(0, b);
  dag.AddEdge(a, c);
  dag.AddEdge(b, c);
  dag.AddEdge(c, d);
  auto tree = ConvertDagToTree(dag);
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->NodesWithLabel("D").size(), 2u);
  EXPECT_EQ(tree->num_nodes(), 7);
}

TEST(DagTest, RejectsCycle) {
  Dag dag;
  const int32_t a = dag.AddNode("A");
  const int32_t b = dag.AddNode("B");
  dag.AddEdge(0, a);
  dag.AddEdge(a, b);
  dag.AddEdge(b, a);
  EXPECT_FALSE(ConvertDagToTree(dag).has_value());
}

TEST(DagTest, RejectsUnreachableNode) {
  Dag dag;
  dag.AddNode("Orphan");  // never linked
  EXPECT_FALSE(ConvertDagToTree(dag).has_value());
}

TEST(DagTest, RejectsExponentialBlowup) {
  // A stack of diamonds doubles the tree per level.
  Dag dag;
  int32_t top = 0;
  for (int level = 0; level < 30; ++level) {
    const int32_t left = dag.AddNode("L" + std::to_string(level));
    const int32_t right = dag.AddNode("R" + std::to_string(level));
    const int32_t bottom = dag.AddNode("M" + std::to_string(level));
    dag.AddEdge(top, left);
    dag.AddEdge(top, right);
    dag.AddEdge(left, bottom);
    dag.AddEdge(right, bottom);
    top = bottom;
  }
  EXPECT_FALSE(ConvertDagToTree(dag, /*max_tree_nodes=*/100000).has_value());
}

TEST(DagTest, PlainTreeRoundTrips) {
  Dag dag;
  const int32_t a = dag.AddNode("A");
  const int32_t b = dag.AddNode("B");
  dag.AddEdge(0, a);
  dag.AddEdge(a, b);
  auto tree = ConvertDagToTree(dag);
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->num_nodes(), 3);
  EXPECT_EQ(tree->depth(*tree->FindByLabel("B")), 2);
}

TEST(HierarchyIoTest, RoundTrip) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  const std::string text = SerializeHierarchy(tree);
  auto parsed = ParseHierarchy(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->num_nodes(), tree.num_nodes());
  for (NodeId v = 0; v < tree.num_nodes(); ++v) {
    EXPECT_EQ(parsed->label(v), tree.label(v));
    EXPECT_EQ(parsed->depth(v), tree.depth(v));
  }
}

TEST(HierarchyIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseHierarchy("0\t-1").has_value());            // missing label
  EXPECT_FALSE(ParseHierarchy("1\t-1\tRoot").has_value());      // non-dense ids
  EXPECT_FALSE(ParseHierarchy("0\t5\tRoot").has_value());       // bad root parent
  EXPECT_FALSE(ParseHierarchy("0\t-1\tRoot\n1\t2\tA").has_value());  // forward parent
  EXPECT_FALSE(ParseHierarchy("").has_value());                 // empty
}

TEST(HierarchyIoTest, IgnoresCommentsAndBlankLines) {
  auto parsed = ParseHierarchy("# comment\n\n0\t-1\tRoot\n1\t0\tA\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_nodes(), 2);
}

TEST(HierarchyIoTest, LineEndingsDoNotChangeTheParse) {
  // LF or CRLF, with or without a final newline: the same three nodes.
  for (const char* text : {"0\t-1\tRoot\n1\t0\tA\n2\t1\tB", "0\t-1\tRoot\n1\t0\tA\n2\t1\tB\n",
                           "0\t-1\tRoot\r\n1\t0\tA\r\n2\t1\tB",
                           "0\t-1\tRoot\r\n1\t0\tA\r\n2\t1\tB\r\n"}) {
    auto parsed = ParseHierarchy(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    ASSERT_EQ(parsed->num_nodes(), 3);
    EXPECT_EQ(parsed->label(2), "B");
    EXPECT_EQ(parsed->parent(2), 1);
  }
  // Ids go through strtol: leading blanks inside a field and a sign parse;
  // trailing tabs are stripped with the line's other whitespace.
  auto parsed = ParseHierarchy("0\t-1\tRoot\n1\t +0\tA\t\t\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->label(1), "A");
}

TEST(HierarchyIoTest, MalformedLineErrorsAreStable) {
  // Every error names the source and the line; blank and comment lines
  // count towards the line number.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"# c\n\n0\t-1\tRoot\n1\t0", "tree.txt:4: expected 3 tab-separated fields, got 2"},
      {"0\t-1\tRoot\r\n\r\n# x\r\nx1\t0\tA\r\n", "tree.txt:4: bad node id 'x1'"},
      {"0\t-1\tRoot\n2\t0\tA\n",
       "tree.txt:2: ids must be dense and ascending: expected 1, got '2'"},
      {"0\t-1\tRoot\n\n1\tp\tA", "tree.txt:3: bad parent id 'p'"},
      {"0\t5\tRoot", "tree.txt:1: root parent must be -1, got 5"},
      {"0\t-1\tRoot\n1\t1\tA", "tree.txt:2: parent must precede child, got 1"},
      {"0\t-1\t\xff\n", "tree.txt:1: label is not valid UTF-8"},
      {"0\t-1\tRoot\n1\t0\t\t\tA", "tree.txt:2: expected 3 tab-separated fields, got 5"},
      {"", "tree.txt: hierarchy text has no nodes"},
      {"\r\n# only a comment\r\n", "tree.txt: hierarchy text has no nodes"},
  };
  for (const auto& [text, message] : cases) {
    const auto parsed = ParseHierarchy(text, "tree.txt");
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_TRUE(IsInvalidArgument(parsed.status())) << text;
    EXPECT_EQ(parsed.status().message(), message) << text;
  }
}

TEST(HierarchyIoTest, FileRoundTrip) {
  const Hierarchy tree = MakeFigure1Hierarchy();
  const std::string path = testing::TempDir() + "/kjoin_hierarchy_test.txt";
  ASSERT_TRUE(WriteHierarchyFile(tree, path).ok());
  auto loaded = ReadHierarchyFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_nodes(), tree.num_nodes());
}

TEST(HierarchyIoTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(ReadHierarchyFile("/nonexistent/path/tree.txt").has_value());
}

}  // namespace
}  // namespace kjoin
