// Randomized consistency tests ("fuzz-lite"): structural invariants over
// many random instances — hierarchy IO round-trips, LCA algebra,
// generator statistics, verifier stats accounting, clustering vs a BFS
// reference, and baseline edge cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>
#include <unordered_map>

#include "baselines/fastjoin.h"
#include "baselines/ppjoin.h"
#include "baselines/synonym_join.h"
#include "common/rng.h"
#include "core/clustering.h"
#include "core/verifier.h"
#include "data/dataset_io.h"
#include "data/generator.h"
#include "hierarchy/hierarchy_generator.h"
#include "hierarchy/hierarchy_io.h"
#include "hierarchy/lca.h"
#include "text/edit_distance.h"

namespace kjoin {
namespace {

TEST(HierarchyFuzzTest, IoRoundTripsRandomTrees) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    HierarchyGenParams params;
    params.num_nodes = 50 + seed * 37;
    params.height = 3 + static_cast<int>(seed % 4);
    params.avg_fanout = 3.0;
    params.max_fanout = 9;
    params.seed = seed;
    const Hierarchy tree = GenerateHierarchy(params);
    auto parsed = ParseHierarchy(SerializeHierarchy(tree));
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed;
    ASSERT_EQ(parsed->num_nodes(), tree.num_nodes());
    for (NodeId v = 0; v < tree.num_nodes(); ++v) {
      ASSERT_EQ(parsed->label(v), tree.label(v));
      ASSERT_EQ(parsed->depth(v), tree.depth(v));
      if (v != tree.root()) {
        ASSERT_EQ(parsed->parent(v), tree.parent(v));
      }
    }
  }
}

TEST(LcaAlgebraTest, LcaLawsHoldOnRandomTrees) {
  HierarchyGenParams params;
  params.num_nodes = 600;
  params.height = 6;
  params.avg_fanout = 4.0;
  params.seed = 77;
  const Hierarchy tree = GenerateHierarchy(params);
  const LcaIndex lca(tree);
  Rng rng(5);
  for (int trial = 0; trial < 3000; ++trial) {
    const NodeId x = static_cast<NodeId>(rng.NextUint64(tree.num_nodes()));
    const NodeId y = static_cast<NodeId>(rng.NextUint64(tree.num_nodes()));
    const NodeId l = lca.Lca(x, y);
    // Symmetry, idempotence, ancestorship.
    ASSERT_EQ(l, lca.Lca(y, x));
    ASSERT_EQ(lca.Lca(x, x), x);
    ASSERT_TRUE(tree.IsAncestor(l, x));
    ASSERT_TRUE(tree.IsAncestor(l, y));
    // Maximality: l's children cannot be common ancestors.
    for (NodeId child : tree.children(l)) {
      ASSERT_FALSE(tree.IsAncestor(child, x) && tree.IsAncestor(child, y));
    }
    // Absorption: lca(x, lca(x, y)) == lca(x, y).
    ASSERT_EQ(lca.Lca(x, l), l);
  }
}

TEST(GeneratorStatsTest, ZipfSkewCreatesHubElements) {
  const Hierarchy tree = GenerateHierarchy(HierarchyGenParams{});
  RecordGenParams skewed;
  skewed.num_records = 3000;
  skewed.zipf_exponent = 1.6;
  skewed.seed = 9;
  RecordGenParams uniform = skewed;
  uniform.zipf_exponent = 0.0;

  auto top_share = [&](const RecordGenParams& params) {
    const Dataset dataset = DatasetGenerator(tree, params).Generate("x");
    std::unordered_map<std::string, int64_t> counts;
    int64_t total = 0;
    for (const Record& record : dataset.records) {
      for (const std::string& token : record.tokens) {
        ++counts[token];
        ++total;
      }
    }
    int64_t best = 0;
    for (const auto& [token, count] : counts) best = std::max(best, count);
    return static_cast<double>(best) / total;
  };

  const double skewed_share = top_share(skewed);
  const double uniform_share = top_share(uniform);
  EXPECT_GT(skewed_share, 3.0 * uniform_share)
      << "skewed " << skewed_share << " uniform " << uniform_share;
}

TEST(GeneratorStatsTest, DuplicateFractionRoughlyHonored) {
  const Hierarchy tree = GenerateHierarchy(HierarchyGenParams{});
  RecordGenParams params;
  params.num_records = 5000;
  params.duplicate_fraction = 0.3;
  params.max_duplicates_per_record = 2;
  params.seed = 4;
  const Dataset dataset = DatasetGenerator(tree, params).Generate("x");
  int64_t in_clusters = 0;
  for (const Record& record : dataset.records) in_clusters += record.cluster >= 0;
  const double fraction = static_cast<double>(in_clusters) / dataset.records.size();
  // 30% of bases spawn 1-2 duplicates => roughly 35-55% of records live
  // in clusters.
  EXPECT_GT(fraction, 0.25);
  EXPECT_LT(fraction, 0.65);
}

TEST(GeneratorStatsTest, PerturbationActuallyChangesTokens) {
  const Hierarchy tree = GenerateHierarchy(HierarchyGenParams{});
  RecordGenParams params;
  params.num_records = 2000;
  params.duplicate_fraction = 1.0;  // every base gets duplicates
  params.typo_rate = 0.3;
  params.sibling_swap_rate = 0.3;
  params.seed = 6;
  const Dataset dataset = DatasetGenerator(tree, params).Generate("x");
  const auto truth = GroundTruthPairs(dataset);
  ASSERT_FALSE(truth.empty());
  int changed = 0;
  for (const auto& [a, b] : truth) {
    changed += dataset.records[a].tokens != dataset.records[b].tokens;
  }
  EXPECT_GT(static_cast<double>(changed) / truth.size(), 0.8);
}

TEST(ClusteringFuzzTest, MatchesBfsComponents) {
  Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 5 + static_cast<int>(rng.NextUint64(40));
    std::vector<std::pair<int32_t, int32_t>> pairs;
    const int m = static_cast<int>(rng.NextUint64(60));
    for (int e = 0; e < m; ++e) {
      pairs.emplace_back(static_cast<int32_t>(rng.NextUint64(n)),
                         static_cast<int32_t>(rng.NextUint64(n)));
    }
    const Clustering clustering = ClusterPairs(n, pairs);

    // BFS reference.
    std::vector<std::vector<int32_t>> adjacency(n);
    for (const auto& [a, b] : pairs) {
      adjacency[a].push_back(b);
      adjacency[b].push_back(a);
    }
    std::vector<int32_t> component(n, -1);
    int32_t num_components = 0;
    for (int32_t start = 0; start < n; ++start) {
      if (component[start] >= 0) continue;
      const int32_t id = num_components++;
      std::queue<int32_t> queue;
      queue.push(start);
      component[start] = id;
      while (!queue.empty()) {
        const int32_t v = queue.front();
        queue.pop();
        for (int32_t w : adjacency[v]) {
          if (component[w] < 0) {
            component[w] = id;
            queue.push(w);
          }
        }
      }
    }
    ASSERT_EQ(clustering.num_clusters, num_components) << "trial " << trial;
    for (int32_t a = 0; a < n; ++a) {
      for (int32_t b = 0; b < n; ++b) {
        ASSERT_EQ(clustering.cluster_of[a] == clustering.cluster_of[b],
                  component[a] == component[b]);
      }
    }
  }
}

TEST(EditDistanceAlgebraTest, MetricAxiomsOnRandomStrings) {
  Rng rng(12);
  const std::string alphabet = "abc";
  auto random_string = [&]() {
    std::string s;
    const int len = static_cast<int>(rng.NextUint64(7));
    for (int i = 0; i < len; ++i) s += alphabet[rng.NextUint64(alphabet.size())];
    return s;
  };
  for (int trial = 0; trial < 400; ++trial) {
    const std::string x = random_string();
    const std::string y = random_string();
    const std::string z = random_string();
    const int xy = EditDistance(x, y);
    // Identity and symmetry.
    ASSERT_EQ(EditDistance(x, x), 0);
    ASSERT_EQ(xy, EditDistance(y, x));
    ASSERT_EQ(xy == 0, x == y);
    // Triangle inequality.
    ASSERT_LE(xy, EditDistance(x, z) + EditDistance(z, y));
    // Length difference lower bound.
    ASSERT_GE(xy, std::abs(static_cast<int>(x.size()) - static_cast<int>(y.size())));
  }
}

TEST(BaselineEdgeCaseTest, DegenerateRecords) {
  FastJoin fastjoin(FastJoinOptions{0.8, 0.8, 2});
  EXPECT_TRUE(fastjoin.SelfJoin({}).pairs.empty());
  const JoinResult single = fastjoin.SelfJoin({{"alone"}});
  EXPECT_TRUE(single.pairs.empty());
  const JoinResult twins = fastjoin.SelfJoin({{"same"}, {"same"}});
  EXPECT_EQ(twins.pairs.size(), 1u);

  SynonymJoin synonym({}, SynonymJoinOptions{1.0});
  const JoinResult exact = synonym.SelfJoin({{"a", "b"}, {"b", "a"}, {"a", "c"}});
  EXPECT_EQ(exact.pairs.size(), 1u);  // only the permuted twin at tau=1

  PpJoin ppjoin(PpJoinOptions{1.0, true});
  const JoinResult pp = ppjoin.SelfJoin({{"a", "b"}, {"b", "a"}, {"a"}});
  EXPECT_EQ(pp.pairs.size(), 1u);
}

// ----------------------------------------------- malformed-input corpus
//
// The parser entry points treat their input as untrusted (see
// docs/robustness.md): every input below must come back as a clean
// Status — parse, or a non-OK code — never a CHECK-abort or a crash.
// The libFuzzer harness in fuzz_parse.cc (-DKJOIN_FUZZ=ON) runs the same
// entry points coverage-guided; this corpus locks in the known classes.

TEST(ParserCorpusTest, HierarchyCorpusNeverDies) {
  const std::vector<std::string> corpus = {
      "",                                    // empty
      "\n\n# only comments\n",               // no nodes
      "0",                                   // truncated line
      "0\t-1",                               // missing label
      "0\t-1\tRoot\n1\t0",                   // truncated second line
      "0\t-1\tRoot\n1\t0\tA\t extra",        // too many fields
      "0\t-1\tRoot\n0\t0\tdup",              // duplicate id
      "0\t-1\tRoot\n2\t0\tgap",              // non-dense ids
      "1\t-1\tRoot",                         // ids not starting at 0
      "0\t0\tself",                          // root pointing at itself
      "0\t-1\tRoot\n1\t1\tcycle",            // parent == id (cycle edge)
      "0\t-1\tRoot\n1\t2\tfwd\n2\t0\tB",     // forward parent reference
      "0\t-1\tRoot\n1\t-3\tneg",             // negative non-root parent
      "0\t5\tRoot",                          // root with a real parent
      "x\t-1\tRoot",                         // non-numeric id
      "0\tx\tRoot",                          // non-numeric parent
      "99999999999999999999\t-1\tRoot",      // id overflow
      "0\t-1\t\xFF\xFE\xFA",                 // non-UTF-8 label
      "0\t-1\tRoot\r\n1\t0\tA\r",            // CR-LF endings
      std::string("0\t-1\tRo\0ot", 10),      // embedded NUL
      "0\t-1\tRoot\n1\t0\t",                 // empty label
  };
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto parsed = ParseHierarchy(corpus[i], "corpus");
    if (!parsed.ok()) {
      EXPECT_TRUE(IsInvalidArgument(parsed.status()))
          << "corpus[" << i << "]: " << parsed.status();
    }
  }
}

TEST(ParserCorpusTest, DatasetCorpusNeverDies) {
  const std::vector<std::string> corpus = {
      "R",                               // bare type
      "R\t1",                            // no tokens
      "R\tnotanint\ttok",                // bad cluster
      "R\t99999999999999999999\ttok",    // cluster overflow
      "R\t1\t\xC0\x80",                  // overlong-encoded token
      "S\tonly",                         // synonym arity
      "S\ta\tb\tc",                      // synonym arity (too many)
      "S\t\xED\xA0\x80\tb",              // surrogate in synonym
      "Q\t1\ttok",                       // unknown line type
      "\tR\t1\ttok",                     // leading tab
      std::string("R\t1\tto\0k", 8),     // embedded NUL
      "R\t-1\ttok\nR\t",                 // good line then truncated line
  };
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto parsed = ParseDataset(corpus[i], "corpus");
    if (!parsed.ok()) {
      EXPECT_TRUE(IsInvalidArgument(parsed.status()))
          << "corpus[" << i << "]: " << parsed.status();
    }
  }
}

TEST(ParserCorpusTest, MutatedSerializationsNeverDie) {
  // Start from valid serializations and apply random byte-level damage;
  // whatever comes out must parse or fail cleanly.
  HierarchyGenParams tree_params;
  tree_params.num_nodes = 60;
  tree_params.seed = 3;
  const Hierarchy tree = GenerateHierarchy(tree_params);
  const std::string good_tree = SerializeHierarchy(tree);

  RecordGenParams record_params;
  record_params.num_records = 40;
  record_params.seed = 3;
  const std::string good_data =
      SerializeDataset(DatasetGenerator(tree, record_params).Generate("x"));

  Rng rng(31);
  auto mutate = [&rng](std::string text) {
    const int edits = 1 + static_cast<int>(rng.NextUint64(8));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const size_t at = rng.NextUint64(text.size());
      switch (rng.NextUint64(5)) {
        case 0: text[at] = static_cast<char>(rng.NextUint64(256)); break;
        case 1: text.erase(at, 1 + rng.NextUint64(16)); break;
        case 2: text.insert(at, 1, static_cast<char>(rng.NextUint64(256))); break;
        case 3: text.resize(at); break;                     // truncate
        case 4: text.insert(at, text.substr(0, at / 2)); break;  // duplicate
      }
    }
    return text;
  };
  for (int trial = 0; trial < 300; ++trial) {
    const auto tree_result = ParseHierarchy(mutate(good_tree), "mutated");
    if (!tree_result.ok()) {
      ASSERT_TRUE(IsInvalidArgument(tree_result.status())) << tree_result.status();
    }
    const auto data_result = ParseDataset(mutate(good_data), "mutated");
    if (!data_result.ok()) {
      ASSERT_TRUE(IsInvalidArgument(data_result.status())) << data_result.status();
    }
  }
}

TEST(VerifyStatsTest, CountersAddUp) {
  VerifyStats a;
  a.pairs_verified = 10;
  a.pruned_by_count = 4;
  a.hungarian_runs = 2;
  VerifyStats b;
  b.pairs_verified = 5;
  b.results = 1;
  a.Add(b);
  EXPECT_EQ(a.pairs_verified, 15);
  EXPECT_EQ(a.pruned_by_count, 4);
  EXPECT_EQ(a.results, 1);
  EXPECT_EQ(a.hungarian_runs, 2);
}

}  // namespace
}  // namespace kjoin
