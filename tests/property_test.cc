// Property-based tests of the filtering theory:
//  * signature completeness (Lemmas 1 and 5) on random hierarchies, for
//    both element metrics and all three schemes;
//  * prefix-rule invariants (never empty, monotone in τ, weighted ⊆
//    plain);
//  * end-to-end prefix soundness: δ-similar objects always share a prefix
//    signature (Lemmas 2, 6, 7) on randomly built objects;
//  * the dense global order and the flat prefix routines agree with
//    hash-map reference implementations;
//  * the signature sketch is a sound upper bound on Lemma 3's count
//    bound, and CountBoundBelow agrees with a merge-only reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/rng.h"
#include "core/element_similarity.h"
#include "core/object_similarity.h"
#include "core/prefix.h"
#include "core/signature.h"
#include "core/simd.h"
#include "core/verifier.h"
#include "hierarchy/hierarchy_generator.h"
#include "hierarchy/lca.h"

namespace kjoin {
namespace {

struct SchemeCase {
  SignatureScheme scheme;
  ElementMetric metric;
  double delta;
};

std::string SchemeCaseName(const testing::TestParamInfo<SchemeCase>& info) {
  std::string name;
  switch (info.param.scheme) {
    case SignatureScheme::kNode: name = "Node"; break;
    case SignatureScheme::kShallowPath: name = "Shallow"; break;
    case SignatureScheme::kDeepPath: name = "Deep"; break;
  }
  name += info.param.metric == ElementMetric::kKJoin ? "KJ" : "WP";
  name += "D" + std::to_string(static_cast<int>(info.param.delta * 100));
  return name;
}

class SignatureCompletenessTest : public testing::TestWithParam<SchemeCase> {};

// Lemma 1 / Lemma 5 generalization: on a random 800-node hierarchy, any
// two δ-similar nodes share a signature under every scheme and metric.
TEST_P(SignatureCompletenessTest, SimilarNodesShareASignature) {
  const SchemeCase& c = GetParam();
  HierarchyGenParams params;
  params.num_nodes = 800;
  params.height = 7;
  params.avg_fanout = 4.0;
  params.max_fanout = 12;
  params.seed = 11;
  const Hierarchy tree = GenerateHierarchy(params);
  const LcaIndex lca(tree);
  const ElementSimilarity esim(lca, c.metric);
  const SignatureGenerator gen(tree, c.metric, c.scheme, c.delta);

  auto sig_set = [&](NodeId node) {
    Object object;
    object.elements.push_back({tree.label(node), static_cast<int32_t>(node), {{node, 1.0}}});
    std::set<SigId> sigs;
    for (const Signature& sig : gen.Generate(object)) sigs.insert(sig.id);
    return sigs;
  };

  Rng rng(31);
  int checked = 0;
  for (int trial = 0; trial < 60000 && checked < 800; ++trial) {
    const NodeId x = static_cast<NodeId>(1 + rng.NextUint64(tree.num_nodes() - 1));
    const NodeId y = static_cast<NodeId>(1 + rng.NextUint64(tree.num_nodes() - 1));
    if (esim.NodeSim(x, y) < c.delta) continue;
    ++checked;
    const std::set<SigId> sx = sig_set(x);
    const std::set<SigId> sy = sig_set(y);
    std::vector<SigId> common;
    std::set_intersection(sx.begin(), sx.end(), sy.begin(), sy.end(),
                          std::back_inserter(common));
    ASSERT_FALSE(common.empty())
        << tree.label(x) << "(d" << tree.depth(x) << ") ~ " << tree.label(y) << "(d"
        << tree.depth(y) << ") sim=" << esim.NodeSim(x, y);
  }
  // Ancestor-descendant pairs are always worth covering explicitly.
  for (NodeId v = 1; v < tree.num_nodes(); ++v) {
    const NodeId parent = tree.parent(v);
    if (parent == tree.root()) continue;
    if (esim.NodeSim(v, parent) < c.delta) continue;
    const std::set<SigId> sv = sig_set(v);
    const std::set<SigId> sp = sig_set(parent);
    std::vector<SigId> common;
    std::set_intersection(sv.begin(), sv.end(), sp.begin(), sp.end(),
                          std::back_inserter(common));
    ASSERT_FALSE(common.empty()) << "parent-child pair at depth " << tree.depth(v);
  }
  ASSERT_GT(checked, 0) << "no similar pairs sampled; sweep degenerated";
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SignatureCompletenessTest,
    testing::Values(SchemeCase{SignatureScheme::kNode, ElementMetric::kKJoin, 0.5},
                    SchemeCase{SignatureScheme::kNode, ElementMetric::kKJoin, 0.7},
                    SchemeCase{SignatureScheme::kNode, ElementMetric::kKJoin, 0.9},
                    SchemeCase{SignatureScheme::kShallowPath, ElementMetric::kKJoin, 0.5},
                    SchemeCase{SignatureScheme::kShallowPath, ElementMetric::kKJoin, 0.7},
                    SchemeCase{SignatureScheme::kShallowPath, ElementMetric::kKJoin, 0.9},
                    SchemeCase{SignatureScheme::kDeepPath, ElementMetric::kKJoin, 0.5},
                    SchemeCase{SignatureScheme::kDeepPath, ElementMetric::kKJoin, 0.7},
                    SchemeCase{SignatureScheme::kDeepPath, ElementMetric::kKJoin, 0.9},
                    SchemeCase{SignatureScheme::kNode, ElementMetric::kWuPalmer, 0.6},
                    SchemeCase{SignatureScheme::kNode, ElementMetric::kWuPalmer, 0.8},
                    SchemeCase{SignatureScheme::kShallowPath, ElementMetric::kWuPalmer, 0.6},
                    SchemeCase{SignatureScheme::kShallowPath, ElementMetric::kWuPalmer, 0.8},
                    SchemeCase{SignatureScheme::kDeepPath, ElementMetric::kWuPalmer, 0.6},
                    SchemeCase{SignatureScheme::kDeepPath, ElementMetric::kWuPalmer, 0.8}),
    SchemeCaseName);

// ---------------------------------------------------------------- prefixes

std::vector<Signature> RandomSigs(Rng& rng, int num_elements, int max_sigs_per_element) {
  std::vector<Signature> sigs;
  SigId next_id = 0;
  for (int32_t e = 0; e < num_elements; ++e) {
    const int count = 1 + static_cast<int>(rng.NextUint64(max_sigs_per_element));
    for (int k = 0; k < count; ++k) {
      sigs.push_back({next_id++, e, static_cast<float>(0.2 + 0.8 * rng.NextDouble())});
    }
  }
  // Global order is arbitrary here; shuffle to avoid element-grouped runs.
  rng.Shuffle(&sigs);
  // Make the element's own (weight-1) signature present, as real schemes
  // guarantee: promote each element's max weight to 1 with prob 1/2.
  return sigs;
}

TEST(PrefixPropertyTest, PrefixMonotoneInThreshold) {
  Rng rng(71);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextUint64(8));
    const std::vector<Signature> sigs = RandomSigs(rng, n, 3);
    int32_t previous_distinct = -1;
    int32_t previous_weighted = -1;
    for (int tau10 = 0; tau10 <= 10; ++tau10) {
      const double tau = tau10 / 10.0;
      const int32_t distinct =
          PrefixLengthDistinct(sigs, MinSimilarElements(n, tau, SetMetric::kJaccard));
      const int32_t weighted = PrefixLengthWeighted(sigs, tau * n);
      // A larger τ permits removing more suffix signatures, so prefixes
      // shrink (or stay) as τ grows.
      if (previous_distinct >= 0) {
        ASSERT_LE(distinct, previous_distinct) << "distinct rule not monotone at tau " << tau;
        ASSERT_LE(weighted, previous_weighted) << "weighted rule not monotone at tau " << tau;
      }
      previous_distinct = distinct;
      previous_weighted = weighted;
      ASSERT_GE(distinct, 1);
      ASSERT_GE(weighted, 1);
      ASSERT_LE(distinct, static_cast<int32_t>(sigs.size()));
    }
  }
}

TEST(PrefixPropertyTest, WeightedPrefixNeverLongerThanDistinct) {
  // Each element contributes mass <= 1 to the weighted rule, so the
  // weighted removal can never stop earlier than the distinct-element
  // removal at the same τ|S| budget.
  Rng rng(73);
  for (int trial = 0; trial < 500; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextUint64(8));
    const std::vector<Signature> sigs = RandomSigs(rng, n, 3);
    for (double tau : {0.3, 0.5, 0.7, 0.9, 1.0}) {
      const int32_t distinct =
          PrefixLengthDistinct(sigs, MinSimilarElements(n, tau, SetMetric::kJaccard));
      const int32_t weighted = PrefixLengthWeighted(sigs, tau * n);
      ASSERT_LE(weighted, distinct) << "trial " << trial << " tau " << tau << " n " << n;
    }
  }
}

TEST(PrefixPropertyTest, DistinctRuleSuffixInvariant) {
  // Definition 8: the removed suffix touches at most τ_S - 1 distinct
  // elements, and removing one more signature would touch τ_S.
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextUint64(6));
    const std::vector<Signature> sigs = RandomSigs(rng, n, 3);
    const int32_t tau_s = 1 + static_cast<int32_t>(rng.NextUint64(n));
    const int32_t prefix = PrefixLengthDistinct(sigs, tau_s);
    std::set<int32_t> suffix_elements;
    for (size_t k = prefix; k < sigs.size(); ++k) suffix_elements.insert(sigs[k].element);
    ASSERT_LE(static_cast<int32_t>(suffix_elements.size()), tau_s - 1);
    if (prefix > 1) {
      // One more removal would exceed the budget (or the floor of one
      // signature was hit).
      std::set<int32_t> extended = suffix_elements;
      extended.insert(sigs[prefix - 1].element);
      ASSERT_GE(static_cast<int32_t>(extended.size()), tau_s);
    }
  }
}

// ----------------------------- end-to-end prefix soundness (Lemmas 2/6/7)

struct PrefixSoundnessCase {
  SignatureScheme scheme;
  bool weighted;
  double delta;
  double tau;
};

class PrefixSoundnessTest : public testing::TestWithParam<PrefixSoundnessCase> {};

TEST_P(PrefixSoundnessTest, SimilarObjectsSharePrefixSignatures) {
  const PrefixSoundnessCase& c = GetParam();
  HierarchyGenParams tree_params;
  tree_params.num_nodes = 400;
  tree_params.height = 6;
  tree_params.avg_fanout = 4.0;
  tree_params.max_fanout = 10;
  tree_params.seed = 5;
  const Hierarchy tree = GenerateHierarchy(tree_params);
  const LcaIndex lca(tree);
  const ElementSimilarity esim(lca);
  const ObjectSimilarity osim(esim, c.delta);
  const SignatureGenerator gen(tree, ElementMetric::kKJoin, c.scheme, c.delta);

  // Random objects over hierarchy nodes (depth >= 1) with duplicates via
  // shared bases.
  Rng rng(13);
  std::vector<Object> objects;
  for (int i = 0; i < 150; ++i) {
    Object object;
    object.id = i;
    const int size = 2 + static_cast<int>(rng.NextUint64(5));
    for (int k = 0; k < size; ++k) {
      const NodeId node = static_cast<NodeId>(1 + rng.NextUint64(tree.num_nodes() - 1));
      object.elements.push_back(
          {tree.label(node), static_cast<int32_t>(node), {{node, 1.0}}});
    }
    objects.push_back(std::move(object));
    if (i % 3 == 0) {
      // Near-duplicate: copy with one element replaced by a sibling.
      Object copy = objects.back();
      copy.id = ++i;
      Element& victim = copy.elements[rng.NextUint64(copy.elements.size())];
      const NodeId node = victim.mappings[0].node;
      const auto& siblings = tree.children(tree.parent(node));
      const NodeId swap = siblings[rng.NextUint64(siblings.size())];
      victim = {tree.label(swap), static_cast<int32_t>(swap), {{swap, 1.0}}};
      objects.push_back(std::move(copy));
    }
  }

  // Global order + sorted signatures + prefixes.
  GlobalSignatureOrder order;
  std::vector<std::vector<Signature>> sigs;
  for (const Object& object : objects) {
    sigs.push_back(gen.Generate(object));
    order.CountObject(sigs.back());
  }
  order.Finalize();
  std::vector<int32_t> prefix_len;
  for (size_t i = 0; i < objects.size(); ++i) {
    SortByGlobalOrder(order, &sigs[i]);
    if (c.weighted) {
      prefix_len.push_back(PrefixLengthWeighted(
          sigs[i], MinOverlapWithAnyPartner(objects[i].size(), c.tau, SetMetric::kJaccard)));
    } else {
      prefix_len.push_back(PrefixLengthDistinct(
          sigs[i], MinSimilarElements(objects[i].size(), c.tau, SetMetric::kJaccard)));
    }
  }

  auto prefix_set = [&](size_t i) {
    std::set<SigId> set;
    for (int32_t k = 0; k < prefix_len[i]; ++k) set.insert(sigs[i][k].id);
    return set;
  };

  int similar_pairs = 0;
  for (size_t a = 0; a < objects.size(); ++a) {
    for (size_t b = a + 1; b < objects.size(); ++b) {
      if (osim.Similarity(objects[a], objects[b]) < c.tau - 1e-9) continue;
      ++similar_pairs;
      const std::set<SigId> pa = prefix_set(a);
      const std::set<SigId> pb = prefix_set(b);
      std::vector<SigId> common;
      std::set_intersection(pa.begin(), pa.end(), pb.begin(), pb.end(),
                            std::back_inserter(common));
      ASSERT_FALSE(common.empty()) << "objects " << a << " and " << b;
    }
  }
  ASSERT_GT(similar_pairs, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Rules, PrefixSoundnessTest,
    testing::Values(PrefixSoundnessCase{SignatureScheme::kNode, false, 0.7, 0.6},
                    PrefixSoundnessCase{SignatureScheme::kShallowPath, false, 0.7, 0.6},
                    PrefixSoundnessCase{SignatureScheme::kDeepPath, false, 0.7, 0.6},
                    PrefixSoundnessCase{SignatureScheme::kDeepPath, true, 0.7, 0.6},
                    PrefixSoundnessCase{SignatureScheme::kDeepPath, true, 0.5, 0.8},
                    PrefixSoundnessCase{SignatureScheme::kDeepPath, true, 0.9, 0.5},
                    PrefixSoundnessCase{SignatureScheme::kNode, false, 0.6, 0.9}),
    [](const testing::TestParamInfo<PrefixSoundnessCase>& info) {
      std::string name;
      switch (info.param.scheme) {
        case SignatureScheme::kNode: name = "Node"; break;
        case SignatureScheme::kShallowPath: name = "Shallow"; break;
        case SignatureScheme::kDeepPath: name = "Deep"; break;
      }
      name += info.param.weighted ? "Weighted" : "Plain";
      name += "D" + std::to_string(static_cast<int>(info.param.delta * 100));
      name += "T" + std::to_string(static_cast<int>(info.param.tau * 100));
      return name;
    });

// ---------------------------------------------------------------------------
// Dense global order and flat prefix routines vs hash-map references.

// The global order as hash maps: df by sort + unique per object, ranks by
// sorting the counted ids on (df, id).
class ReferenceOrder {
 public:
  void CountObject(const std::vector<Signature>& sigs) {
    std::vector<SigId> ids;
    for (const Signature& sig : sigs) ids.push_back(sig.id);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (SigId id : ids) ++df_[id];
  }
  void Finalize() {
    std::vector<SigId> by_rank;
    for (const auto& [id, df] : df_) by_rank.push_back(id);
    std::sort(by_rank.begin(), by_rank.end(), [this](SigId a, SigId b) {
      if (df_.at(a) != df_.at(b)) return df_.at(a) < df_.at(b);
      return a < b;
    });
    for (int32_t r = 0; r < static_cast<int32_t>(by_rank.size()); ++r) rank_[by_rank[r]] = r;
  }
  const std::unordered_map<SigId, int32_t>& df() const { return df_; }
  const std::unordered_map<SigId, int32_t>& rank() const { return rank_; }

 private:
  std::unordered_map<SigId, int32_t> df_;
  std::unordered_map<SigId, int32_t> rank_;
};

int32_t ReferencePrefixDistinct(const std::vector<Signature>& sigs,
                                int32_t min_similar_elements) {
  if (sigs.empty()) return 0;
  if (min_similar_elements <= 0) return static_cast<int32_t>(sigs.size());
  std::unordered_map<int32_t, int32_t> removed_of_element;
  int32_t prefix = static_cast<int32_t>(sigs.size());
  while (prefix > 1) {
    const Signature& sig = sigs[prefix - 1];
    auto it = removed_of_element.find(sig.element);
    const bool new_element = (it == removed_of_element.end());
    if (new_element &&
        static_cast<int32_t>(removed_of_element.size()) + 1 > min_similar_elements - 1) {
      break;
    }
    if (new_element) {
      removed_of_element.emplace(sig.element, 1);
    } else {
      ++it->second;
    }
    --prefix;
  }
  return prefix;
}

int32_t ReferencePrefixWeighted(const std::vector<Signature>& sigs, double overlap_budget) {
  if (sigs.empty()) return 0;
  if (overlap_budget <= 0.0) return static_cast<int32_t>(sigs.size());
  std::unordered_map<int32_t, int32_t> total_of_element;
  for (const Signature& sig : sigs) ++total_of_element[sig.element];
  struct Removed {
    int32_t count = 0;
    double max_weight = 0.0;
  };
  std::unordered_map<int32_t, Removed> removed;
  double mass = 0.0;
  auto contribution = [&](const Removed& r, int32_t total) {
    if (r.count == 0) return 0.0;
    return r.count >= total ? std::max(1.0, r.max_weight) : r.max_weight;
  };
  int32_t prefix = static_cast<int32_t>(sigs.size());
  while (prefix > 1) {
    const Signature& sig = sigs[prefix - 1];
    Removed& r = removed[sig.element];
    const int32_t total = total_of_element.at(sig.element);
    const double before = contribution(r, total);
    Removed after = r;
    ++after.count;
    after.max_weight = std::max(after.max_weight, static_cast<double>(sig.weight));
    const double new_mass = mass - before + contribution(after, total);
    if (new_mass >= overlap_budget - 1e-9) break;
    r = after;
    mass = new_mass;
    --prefix;
  }
  return prefix;
}

// One object's signatures: per element, one to four ids drawn from a
// mix of node ids, token signatures far above the node range, and
// kUnknownTokenSignature; deduplicated per element as Generate does.
std::vector<Signature> RandomObjectSigs(Rng& rng, int32_t num_nodes) {
  const int num_elements = 1 + static_cast<int>(rng.NextUint64(12));
  std::vector<Signature> sigs;
  for (int32_t e = 0; e < num_elements; ++e) {
    std::set<SigId> ids;
    const int count = 1 + static_cast<int>(rng.NextUint64(4));
    for (int k = 0; k < count; ++k) {
      const uint64_t kind = rng.NextUint64(10);
      if (kind == 0) {
        ids.insert(kUnknownTokenSignature);
      } else if (kind <= 2) {
        ids.insert(num_nodes + static_cast<SigId>(rng.NextUint64(200000)));
      } else {
        ids.insert(static_cast<SigId>(rng.NextUint64(static_cast<uint64_t>(num_nodes))));
      }
    }
    for (SigId id : ids) {
      sigs.push_back({id, e, static_cast<float>(0.1 + 0.9 * rng.NextDouble())});
    }
  }
  rng.Shuffle(&sigs);
  return sigs;
}

TEST(DenseOrderPropertyTest, DenseOrderMatchesHashMapReference) {
  Rng rng(91);
  for (int trial = 0; trial < 20; ++trial) {
    const int32_t num_nodes = 50 + static_cast<int32_t>(rng.NextUint64(400));
    std::vector<std::vector<Signature>> objects(40 + rng.NextUint64(200));
    for (auto& sigs : objects) sigs = RandomObjectSigs(rng, num_nodes);
    GlobalSignatureOrder order;
    ReferenceOrder reference;
    // Half the trials size the dense arrays up front, as the join does.
    if (trial % 2 == 0) {
      SigId max_id = kUnknownTokenSignature;
      for (const auto& sigs : objects) {
        for (const Signature& sig : sigs) max_id = std::max(max_id, sig.id);
      }
      order.Reserve(max_id);
    }
    for (const auto& sigs : objects) {
      order.CountObject(sigs);
      reference.CountObject(sigs);
    }
    order.Finalize();
    reference.Finalize();
    ASSERT_EQ(order.num_signatures(), static_cast<int32_t>(reference.df().size()));
    for (const auto& [id, df] : reference.df()) {
      ASSERT_EQ(order.DocumentFrequency(id), df) << "id " << id;
      ASSERT_EQ(order.Rank(id), reference.rank().at(id)) << "id " << id;
    }
    // Ids never counted: inside the dense range and past its end.
    for (SigId id : {SigId{-7}, SigId{num_nodes} + 300000, SigId{1} << 40}) {
      EXPECT_EQ(order.DocumentFrequency(id), 0) << "id " << id;
    }

    // Prefix lengths on the globally sorted lists, across budgets; the
    // thread-local walk state must come back clean between calls.
    for (auto& sigs : objects) {
      SortByGlobalOrder(order, &sigs);
      int32_t n = 0;
      for (const Signature& sig : sigs) n = std::max(n, sig.element + 1);
      for (int32_t tau_s = 0; tau_s <= n + 1; ++tau_s) {
        ASSERT_EQ(PrefixLengthDistinct(sigs, tau_s), ReferencePrefixDistinct(sigs, tau_s))
            << "trial " << trial << " tau_s " << tau_s;
      }
      for (double budget = 0.0; budget <= n + 1.0; budget += 0.35) {
        ASSERT_EQ(PrefixLengthWeighted(sigs, budget), ReferencePrefixWeighted(sigs, budget))
            << "trial " << trial << " budget " << budget;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The signature sketch against Lemma 3's exact count bound.

ObjectGroupPlan PlanOf(std::vector<SigId> sigs) {
  std::sort(sigs.begin(), sigs.end());
  ObjectGroupPlan plan;
  plan.sketch = SignatureSketch::Of(sigs);
  plan.sigs = std::move(sigs);
  return plan;
}

int64_t MultisetIntersection(const std::vector<SigId>& a, const std::vector<SigId>& b) {
  std::vector<SigId> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(common));
  return static_cast<int64_t>(common.size());
}

// Checks the sketch bound and CountBoundBelow against the merge-only
// reference (multiset intersection < want) for every integer demand up to
// min(|x|, |y|) + 1.
void ExpectCountBoundAgrees(const ObjectGroupPlan& x, const ObjectGroupPlan& y) {
  const int64_t exact = MultisetIntersection(x.sigs, y.sigs);
  const int64_t top =
      static_cast<int64_t>(std::min(x.sigs.size(), y.sigs.size())) + 1;
  if (x.sketch.usable && y.sketch.usable) {
    ASSERT_GE(simd::SketchMinSum(x.sketch.counts, y.sketch.counts), exact);
  }
  for (int64_t want = 0; want <= top; ++want) {
    ASSERT_EQ(Verifier::CountBoundBelow(x, y, static_cast<double>(want)), exact < want)
        << "want " << want << " exact " << exact;
    ASSERT_EQ(Verifier::CountBoundBelow(y, x, static_cast<double>(want)), exact < want)
        << "want " << want << " exact " << exact;
  }
}

TEST(SketchPropertyTest, SketchBoundsMultisetIntersection) {
  Rng rng(93);
  for (int trial = 0; trial < 3000; ++trial) {
    // Narrow id ranges give long runs of one signature; wide ones give
    // disjoint lists; empty lists are drawn too.
    const uint64_t range = 1 + rng.NextUint64(trial % 4 == 0 ? 3 : 60);
    auto draw = [&] {
      std::vector<SigId> sigs(rng.NextUint64(40));
      for (SigId& sig : sigs) sig = static_cast<SigId>(rng.NextUint64(range)) - 1;
      return sigs;
    };
    const ObjectGroupPlan x = PlanOf(draw());
    const ObjectGroupPlan y = PlanOf(draw());
    ASSERT_TRUE(x.sketch.usable);
    ExpectCountBoundAgrees(x, y);
  }
  // Empty plans: a zero sketch, and nothing shared.
  const ObjectGroupPlan empty = PlanOf({});
  for (uint8_t count : empty.sketch.counts) EXPECT_EQ(count, 0);
  ExpectCountBoundAgrees(empty, empty);
  ExpectCountBoundAgrees(empty, PlanOf({1, 2, 2, 3}));
}

TEST(SketchPropertyTest, OverfullBucketFallsBackToTheExactMerge) {
  // Two distinct signatures sharing a bucket: 300 copies of each overflow
  // a byte. A saturated sketch would claim 255 shared where none are.
  const SigId first = 11;
  SigId second = first + 1;
  while (SignatureSketch::Bucket(second) != SignatureSketch::Bucket(first)) ++second;
  const ObjectGroupPlan x = PlanOf(std::vector<SigId>(300, first));
  const ObjectGroupPlan y = PlanOf(std::vector<SigId>(300, second));
  EXPECT_FALSE(x.sketch.usable);
  EXPECT_FALSE(y.sketch.usable);
  EXPECT_TRUE(Verifier::CountBoundBelow(x, y, 1.0));
  ExpectCountBoundAgrees(x, y);
  ExpectCountBoundAgrees(x, x);
  // One unusable side is enough to force the merge.
  std::vector<SigId> mixed(40, first);
  mixed.push_back(second);
  const ObjectGroupPlan z = PlanOf(mixed);
  EXPECT_TRUE(z.sketch.usable);
  ExpectCountBoundAgrees(x, z);
  ExpectCountBoundAgrees(y, z);
}

}  // namespace
}  // namespace kjoin
