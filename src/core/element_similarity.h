#ifndef KJOIN_CORE_ELEMENT_SIMILARITY_H_
#define KJOIN_CORE_ELEMENT_SIMILARITY_H_

// Knowledge-aware element similarity (paper Definitions 1, Eq. 2, §6.2).

#include "core/element.h"
#include "core/sim_cache.h"
#include "hierarchy/lca.h"

namespace kjoin {

// Which hierarchy-based similarity is used between two nodes.
//  kKJoin:    d_LCA / max(d_x, d_y)            (Definition 1)
//  kWuPalmer: 2 d_LCA / (d_x + d_y)            (Wu & Palmer, §6.2)
enum class ElementMetric {
  kKJoin,
  kWuPalmer,
};

class ElementSimilarity {
 public:
  // The LCA index (and its hierarchy) must outlive this object. When
  // `cache` is non-null it must outlive this object too; element
  // similarities of token-id pairs are then memoized through it (hits are
  // bit-identical to recomputation, so results do not depend on the cache
  // being present).
  explicit ElementSimilarity(const LcaIndex& lca, ElementMetric metric = ElementMetric::kKJoin,
                             const SimCache* cache = nullptr);

  // Similarity between two tree nodes under the configured metric.
  double NodeSim(NodeId x, NodeId y) const;

  // Element similarity with multi-node mappings (Eq. 2): identical tokens
  // have similarity 1; otherwise the maximum over mapping pairs of
  // NodeSim(n_x, n_y) · φ_x · φ_y; 0 when either side is unmapped.
  double Sim(const Element& x, const Element& y) const;

  ElementMetric metric() const { return metric_; }
  const LcaIndex& lca() const { return *lca_; }
  const Hierarchy& hierarchy() const { return lca_->hierarchy(); }

  // True when a SimCache fronts Sim(). Callers that batch LCA resolution
  // themselves (verifier.cc's bigraph build) must stay on Sim() when this
  // is set, or cache hit counters would drift.
  bool cached() const { return cache_ != nullptr; }

  // NodeSim with the LCA depth already in hand (LcaIndex::LcaDepthBatch).
  // Bit-identical to NodeSim(x, y).
  double NodeSimFromDepth(NodeId x, NodeId y, int lca_depth) const;

  // --- Threshold geometry (static, metric-parameterized) ---------------

  // d_δ: the minimum LCA depth of two *different* δ-similar nodes
  // (§3.1: ⌈δ/(1−δ)⌉ for kKJoin, ⌈δ/(2(1−δ))⌉ for kWuPalmer).
  // Requires 0 < delta < 1 (with delta == 1 no two different nodes are
  // similar; callers special-case it).
  static int MinSignatureDepth(double delta, ElementMetric metric);

  // The minimum possible LCA depth of a δ-similar pair involving a node
  // of depth `node_depth`: ⌈δ·d⌉ for kKJoin, ⌈δ·d/(2−δ)⌉ for kWuPalmer.
  // This is the lower end of the deep path-signature depth range (§4.1).
  static int MinLcaDepthFor(int node_depth, double delta, ElementMetric metric);

  // Upper bound on the similarity between a node of depth `node_depth`
  // and any *different* node: d/(d+1) for kKJoin, 2d/(2d+1) for
  // kWuPalmer. Used by the weighted count pruning (Lemma 4).
  static double MaxSimToDistinctNode(int node_depth, ElementMetric metric);

  // Upper bound on the similarity realizable between a node of depth
  // `node_depth` and a counterpart whose LCA with it has depth at most
  // `lca_depth`: d_lca/d for kKJoin, 2·d_lca/(d_lca + d) for kWuPalmer.
  // This is the weight of the path signature at depth `lca_depth`
  // (Definition 9).
  static double MaxSimThroughDepth(int lca_depth, int node_depth, ElementMetric metric);

 private:
  // The Eq. 2 mapping-pair loop, bypassing the cache.
  double SimUncached(const Element& x, const Element& y) const;

  const LcaIndex* lca_;
  ElementMetric metric_;
  const SimCache* cache_;  // may be null (caching off)
};

}  // namespace kjoin

#endif  // KJOIN_CORE_ELEMENT_SIMILARITY_H_
