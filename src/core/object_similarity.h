#ifndef KJOIN_CORE_OBJECT_SIMILARITY_H_
#define KJOIN_CORE_OBJECT_SIMILARITY_H_

// Knowledge-aware object similarity (paper Definition 2 and §6.3).
//
// SIMδ(Sx, Sy) combines the fuzzy overlap ‖Sx ∩̃δ Sy‖ — the maximum-weight
// matching of the δ-thresholded element bigraph — with a set-similarity
// scheme. Jaccard is the paper's default; Dice and Cosine follow §6.3.

#include <cstdint>

#include "core/element_similarity.h"
#include "core/object.h"
#include "matching/bigraph.h"

namespace kjoin {

enum class SetMetric {
  kJaccard,  //  o / (|Sx| + |Sy| − o)
  kDice,     //  2o / (|Sx| + |Sy|)
  kCosine,   //  o / sqrt(|Sx| · |Sy|)
};

// τ_S: any object τ-similar to S shares at least this many δ-similar
// elements with it (integral because matched element pairs are counted).
// Jaccard: ⌈τ|S|⌉; Dice: ⌈τ/(2−τ)·|S|⌉; Cosine: ⌈τ²|S|⌉.
int32_t MinSimilarElements(int32_t size, double tau, SetMetric metric);

// Real-valued version of the bound above: the minimum fuzzy overlap any
// τ-similar partner must reach with an object of this size. This is the
// weighted path prefix's removal budget (Definition 9 uses τ|S|, the
// Jaccard instance).
double MinOverlapWithAnyPartner(int32_t size, double tau, SetMetric metric);

// τ_{Sx,Sy}: the minimum fuzzy overlap implied by SIMδ >= τ. Kept
// real-valued: the paper writes ⌈·⌉, which is only sound for integral
// overlaps; the fuzzy overlap is fractional, so rounding up here could
// prune true results.
double MinFuzzyOverlap(int32_t size_x, int32_t size_y, double tau, SetMetric metric);

// The size bound (docs/THEORY.md): the fuzzy overlap is a matching whose
// edge weights are at most 1, so it never exceeds min(|Sx|, |Sy|). True
// when `needed` (a MinFuzzyOverlap value) lies above that by more than the
// verifier's 1e-9 accept tolerance — no verification can accept the pair.
inline bool OverlapOutOfReach(double needed, int32_t size_x, int32_t size_y) {
  return needed > static_cast<double>(size_x < size_y ? size_x : size_y) + 1e-9;
}

// Folds an overlap into the final similarity value.
double CombineOverlap(double overlap, int32_t size_x, int32_t size_y, SetMetric metric);

// Exact (verification-free) object similarity: builds the full bigraph and
// runs the Hungarian algorithm. This is the semantics every filter and
// bound in the library is tested against.
class ObjectSimilarity {
 public:
  ObjectSimilarity(const ElementSimilarity& element_sim, double delta,
                   SetMetric metric = SetMetric::kJaccard);

  // The δ-thresholded weighted bigraph between the two element sets.
  Bigraph BuildBigraph(const Object& x, const Object& y) const;

  // Same, into a caller-owned graph (Reset + refill, keeping capacity) —
  // the verifier hot path reuses one graph per thread.
  void BuildBigraph(const Object& x, const Object& y, Bigraph* graph) const;

  // ‖Sx ∩̃δ Sy‖.
  double FuzzyOverlap(const Object& x, const Object& y) const;

  double Similarity(const Object& x, const Object& y) const;

  double delta() const { return delta_; }
  SetMetric set_metric() const { return metric_; }
  const ElementSimilarity& element_similarity() const { return *element_sim_; }

 private:
  const ElementSimilarity* element_sim_;
  double delta_;
  SetMetric metric_;
};

}  // namespace kjoin

#endif  // KJOIN_CORE_OBJECT_SIMILARITY_H_
