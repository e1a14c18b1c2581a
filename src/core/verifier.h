#ifndef KJOIN_CORE_VERIFIER_H_
#define KJOIN_CORE_VERIFIER_H_

// Candidate verification (paper §3.2 count pruning, §5 subgraph matching
// and adaptive verification).
//
// Given a candidate pair that survived the signature filter, decide
// whether SIMδ(Sx, Sy) >= τ:
//   kBasic    — build the full element bigraph and run one Hungarian
//               matching.
//   kSubGraph — partition elements by node signature (elements in
//               different groups cannot be δ-similar, Lemma 1), match each
//               subgraph separately and sum (Lemma 8).
//   kAdaptive — maintain running bounds while the per-group bigraphs are
//               being built (per-vertex max above, Eq. 6; two greedy
//               matchings below, §5.2.2) and stop as soon as the decision
//               is certain; remaining groups resolve exactly in
//               decreasing upper-bound order (§5.2.3), skipping the
//               Hungarian matcher whenever the bounds already pin the
//               exact value. See docs/performance.md.
// Count pruning (Lemma 3) and weighted count pruning (Lemma 4) run first
// when enabled; they need no edge weights at all.
//
// Verification state (group partition, token balances, bigraphs, matcher
// and bound buffers) lives in a per-thread scratch arena, so the steady
// state verifies candidates without touching the allocator.

#include <cstdint>
#include <span>
#include <vector>

#include "core/element_similarity.h"
#include "core/object.h"
#include "core/object_similarity.h"
#include "core/signature.h"

namespace kjoin {

// Per-thread verification arena; defined in verifier.cc.
struct VerifyScratch;

// A lossless 16-byte summary of a plan's partition signatures for Lemma
// 3's count bound (docs/THEORY.md, section 6): how many of them fall in
// each of 16 hash buckets. For two plans, the sum over buckets of
// min(x's count, y's count) is at least the multiset intersection of
// their signatures — a bucket's min is at least the sum of its
// signatures' mins — so a pair whose sketch sum falls short of the count
// bound's demand is rejected without merging the plans.
struct SignatureSketch {
  static constexpr int kBuckets = 16;

  // Top four bits of a Fibonacci hash of the signature.
  static int Bucket(SigId sig) {
    return static_cast<int>((static_cast<uint64_t>(sig) * 0x9E3779B97F4A7C15ull) >> 60);
  }
  // The sketch of a signature multiset (any order).
  static SignatureSketch Of(std::span<const SigId> sigs);

  // Signatures per bucket (saturated at 255 when unusable).
  uint8_t counts[kBuckets] = {};
  // False when some bucket holds more than 255 signatures: a saturated
  // count would undercount, so the count bound then always merges.
  bool usable = true;
};

// The pair-invariant half of group construction, computed once per object:
// the object's partition signatures in element order, plus an argsort by
// signature. With both plans in hand, a pair's group partition is a linear
// merge of two sorted lists — no per-pair signature generation or sort.
// An object appears in as many candidate pairs as the filter emits for it,
// so the join builds each plan once and reuses it across all of them.
struct ObjectGroupPlan {
  struct Entry {
    SigId sig;
    int32_t element;
  };
  std::vector<Entry> entries;   // element-major (generation) order
  std::vector<int32_t> by_sig;  // argsort of entries by (sig, index)
  std::vector<SigId> sigs;      // entries[by_sig[k]].sig: ascending, contiguous
  SignatureSketch sketch;       // SignatureSketch::Of(sigs); unusable in plus mode
};

// What a pair's sizes demand of the probe-side bounds at the configured
// τ (Verifier::Demand). It depends on the two sizes only, so a probe can
// reuse it across partners of equal size.
struct PairDemand {
  // The size bound rules the pair out (OverlapOutOfReach).
  bool out_of_reach = false;
  // Lemma 3 rejects the pair when the plans share fewer than `count`
  // partition signatures (multiset intersection). 0 when no count bound
  // applies: plus mode, count_pruning off, or no overlap needed.
  int64_t count = 0;
};

// What a candidate screen decided (Verifier::Screen).
enum class PairScreen {
  kVerify,       // may be similar: verify it
  kSizeBound,    // sizes alone rule it out (OverlapOutOfReach)
  kCountBound,   // Lemma 3's count bound rules it out, by merging the plans
  kSketchBound,  // Lemma 3's count bound rules it out, by the sketches alone
};

enum class VerifyMode {
  kBasic,
  kSubGraph,
  kAdaptive,
};

struct VerifierOptions {
  double delta = 0.7;
  double tau = 0.8;
  VerifyMode mode = VerifyMode::kAdaptive;
  SetMetric set_metric = SetMetric::kJaccard;
  bool count_pruning = true;
  bool weighted_count_pruning = true;
  // K-Join+ (multi-node mappings): two distinct tokens may map to the
  // same node, so the d/(d+1) refinement of Lemma 4 is unsound; the
  // weighted count pruning then falls back to φ-based weights, and
  // verification groups sharing an element are merged (§6.4).
  bool plus_mode = false;
};

struct VerifyStats {
  int64_t pairs_verified = 0;
  int64_t pruned_by_count = 0;
  int64_t pruned_by_weighted_count = 0;
  int64_t accepted_by_lower_bound = 0;
  int64_t rejected_by_upper_bound = 0;
  int64_t hungarian_runs = 0;
  // Adaptive groups whose bounds pinned the exact matching (Bu <= Bl), so
  // no Hungarian run was needed — every 1 × k group lands here.
  int64_t groups_pinned = 0;
  int64_t results = 0;

  void Add(const VerifyStats& other);
};

class Verifier {
 public:
  // All referenced objects must outlive the verifier.
  Verifier(const ElementSimilarity& element_sim, const SignatureGenerator& signatures,
           VerifierOptions options);

  // True iff SIMδ(x, y) >= tau, given both objects' grouping plans
  // (BuildPlan). The join builds each object's plan once and shares it,
  // read-only, across all of its candidate pairs and verification shards;
  // the search builds the query's plan once per probe. `tau` must be at
  // least the configured options().tau: the join passes it, and the
  // progressive top-k search raises it mid-query as the shared k-th-best
  // bound tightens (core/kjoin_index.h, SearchBound). A higher tau means
  // a higher required overlap, so every pruning lemma stays sound and
  // rejections come earlier. Thread-safe: every mutable state is in a
  // per-thread scratch arena.
  bool Verify(const Object& x, const Object& y, const ObjectGroupPlan& plan_x,
              const ObjectGroupPlan& plan_y, double tau, VerifyStats* stats) const;

  // Fills `plan` for one object (signatures + argsort). The plan stays
  // valid as long as the object and the verifier's signature scheme do.
  void BuildPlan(const Object& object, ObjectGroupPlan* plan) const;

  // Lemma 3 on the pure-mode group partition: true when the sum over
  // partition signatures both plans carry of min(run in x, run in y) —
  // exactly the groups' count bounds that pure-mode BuildGroups would
  // produce, summed — falls short of `needed` by more than the accept
  // tolerance. The plans' sketches answer first; only when they cannot
  // rule the pair out does one merge over the two sorted signature
  // arrays decide, stopped as soon as the answer is certain. No group is
  // built. Not a bound in plus mode, where groups sharing an element
  // merge.
  static bool CountBoundBelow(const ObjectGroupPlan& plan_x, const ObjectGroupPlan& plan_y,
                              double needed);

  // The demand of the verifier's two cheapest rejections, at the
  // configured τ, on a pair of objects with these sizes (x's, then y's):
  // the size bound (OverlapOutOfReach) in every mode and — in pure mode
  // with count_pruning on — the integer count Lemma 3 requires, which
  // Verify's own count pruning applies.
  PairDemand Demand(int32_t size_x, int32_t size_y) const;

  // Screens a pair against its Demand, before any group is built
  // (docs/THEORY.md, section 6): the size bound, then the count bound
  // through CountBoundBelow's logic. Every pair screened out is one
  // Verify would reject, so a caller may drop it unverified; the join's
  // probe does. The sketches are the plans' own, passed apart so that a
  // caller holding them in a flat array reads a plan only when its sketch
  // cannot reject the pair. Thread-safe.
  static PairScreen Screen(const PairDemand& demand, const SignatureSketch& sketch_x,
                           const SignatureSketch& sketch_y, const ObjectGroupPlan& plan_x,
                           const ObjectGroupPlan& plan_y);

  // Exact similarity, bypassing every pruning step (test/quality oracle).
  double ExactSimilarity(const Object& x, const Object& y) const;

  const VerifierOptions& options() const { return options_; }

 private:
  // Partitions both objects' elements into node-signature groups, merging
  // groups that share an element (plus mode). The partition is stored as
  // flat member arrays in the scratch (no per-group vectors).
  void BuildGroups(const Object& x, const Object& y, const ObjectGroupPlan& plan_x,
                   const ObjectGroupPlan& plan_y, VerifyScratch* scratch) const;

  bool WeightedCountPrune(const Object& x, const Object& y, VerifyScratch* scratch,
                          double needed, VerifyStats* stats) const;
  bool VerifyBasic(const Object& x, const Object& y, double needed, VerifyScratch* scratch,
                   VerifyStats* stats) const;
  bool VerifySubGraph(const Object& x, const Object& y, VerifyScratch* scratch, double needed,
                      VerifyStats* stats) const;
  bool VerifyAdaptive(const Object& x, const Object& y, VerifyScratch* scratch, double needed,
                      VerifyStats* stats) const;

  const ElementSimilarity* element_sim_;
  const SignatureGenerator* signatures_;
  VerifierOptions options_;
  ObjectSimilarity object_sim_;
};

}  // namespace kjoin

#endif  // KJOIN_CORE_VERIFIER_H_
