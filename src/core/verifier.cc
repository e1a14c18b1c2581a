#include "core/verifier.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <numeric>
#include <span>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "core/simd.h"
#include "matching/bounds.h"
#include "matching/greedy_matching.h"
#include "matching/hungarian.h"

namespace kjoin {
namespace {

// Accept/reject comparisons tolerate float noise in favour of accepting:
// borderline pairs go through the exact matcher rather than being pruned.
constexpr double kEps = 1e-9;

// The per-thread scratch arena persists across Verify calls to avoid
// per-pair allocation, but a single huge candidate pair would otherwise
// pin a peak-sized arena in every worker thread for the rest of the join.
// Vectors above this many elements — and matcher/bigraph buffers above
// kMaxRetainedBytes — are released after use.
constexpr size_t kMaxRetainedScratch = size_t{1} << 14;
constexpr size_t kMaxRetainedBytes = size_t{4} << 20;

template <typename T>
void ClampRetainedCapacity(std::vector<T>* vec) {
  if (vec->capacity() > kMaxRetainedScratch) {
    vec->clear();
    vec->shrink_to_fit();
  }
}

}  // namespace

// One arena per worker thread. Every vector is grown on demand and kept
// for the next pair; ClampRetained() runs on every Verify exit path —
// including stack unwinding after a failed allocation — so an aborted
// verification can't pin a peak-sized arena in its thread either.
struct VerifyScratch {
  // ---- group partition (flat CSR; group g's left members are
  // left_members[left_offsets[g] .. left_offsets[g + 1])) ----
  int32_t num_groups = 0;
  std::vector<int32_t> left_offsets, left_members;
  std::vector<int32_t> right_offsets, right_members;

  std::span<const int32_t> Left(int32_t g) const {
    return {left_members.data() + left_offsets[g],
            static_cast<size_t>(left_offsets[g + 1] - left_offsets[g])};
  }
  std::span<const int32_t> Right(int32_t g) const {
    return {right_members.data() + right_offsets[g],
            static_cast<size_t>(right_offsets[g + 1] - right_offsets[g])};
  }
  int64_t CountBound(int32_t g) const {
    return std::min<int64_t>(left_offsets[g + 1] - left_offsets[g],
                             right_offsets[g + 1] - right_offsets[g]);
  }
  int64_t CountBoundSum() const {
    int64_t sum = 0;
    for (int32_t g = 0; g < num_groups; ++g) sum += CountBound(g);
    return sum;
  }

  // ---- BuildGroups internals ----
  std::vector<int32_t> dense_x, dense_y;  // dense signature rank per plan entry
  std::vector<int32_t> uf_parent;         // union-find over dense ranks
  std::vector<int32_t> group_of_root;     // dense root -> raw group id
  std::vector<int32_t> elem_group_x, elem_group_y;
  std::vector<int32_t> group_left_count, group_right_count, group_final;
  // Plans built on the fly by the plan-less Verify overload (tests and
  // one-off callers); the join precomputes plans per object instead.
  ObjectGroupPlan plan_x, plan_y;

  // ---- weighted count pruning ----
  std::vector<int32_t> tokens_left, tokens_right;
  std::vector<int32_t> cap_token, cap_count, consumed;

  // ---- matching ----
  std::vector<Bigraph> graphs;  // per-built-group bigraphs (adaptive)
  HungarianScratch hungarian;
  GreedyScratch greedy;
  BoundScratch bound;
  std::vector<int32_t> build_order;  // adaptive group build order
  struct BuiltGroup {
    int32_t graph;  // index into `graphs`
    double upper;
    double lower;
  };
  std::vector<BuiltGroup> built;

  void ClampRetained() {
    ClampRetainedCapacity(&left_offsets);
    ClampRetainedCapacity(&left_members);
    ClampRetainedCapacity(&right_offsets);
    ClampRetainedCapacity(&right_members);
    ClampRetainedCapacity(&dense_x);
    ClampRetainedCapacity(&dense_y);
    ClampRetainedCapacity(&uf_parent);
    ClampRetainedCapacity(&group_of_root);
    ClampRetainedCapacity(&elem_group_x);
    ClampRetainedCapacity(&elem_group_y);
    ClampRetainedCapacity(&group_left_count);
    ClampRetainedCapacity(&group_right_count);
    ClampRetainedCapacity(&group_final);
    ClampRetainedCapacity(&tokens_left);
    ClampRetainedCapacity(&tokens_right);
    ClampRetainedCapacity(&cap_token);
    ClampRetainedCapacity(&cap_count);
    ClampRetainedCapacity(&consumed);
    ClampRetainedCapacity(&build_order);
    ClampRetainedCapacity(&built);
    ClampRetainedCapacity(&plan_x.entries);
    ClampRetainedCapacity(&plan_x.by_sig);
    ClampRetainedCapacity(&plan_x.sigs);
    ClampRetainedCapacity(&plan_y.entries);
    ClampRetainedCapacity(&plan_y.by_sig);
    ClampRetainedCapacity(&plan_y.sigs);
    ClampRetainedCapacity(&greedy.order);
    ClampRetainedCapacity(&greedy.left_used);
    ClampRetainedCapacity(&greedy.right_used);
    ClampRetainedCapacity(&bound.left_best);
    ClampRetainedCapacity(&bound.right_best);
    if (hungarian.RetainedBytes() > kMaxRetainedBytes) hungarian.Release();
    size_t graph_bytes = 0;
    for (const Bigraph& graph : graphs) graph_bytes += graph.RetainedBytes();
    if (graph_bytes > kMaxRetainedBytes) {
      graphs.clear();
      graphs.shrink_to_fit();
    }
  }
};

namespace {

// Clamps the thread's arena on every exit path of Verify.
class ScratchGuard {
 public:
  explicit ScratchGuard(VerifyScratch* scratch) : scratch_(scratch) {}
  ~ScratchGuard() { scratch_->ClampRetained(); }
  ScratchGuard(const ScratchGuard&) = delete;
  ScratchGuard& operator=(const ScratchGuard&) = delete;

 private:
  VerifyScratch* scratch_;
};

// Grows the bigraph pool on demand; slot buffers keep their capacity.
Bigraph* GraphSlot(VerifyScratch* scratch, size_t slot) {
  if (scratch->graphs.size() <= slot) scratch->graphs.resize(slot + 1);
  return &scratch->graphs[slot];
}

// A pure K-Join element: one mapping at full confidence. For such pairs
// Eq. 2 collapses to a single NodeSim, which is one LCA probe.
bool IsSingleFullMapping(const Element& e) {
  return e.mappings.size() == 1 && e.mappings[0].phi == 1.0;
}

// Batched bigraph build for single-full-mapping elements: every
// cross-node pair's LCA is resolved through LcaIndex::LcaDepthBatch in
// one pass, so the sparse-table misses overlap instead of serializing
// through Sim(). Edge set and weights are bit-identical to the scalar
// loop (NodeSimFromDepth reproduces Sim's arithmetic), and
// edges are inserted in the same (a, b) order.
void BuildGroupBigraphBatched(const ObjectSimilarity& object_sim, const Object& x,
                              const Object& y, std::span<const int32_t> left,
                              std::span<const int32_t> right, Bigraph* graph) {
  const ElementSimilarity& esim = object_sim.element_similarity();
  const size_t cells = left.size() * right.size();
  static thread_local std::vector<double> sims;
  static thread_local std::vector<NodeId> xs, ys;
  static thread_local std::vector<int32_t> cell_of_pair, depths;
  sims.assign(cells, 0.0);
  xs.clear();
  ys.clear();
  cell_of_pair.clear();
  for (size_t a = 0; a < left.size(); ++a) {
    const Element& ex = x.elements[left[a]];
    for (size_t b = 0; b < right.size(); ++b) {
      const Element& ey = y.elements[right[b]];
      const size_t cell = a * right.size() + b;
      if ((ex.token_id >= 0 && ex.token_id == ey.token_id) ||
          (ex.token == ey.token && !ex.token.empty()) ||
          ex.mappings[0].node == ey.mappings[0].node) {
        sims[cell] = 1.0;
      } else {
        xs.push_back(ex.mappings[0].node);
        ys.push_back(ey.mappings[0].node);
        cell_of_pair.push_back(static_cast<int32_t>(cell));
      }
    }
  }
  depths.resize(xs.size());
  esim.lca().LcaDepthBatch(xs.data(), ys.data(), static_cast<int32_t>(xs.size()),
                           depths.data());
  for (size_t p = 0; p < xs.size(); ++p) {
    sims[static_cast<size_t>(cell_of_pair[p])] = esim.NodeSimFromDepth(xs[p], ys[p], depths[p]);
  }
  for (size_t a = 0; a < left.size(); ++a) {
    for (size_t b = 0; b < right.size(); ++b) {
      const double sim = sims[a * right.size() + b];
      if (sim >= object_sim.delta() - 1e-12) {
        graph->AddEdge(static_cast<int32_t>(a), static_cast<int32_t>(b), sim);
      }
    }
  }
}

// The δ-thresholded bigraph restricted to one group, into a pooled graph.
void BuildGroupBigraph(const ObjectSimilarity& object_sim, const Object& x, const Object& y,
                       std::span<const int32_t> left, std::span<const int32_t> right,
                       Bigraph* graph) {
  graph->Reset(static_cast<int32_t>(left.size()), static_cast<int32_t>(right.size()));
  const ElementSimilarity& esim = object_sim.element_similarity();
  if (!left.empty() && !right.empty()) {
    bool pure = true;
    for (const int32_t i : left) {
      if (!IsSingleFullMapping(x.elements[i])) {
        pure = false;
        break;
      }
    }
    if (pure) {
      for (const int32_t j : right) {
        if (!IsSingleFullMapping(y.elements[j])) {
          pure = false;
          break;
        }
      }
    }
    if (pure) {
      BuildGroupBigraphBatched(object_sim, x, y, left, right, graph);
      return;
    }
  }
  for (size_t a = 0; a < left.size(); ++a) {
    for (size_t b = 0; b < right.size(); ++b) {
      const double sim = esim.Sim(x.elements[left[a]], y.elements[right[b]]);
      if (sim >= object_sim.delta() - 1e-12) {
        graph->AddEdge(static_cast<int32_t>(a), static_cast<int32_t>(b), sim);
      }
    }
  }
}

// Lemma 3's integer demand for a real-valued overlap demand: the count
// bound is an integer, so it falls below needed - kEps exactly when it
// stays below this. 0 when nothing is needed.
int64_t CountDemand(double needed) {
  const double target = needed - kEps;
  return target <= 0.0 ? 0 : static_cast<int64_t>(std::ceil(target));
}

// Lemma 3 at integer demand `want` > 0 (docs/THEORY.md, section 6): the
// sketches first, then — only if they cannot rule the pair out — the
// exact multiset intersection of the two sorted signature arrays. A
// shared run pairs off one entry per side until the shorter run ends,
// contributing min(run_x, run_y).
PairScreen CountScreen(const SignatureSketch& sketch_x, const SignatureSketch& sketch_y,
                       const ObjectGroupPlan& plan_x, const ObjectGroupPlan& plan_y,
                       int64_t want) {
  if (sketch_x.usable && sketch_y.usable &&
      simd::SketchMinSum(sketch_x.counts, sketch_y.counts) < want) {
    return PairScreen::kSketchBound;
  }
  const SigId* a = plan_x.sigs.data();
  const SigId* b = plan_y.sigs.data();
  const int64_t n = static_cast<int64_t>(plan_x.sigs.size());
  const int64_t m = static_cast<int64_t>(plan_y.sigs.size());
  int64_t bound = 0;
  int64_t i = 0, j = 0;
  // Stop once the answer is certain: each further match consumes an entry
  // on both sides, so bound + min(n - i, m - j) caps the final value.
  while (bound < want && bound + std::min(n - i, m - j) >= want) {
    const SigId u = a[i];
    const SigId v = b[j];
    bound += u == v;  // branch-free steps
    i += u <= v;
    j += v <= u;
  }
  return bound < want ? PairScreen::kCountBound : PairScreen::kVerify;
}

int32_t UnionFindRoot(std::vector<int32_t>& parent, int32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

}  // namespace

void VerifyStats::Add(const VerifyStats& other) {
  pairs_verified += other.pairs_verified;
  pruned_by_count += other.pruned_by_count;
  pruned_by_weighted_count += other.pruned_by_weighted_count;
  accepted_by_lower_bound += other.accepted_by_lower_bound;
  rejected_by_upper_bound += other.rejected_by_upper_bound;
  hungarian_runs += other.hungarian_runs;
  groups_pinned += other.groups_pinned;
  results += other.results;
}

Verifier::Verifier(const ElementSimilarity& element_sim, const SignatureGenerator& signatures,
                   VerifierOptions options)
    : element_sim_(&element_sim),
      signatures_(&signatures),
      options_(options),
      object_sim_(element_sim, options.delta, options.set_metric) {}

SignatureSketch SignatureSketch::Of(std::span<const SigId> sigs) {
  int64_t counts[kBuckets] = {};
  for (const SigId sig : sigs) ++counts[Bucket(sig)];
  SignatureSketch sketch;
  for (int b = 0; b < kBuckets; ++b) {
    sketch.usable = sketch.usable && counts[b] <= 255;
    sketch.counts[b] = static_cast<uint8_t>(std::min<int64_t>(counts[b], 255));
  }
  return sketch;
}

void Verifier::BuildPlan(const Object& object, ObjectGroupPlan* plan) const {
  plan->entries.clear();
  static thread_local std::vector<SigId> sig_buffer;
  for (int32_t i = 0; i < object.size(); ++i) {
    sig_buffer.clear();
    signatures_->AppendNodeSignatures(object.elements[i], &sig_buffer);
    for (SigId sig : sig_buffer) plan->entries.push_back({sig, i});
  }
  const std::vector<ObjectGroupPlan::Entry>& entries = plan->entries;
  plan->by_sig.resize(entries.size());
  std::iota(plan->by_sig.begin(), plan->by_sig.end(), 0);
  std::sort(plan->by_sig.begin(), plan->by_sig.end(), [&](int32_t a, int32_t b) {
    if (entries[a].sig != entries[b].sig) return entries[a].sig < entries[b].sig;
    return a < b;  // element-major generation order: index order = element order
  });
  plan->sigs.resize(entries.size());
  for (size_t k = 0; k < entries.size(); ++k) plan->sigs[k] = entries[plan->by_sig[k]].sig;
  // Plus mode never asks the plans' count bound (its groups merge across
  // elements), so it skips the sketch; an unusable one forces a merge.
  plan->sketch =
      options_.plus_mode ? SignatureSketch{.usable = false} : SignatureSketch::Of(plan->sigs);
}

bool Verifier::CountBoundBelow(const ObjectGroupPlan& plan_x, const ObjectGroupPlan& plan_y,
                               double needed) {
  const int64_t want = CountDemand(needed);
  return want > 0 &&
         CountScreen(plan_x.sketch, plan_y.sketch, plan_x, plan_y, want) != PairScreen::kVerify;
}

PairDemand Verifier::Demand(int32_t size_x, int32_t size_y) const {
  const double needed = MinFuzzyOverlap(size_x, size_y, options_.tau, options_.set_metric);
  if (OverlapOutOfReach(needed, size_x, size_y)) return {.out_of_reach = true};
  if (!options_.count_pruning || options_.plus_mode) return {};
  return {.count = CountDemand(needed)};
}

PairScreen Verifier::Screen(const PairDemand& demand, const SignatureSketch& sketch_x,
                            const SignatureSketch& sketch_y, const ObjectGroupPlan& plan_x,
                            const ObjectGroupPlan& plan_y) {
  if (demand.out_of_reach) return PairScreen::kSizeBound;
  if (demand.count <= 0) return PairScreen::kVerify;
  return CountScreen(sketch_x, sketch_y, plan_x, plan_y, demand.count);
}

void Verifier::BuildGroups(const Object& x, const Object& y, const ObjectGroupPlan& px,
                           const ObjectGroupPlan& py, VerifyScratch* s) const {
  const std::vector<ObjectGroupPlan::Entry>& ex = px.entries;
  const std::vector<ObjectGroupPlan::Entry>& ey = py.entries;
  const std::vector<int32_t>& ox = px.by_sig;
  const std::vector<int32_t>& oy = py.by_sig;
  const std::vector<SigId>& sx = px.sigs;
  const std::vector<SigId>& sy = py.sigs;

  s->num_groups = 0;
  s->left_offsets.assign(1, 0);
  s->right_offsets.assign(1, 0);
  s->left_members.clear();
  s->right_members.clear();

  // Fast path (pure K-Join): every element carries at most one mapping,
  // hence exactly one node signature — grouping is a linear merge of the
  // two signature-sorted plans; runs present on both sides become groups.
  if (!options_.plus_mode) {
    size_t i = 0, j = 0;
    while (i < sx.size() && j < sy.size()) {
      if (sx[i] < sy[j]) {
        ++i;
        continue;
      }
      if (sy[j] < sx[i]) {
        ++j;
        continue;
      }
      const SigId sig = sx[i];
      const size_t i0 = i, j0 = j;
      while (i < sx.size() && sx[i] == sig) ++i;
      while (j < sy.size() && sy[j] == sig) ++j;
      for (size_t k = i0; k < i; ++k) s->left_members.push_back(ex[ox[k]].element);
      for (size_t k = j0; k < j; ++k) s->right_members.push_back(ey[oy[k]].element);
      s->left_offsets.push_back(static_cast<int32_t>(s->left_members.size()));
      s->right_offsets.push_back(static_cast<int32_t>(s->right_members.size()));
      ++s->num_groups;
    }
    return;
  }

  // Plus mode (§6.4): an element may carry several node signatures, and
  // signatures co-occurring on one element merge into one group. Dense
  // signature ranks come from merging the two sorted plans (no hash map);
  // the merge of co-occurring signatures is a union-find over the ranks.
  s->dense_x.resize(ex.size());
  s->dense_y.resize(ey.size());
  int32_t num_dense = 0;
  {
    size_t i = 0, j = 0;
    while (i < sx.size() || j < sy.size()) {
      const SigId sig =
          (j >= sy.size() || (i < sx.size() && sx[i] <= sy[j])) ? sx[i] : sy[j];
      while (i < sx.size() && sx[i] == sig) s->dense_x[ox[i++]] = num_dense;
      while (j < sy.size() && sy[j] == sig) s->dense_y[oy[j++]] = num_dense;
      ++num_dense;
    }
  }

  std::vector<int32_t>& parent = s->uf_parent;
  parent.resize(num_dense);
  std::iota(parent.begin(), parent.end(), 0);
  // Plan entries are element-major, so each element's signatures are
  // contiguous in entry order.
  for (size_t k = 1; k < ex.size(); ++k) {
    if (ex[k].element == ex[k - 1].element) {
      parent[UnionFindRoot(parent, s->dense_x[k])] = UnionFindRoot(parent, s->dense_x[k - 1]);
    }
  }
  for (size_t k = 1; k < ey.size(); ++k) {
    if (ey[k].element == ey[k - 1].element) {
      parent[UnionFindRoot(parent, s->dense_y[k])] = UnionFindRoot(parent, s->dense_y[k - 1]);
    }
  }

  // Raw group ids in first-encounter order (x elements, then y); each
  // element joins the group of its first signature's component.
  s->group_of_root.assign(num_dense, -1);
  s->elem_group_x.assign(x.size(), -1);
  s->elem_group_y.assign(y.size(), -1);
  int32_t num_raw = 0;
  for (size_t k = 0; k < ex.size(); ++k) {
    if (s->elem_group_x[ex[k].element] != -1) continue;  // not the first signature
    const int32_t root = UnionFindRoot(parent, s->dense_x[k]);
    if (s->group_of_root[root] == -1) s->group_of_root[root] = num_raw++;
    s->elem_group_x[ex[k].element] = s->group_of_root[root];
  }
  for (size_t k = 0; k < ey.size(); ++k) {
    if (s->elem_group_y[ey[k].element] != -1) continue;
    const int32_t root = UnionFindRoot(parent, s->dense_y[k]);
    if (s->group_of_root[root] == -1) s->group_of_root[root] = num_raw++;
    s->elem_group_y[ey[k].element] = s->group_of_root[root];
  }

  // Only groups populated on both sides can contribute to the matching;
  // survivors keep their raw order and ascending member order.
  s->group_left_count.assign(num_raw, 0);
  s->group_right_count.assign(num_raw, 0);
  for (int32_t g : s->elem_group_x) {
    if (g != -1) ++s->group_left_count[g];
  }
  for (int32_t g : s->elem_group_y) {
    if (g != -1) ++s->group_right_count[g];
  }
  s->group_final.resize(num_raw);
  for (int32_t g = 0; g < num_raw; ++g) {
    if (s->group_left_count[g] > 0 && s->group_right_count[g] > 0) {
      s->group_final[g] = s->num_groups++;
      s->left_offsets.push_back(s->left_offsets.back() + s->group_left_count[g]);
      s->right_offsets.push_back(s->right_offsets.back() + s->group_right_count[g]);
    } else {
      s->group_final[g] = -1;
    }
  }
  s->left_members.resize(s->left_offsets.back());
  s->right_members.resize(s->right_offsets.back());
  // Scatter with running cursors (reusing the count arrays).
  for (int32_t g = 0; g < num_raw; ++g) {
    const int32_t f = s->group_final[g];
    if (f != -1) {
      s->group_left_count[g] = s->left_offsets[f];
      s->group_right_count[g] = s->right_offsets[f];
    }
  }
  for (int32_t i = 0; i < x.size(); ++i) {
    const int32_t g = s->elem_group_x[i];
    if (g != -1 && s->group_final[g] != -1) s->left_members[s->group_left_count[g]++] = i;
  }
  for (int32_t j = 0; j < y.size(); ++j) {
    const int32_t g = s->elem_group_y[j];
    if (g != -1 && s->group_final[g] != -1) s->right_members[s->group_right_count[g]++] = j;
  }
}

bool Verifier::WeightedCountPrune(const Object& x, const Object& y, VerifyScratch* s,
                                  double needed, VerifyStats* stats) const {
  const Hierarchy& hierarchy = element_sim_->hierarchy();
  double upper = 0.0;
  for (int32_t g = 0; g < s->num_groups; ++g) {
    const std::span<const int32_t> left = s->Left(g);
    const std::span<const int32_t> right = s->Right(g);
    // Exact part: multiset intersection on token ids, via sorted token
    // arrays merged into per-token caps (min of the two counts).
    s->tokens_left.clear();
    for (int32_t i : left) s->tokens_left.push_back(x.elements[i].token_id);
    std::sort(s->tokens_left.begin(), s->tokens_left.end());
    s->tokens_right.clear();
    for (int32_t j : right) s->tokens_right.push_back(y.elements[j].token_id);
    std::sort(s->tokens_right.begin(), s->tokens_right.end());
    s->cap_token.clear();
    s->cap_count.clear();
    int32_t exact = 0;
    for (size_t a = 0, b = 0; a < s->tokens_left.size() && b < s->tokens_right.size();) {
      if (s->tokens_left[a] < s->tokens_right[b]) {
        ++a;
      } else if (s->tokens_right[b] < s->tokens_left[a]) {
        ++b;
      } else {
        const int32_t token = s->tokens_left[a];
        int32_t ca = 0, cb = 0;
        while (a < s->tokens_left.size() && s->tokens_left[a] == token) ++a, ++ca;
        while (b < s->tokens_right.size() && s->tokens_right[b] == token) ++b, ++cb;
        s->cap_token.push_back(token);
        s->cap_count.push_back(std::min(ca, cb));
        exact += std::min(ca, cb);
      }
    }
    // Leftovers: the per-side sum of each element's best possible
    // similarity to a *non-identical* counterpart — the first cap
    // occurrences of a shared token (in member order) count as exact and
    // are skipped. In pure mode two distinct tokens map to distinct
    // nodes, so Lemma 4's d/(d+1) bound applies; in plus mode only φ is
    // sound.
    auto leftover_sum = [&](const Object& object, std::span<const int32_t> members) {
      s->consumed.assign(s->cap_token.size(), 0);
      double sum = 0.0;
      for (int32_t index : members) {
        const Element& element = object.elements[index];
        const auto it =
            std::lower_bound(s->cap_token.begin(), s->cap_token.end(), element.token_id);
        if (it != s->cap_token.end() && *it == element.token_id) {
          const size_t pos = static_cast<size_t>(it - s->cap_token.begin());
          if (s->consumed[pos] < s->cap_count[pos]) {
            ++s->consumed[pos];  // consumed by the exact part
            continue;
          }
        }
        if (!element.has_node()) continue;  // identical-token-only elements
        double weight = 0.0;
        for (const ElementMapping& mapping : element.mappings) {
          const double cap =
              options_.plus_mode
                  ? mapping.phi
                  : mapping.phi * ElementSimilarity::MaxSimToDistinctNode(
                                      hierarchy.depth(mapping.node), element_sim_->metric());
          weight = std::max(weight, cap);
        }
        sum += weight;
      }
      return sum;
    };
    const double left_rest = leftover_sum(x, left);
    const double right_rest = leftover_sum(y, right);
    upper += exact + std::min(left_rest, right_rest);
  }
  if (upper < needed - kEps) {
    ++stats->pruned_by_weighted_count;
    return true;
  }
  return false;
}

bool Verifier::VerifyBasic(const Object& x, const Object& y, double needed, VerifyScratch* s,
                           VerifyStats* stats) const {
  Bigraph* graph = GraphSlot(s, 0);
  object_sim_.BuildBigraph(x, y, graph);
  ++stats->hungarian_runs;
  return MaxWeightMatching(*graph, &s->hungarian) >= needed - kEps;
}

bool Verifier::VerifySubGraph(const Object& x, const Object& y, VerifyScratch* s,
                              double needed, VerifyStats* stats) const {
  Bigraph* graph = GraphSlot(s, 0);
  double overlap = 0.0;
  for (int32_t g = 0; g < s->num_groups; ++g) {
    BuildGroupBigraph(object_sim_, x, y, s->Left(g), s->Right(g), graph);
    if (graph->edges().empty()) continue;
    ++stats->hungarian_runs;
    overlap += MaxWeightMatching(*graph, &s->hungarian);
  }
  return overlap >= needed - kEps;
}

bool Verifier::VerifyAdaptive(const Object& x, const Object& y, VerifyScratch* s,
                              double needed, VerifyStats* stats) const {
  // Build groups in decreasing count-bound order, maintaining a running
  // lower bound over built groups and a count upper bound over unbuilt
  // ones. A candidate whose greedy matchings already reach `needed` is
  // accepted before the remaining (small) groups are even materialized; a
  // candidate whose built upper bounds plus everything the unbuilt groups
  // could possibly add stays short is rejected the same way. Both checks
  // are sound because groups are disjoint, edge weights lie in (0, 1],
  // and a group's matching size is at most min(|left|, |right|).
  std::vector<int32_t>& build_order = s->build_order;
  build_order.resize(s->num_groups);
  std::iota(build_order.begin(), build_order.end(), 0);
  std::sort(build_order.begin(), build_order.end(), [&](int32_t a, int32_t b) {
    const int64_t ca = s->CountBound(a), cb = s->CountBound(b);
    if (ca != cb) return ca > cb;
    return a < b;
  });
  double remaining_count_ub = static_cast<double>(s->CountBoundSum());

  s->built.clear();
  double built_upper = 0.0;
  double built_lower = 0.0;
  for (int32_t g : build_order) {
    if (built_lower >= needed - kEps) {
      ++stats->accepted_by_lower_bound;
      return true;
    }
    if (built_upper + remaining_count_ub < needed - kEps) {
      ++stats->rejected_by_upper_bound;
      return false;
    }
    remaining_count_ub -= static_cast<double>(s->CountBound(g));
    Bigraph* graph = GraphSlot(s, s->built.size());
    BuildGroupBigraph(object_sim_, x, y, s->Left(g), s->Right(g), graph);
    if (graph->edges().empty()) continue;
    const double upper = PerVertexUpperBound(*graph, &s->bound);
    const double lower = CombinedLowerBound(*graph, &s->greedy);
    built_upper += upper;
    built_lower += lower;
    s->built.push_back({static_cast<int32_t>(s->built.size()), upper, lower});
  }
  if (built_lower >= needed - kEps) {
    ++stats->accepted_by_lower_bound;
    return true;
  }
  if (built_upper < needed - kEps) {
    ++stats->rejected_by_upper_bound;
    return false;
  }

  // Resolve exactly in decreasing upper-bound order (§5.2.3): the groups
  // that promise the most move the bounds fastest. Groups whose bounds
  // already coincide (every 1 × k group does) are pinned to the exact
  // value without a Hungarian run.
  std::sort(s->built.begin(), s->built.end(),
            [](const VerifyScratch::BuiltGroup& a, const VerifyScratch::BuiltGroup& b) {
              if (a.upper != b.upper) return a.upper > b.upper;
              return a.graph < b.graph;
            });
  double total_upper = built_upper;
  double total_lower = built_lower;
  for (const VerifyScratch::BuiltGroup& entry : s->built) {
    double exact;
    if (entry.upper <= entry.lower) {
      ++stats->groups_pinned;
      exact = entry.lower;
    } else {
      ++stats->hungarian_runs;
      exact = MaxWeightMatching(s->graphs[entry.graph], &s->hungarian);
    }
    total_upper += exact - entry.upper;
    total_lower += exact - entry.lower;
    if (total_upper < needed - kEps) return false;
    if (total_lower >= needed - kEps) return true;
  }
  // All groups resolved: both bounds equal the true overlap.
  return total_lower >= needed - kEps;
}

bool Verifier::VerifyWithPlans(const Object& x, const Object& y, double tau,
                               const ObjectGroupPlan& plan_x, const ObjectGroupPlan& plan_y,
                               VerifyScratch* scratch, VerifyStats* stats) const {
  ++stats->pairs_verified;
  const double needed = MinFuzzyOverlap(x.size(), y.size(), tau, options_.set_metric);
  if (needed <= kEps) {
    ++stats->results;
    return true;
  }

  if (KJOIN_FAULT_POINT("verifier/scratch_alloc")) throw std::bad_alloc();
  // Lemma 3. Pure-mode groups are exactly the shared signature runs, so
  // the bound comes straight from the plans before any group is built;
  // plus-mode groups merge across shared elements and are built first.
  if (options_.count_pruning && !options_.plus_mode &&
      CountBoundBelow(plan_x, plan_y, needed)) {
    ++stats->pruned_by_count;
    return false;
  }
  BuildGroups(x, y, plan_x, plan_y, scratch);
  if (options_.count_pruning && options_.plus_mode &&
      static_cast<double>(scratch->CountBoundSum()) < needed - kEps) {
    ++stats->pruned_by_count;
    return false;
  }
  if (options_.weighted_count_pruning &&
      WeightedCountPrune(x, y, scratch, needed, stats)) {
    return false;
  }

  bool similar = false;
  switch (options_.mode) {
    case VerifyMode::kBasic:
      similar = VerifyBasic(x, y, needed, scratch, stats);
      break;
    case VerifyMode::kSubGraph:
      similar = VerifySubGraph(x, y, scratch, needed, stats);
      break;
    case VerifyMode::kAdaptive:
      similar = VerifyAdaptive(x, y, scratch, needed, stats);
      break;
  }
  if (similar) ++stats->results;
  return similar;
}

namespace {

VerifyScratch& ThreadScratch() {
  static thread_local VerifyScratch scratch;
  return scratch;
}

}  // namespace

bool Verifier::Verify(const Object& x, const Object& y, const ObjectGroupPlan& plan_x,
                      const ObjectGroupPlan& plan_y, VerifyStats* stats) const {
  VerifyScratch& scratch = ThreadScratch();
  const ScratchGuard guard(&scratch);
  return VerifyWithPlans(x, y, options_.tau, plan_x, plan_y, &scratch, stats);
}

bool Verifier::Verify(const Object& x, const Object& y, VerifyStats* stats) const {
  VerifyScratch& scratch = ThreadScratch();
  const ScratchGuard guard(&scratch);
  BuildPlan(x, &scratch.plan_x);
  BuildPlan(y, &scratch.plan_y);
  return VerifyWithPlans(x, y, options_.tau, scratch.plan_x, scratch.plan_y, &scratch, stats);
}

bool Verifier::VerifyAt(const Object& x, const Object& y, double tau,
                        VerifyStats* stats) const {
  KJOIN_DCHECK(tau >= options_.tau)
      << "VerifyAt threshold below the configured tau would be incomplete";
  VerifyScratch& scratch = ThreadScratch();
  const ScratchGuard guard(&scratch);
  BuildPlan(x, &scratch.plan_x);
  BuildPlan(y, &scratch.plan_y);
  return VerifyWithPlans(x, y, tau, scratch.plan_x, scratch.plan_y, &scratch, stats);
}

bool Verifier::VerifyAt(const Object& x, const ObjectGroupPlan& plan_x, const Object& y,
                        double tau, VerifyStats* stats) const {
  KJOIN_DCHECK(tau >= options_.tau)
      << "VerifyAt threshold below the configured tau would be incomplete";
  VerifyScratch& scratch = ThreadScratch();
  const ScratchGuard guard(&scratch);
  BuildPlan(y, &scratch.plan_y);
  return VerifyWithPlans(x, y, tau, plan_x, scratch.plan_y, &scratch, stats);
}

double Verifier::ExactSimilarity(const Object& x, const Object& y) const {
  return object_sim_.Similarity(x, y);
}

}  // namespace kjoin
