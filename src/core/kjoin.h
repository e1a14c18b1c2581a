#ifndef KJOIN_CORE_KJOIN_H_
#define KJOIN_CORE_KJOIN_H_

// The K-Join driver: knowledge-aware similarity join (paper Definition 3).
//
// Pipeline (§3.3, §4.2.3):
//   1. generate signatures for every object under the configured scheme;
//   2. fix the global signature order (document frequency ascending);
//   3. compute each object's (weighted) prefix;
//   4. stream objects through an inverted index on prefix signatures —
//      objects sharing a prefix signature become candidate pairs, unless
//      their sizes or (pure mode) Lemma 3's count bound rule them out;
//   5. verify candidates (count pruning -> weighted count pruning ->
//      Basic/SubGraph/Adaptive matching).
//
// Usage:
//   Hierarchy tree = ...;
//   EntityMatcher matcher(tree);
//   ObjectBuilder builder(matcher, /*multi_mapping=*/true);   // K-Join+
//   std::vector<Object> objects = ...;                        // via builder
//   KJoin join(tree, options);
//   JoinResult result = join.SelfJoin(objects);

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/element_similarity.h"
#include "core/object.h"
#include "core/object_similarity.h"
#include "core/prefix.h"
#include "core/signature.h"
#include "core/verifier.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/lca.h"

namespace kjoin {

struct KJoinOptions {
  // Element similarity threshold δ (edges below it are dropped).
  double delta = 0.7;
  // Object similarity threshold τ.
  double tau = 0.8;
  // Filter scheme: node signatures (§3.1) or depth-aware path signatures
  // (§4.1). kDeepPath is the paper's best performer and the default.
  SignatureScheme scheme = SignatureScheme::kDeepPath;
  // Weighted path prefix (Definition 9) instead of the plain distinct-
  // element rule; only meaningful for kDeepPath.
  bool weighted_prefix = true;
  VerifyMode verify_mode = VerifyMode::kAdaptive;
  ElementMetric element_metric = ElementMetric::kKJoin;
  SetMetric set_metric = SetMetric::kJaccard;
  bool count_pruning = true;
  bool weighted_count_pruning = true;
  // K-Join+ semantics (multi-node element mappings). Objects must then be
  // built with ObjectBuilder(matcher, /*multi_mapping=*/true).
  bool plus_mode = false;
  // Inert: nothing reads it (there is no similarity cache); kept only
  // because the perfbench oracle still assigns it.
  bool sim_cache = true;
  // Total parallelism for the whole pipeline — signature generation,
  // global-order sorting, prefix computation, candidate probing, and
  // verification all shard across one shared worker pool (see
  // docs/threading.md). 1 = fully sequential (no threads spawned).
  // Results and the counter fields of JoinStats are identical for every
  // value.
  int num_threads = 1;
};

// Candidate pairs, the inverted index, and the probe bookkeeping address
// objects with int32_t ids, so each input collection is limited to
// INT32_MAX objects; Join/SelfJoin refuse larger inputs (shard upstream).
inline constexpr uint64_t kMaxJoinCollectionSize =
    static_cast<uint64_t>(std::numeric_limits<int32_t>::max());

constexpr bool FitsObjectIdSpace(uint64_t collection_size) {
  return collection_size <= kMaxJoinCollectionSize;
}

// Cooperative cancellation handle for the Status-returning join entry
// points. Cancel() may be called from any thread (typically a watchdog or
// an RPC teardown path) while a join is running; the join observes it at
// the next shard-boundary poll and returns kCancelled with the pairs found
// so far. Reusable: a token outlives any number of joins.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }
  void Reset() { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

// Runtime bounds for one join invocation (docs/robustness.md). Default
// constructed = unbounded, which makes the Status overloads behave exactly
// like the legacy ones. All checks are cooperative: they happen at shard
// boundaries and every few probe/verify items, never mid-verification, so
// a pathological single pair can overshoot a deadline by one verification.
struct JoinControl {
  // Wall-clock budget in seconds, measured from the join call; <= 0 means
  // no deadline. Tripping returns kDeadlineExceeded.
  double deadline_seconds = 0.0;
  // Optional external cancel signal; not owned, may be null. Must outlive
  // the join call. Tripping returns kCancelled.
  const CancelToken* cancel_token = nullptr;
  // Approximate cap on bytes buffered for candidate pairs; <= 0 means
  // unlimited. When the buffer fills, verification is spilled early in
  // smaller batches (results stay identical); if a single adaptive chunk
  // alone overflows the budget the join gives up with kResourceExhausted.
  int64_t candidate_byte_budget = 0;
  // Cap on candidates emitted by one probe object (pairs the probe-side
  // bounds pass on to verification); <= 0 means unlimited.
  // A probe exceeding it (a "hub" object matching everything) trips
  // kResourceExhausted rather than quadratically exploding the buffer.
  int64_t max_candidates_per_probe = 0;
};

// Pipeline phase in which a controlled join stopped (JoinStats::stopped_phase).
enum class JoinPhase { kNone = 0, kPrepare = 1, kFilter = 2, kVerify = 3 };
const char* JoinPhaseName(JoinPhase phase);

struct JoinStats {
  int64_t num_objects_left = 0;
  int64_t num_objects_right = 0;
  int64_t total_signatures = 0;
  int64_t prefix_signatures = 0;
  // Distinct candidate pairs sent to verification (each verified once).
  int64_t candidates = 0;
  // Pairs the probe found through shared prefix signatures but dropped
  // before verification (docs/THEORY.md, section 6): sizes alone
  // rule them out, or — pure mode with count_pruning — Lemma 3's count
  // bound does. Both are rejections verification would make. Like
  // `candidates`, neither depends on num_threads.
  int64_t size_filtered = 0;
  int64_t count_filtered = 0;
  // The part of count_filtered that the plans' signature sketches
  // rejected without a merge (SignatureSketch, core/verifier.h). Like
  // the counters above, independent of num_threads and of the ISA level.
  int64_t sketch_filtered = 0;
  // Every pair the prefix-signature probe found, before its bounds: the
  // signature filter's output, which is what the paper's filtering
  // figures count as candidates.
  int64_t probe_pairs() const { return candidates + size_filtered + count_filtered; }
  int64_t results = 0;
  double signature_seconds = 0.0;
  double filter_seconds = 0.0;  // candidate generation (probing + indexing)
  double verify_seconds = 0.0;
  double total_seconds = 0.0;
  VerifyStats verify;

  // ---- parallel-execution observability (docs/threading.md) ----
  // Unlike the counters above, these describe how the run was scheduled,
  // so they legitimately vary with num_threads (and the timing fields with
  // the machine).
  int threads = 1;             // options.num_threads of the run
  int64_t prepare_tasks = 0;   // pool shards in Prepare (both passes)
  int64_t filter_tasks = 0;    // probe shards in candidate generation
  int64_t verify_tasks = 0;    // verification shards (1: small-batch serial path)
  // Candidates found by each probe shard, in shard (= probe) order; their
  // spread shows filter-phase load balance.
  std::vector<int64_t> shard_candidates;
  double pool_busy_seconds = 0.0;  // summed task time across pool lanes
  // pool_busy_seconds / (threads × total_seconds): 1.0 means every lane
  // was busy for the whole join.
  double pool_utilization = 0.0;
  // Inert, always 0 (there is no similarity cache); kept only because
  // perfbench still reports it.
  double sim_cache_hit_rate = 0.0;

  // ---- control-plane observability (docs/robustness.md) ----
  // Phase in which the join tripped (deadline / cancel / resource guard);
  // kNone on a clean run. Like the scheduling fields, these vary with
  // num_threads and JoinControl, never the result counters above.
  JoinPhase stopped_phase = JoinPhase::kNone;
  // Shard-boundary control polls executed (0 when no control is active).
  int64_t control_polls = 0;
  // Verification batches: 1 for an unbudgeted run, more when the candidate
  // byte budget spilled verification early.
  int64_t verify_batches = 0;
  // Times the filter flushed buffered candidates into verification because
  // the byte budget filled up.
  int64_t budget_spills = 0;
};

struct JoinResult {
  // Similar pairs as indices into the input vector(s); for a self join
  // first < second.
  std::vector<std::pair<int32_t, int32_t>> pairs;
  JoinStats stats;
};

class KJoin {
 public:
  // The hierarchy must outlive the KJoin instance.
  KJoin(const Hierarchy& hierarchy, KJoinOptions options);

  // All pairs x < y with SIMδ(objects[x], objects[y]) >= τ.
  JoinResult SelfJoin(const std::vector<Object>& objects) const;

  // R-S join (§6.1): all (r, s) in R × S with SIMδ >= τ. Both collections
  // must come from the same ObjectBuilder (shared token interner).
  JoinResult Join(const std::vector<Object>& left, const std::vector<Object>& right) const;

  // Controlled entry points. With a default JoinControl they compute the
  // same result as the legacy overloads and return OK. When a bound trips
  // (kDeadlineExceeded, kCancelled, kResourceExhausted) or the input is
  // oversized (kInvalidArgument), *result holds the similar pairs proven
  // so far — a correct subset of the full answer — and
  // result->stats.stopped_phase records where the pipeline stopped. The
  // worker pool is always quiescent when these return, tripped or not.
  Status SelfJoin(const std::vector<Object>& objects, const JoinControl& control,
                  JoinResult* result) const;
  Status Join(const std::vector<Object>& left, const std::vector<Object>& right,
              const JoinControl& control, JoinResult* result) const;

  // Exact similarity under this join's configuration (no filtering).
  double ExactSimilarity(const Object& x, const Object& y) const;

  const KJoinOptions& options() const { return options_; }
  const Hierarchy& hierarchy() const { return *hierarchy_; }

 private:
  // Deadline/cancel/resource-guard state for one controlled run; defined
  // in kjoin.cc. Thread-safe: shards poll and trip it concurrently.
  class JoinController;

  // The probe's screen input for one object, flat so that screening a
  // found pair reads one 32-byte record: the object's size and its plan's
  // sketch. The object and its plan are read only for pairs the sketch
  // cannot reject.
  struct alignas(32) ScreenRecord {
    SignatureSketch sketch;
    int32_t size = 0;
  };

  // Per-object signature lists sorted by global order plus prefix length.
  // prefix_ranks[i] is object i's prefix as deduplicated global ranks
  // (ascending) — the filter phase indexes and probes through it without
  // ever re-resolving SigId -> rank. plans[i] is object i's grouping
  // plan, shared read-only by the probe's count bound and by every
  // verification batch; screen[i] is its record for the probe.
  struct Prepared {
    std::vector<std::vector<Signature>> sigs;
    std::vector<int32_t> prefix_len;
    std::vector<std::vector<int32_t>> prefix_ranks;
    std::vector<ObjectGroupPlan> plans;
    std::vector<ScreenRecord> screen;
  };

  // Both public joins funnel here; `self` selects self-join semantics
  // (right is ignored and aliases left).
  Status JoinImpl(const std::vector<Object>& left, const std::vector<Object>& right,
                  bool self, const JoinControl& control, JoinResult* result) const;

  // Signature generation + grouping plans + global ordering + prefixes
  // over one or two collections. Polls `controller` at shard boundaries; on a trip the
  // returned Prepared is partial and must not be used.
  Prepared Prepare(const std::vector<const std::vector<Object>*>& collections,
                   GlobalSignatureOrder* order, JoinStats* stats,
                   JoinController* controller) const;

  int32_t PrefixLengthFor(const std::vector<Signature>& sigs, int32_t object_size) const;

  // Verifies candidate (left-index, right-index) pairs — sharded over the
  // pool when options_.num_threads > 1 and the batch is large enough —
  // and appends the similar ones to result->pairs (kept in candidate
  // order). `left_plans` / `right_plans` are the collections' grouping
  // plans (Prepared::plans). Timing goes to verify_seconds, per-pair
  // counters to result->stats.verify. Polls `controller` inside shards
  // and converts allocation failure during verification into a
  // kResourceExhausted trip.
  void VerifyCandidates(const std::vector<Object>& left, const std::vector<Object>& right,
                        std::span<const ObjectGroupPlan> left_plans,
                        std::span<const ObjectGroupPlan> right_plans,
                        const std::vector<std::pair<int32_t, int32_t>>& candidates,
                        JoinResult* result, JoinController* controller) const;

  // Shards `num_probes` probe objects across the pool; `probe(shard,
  // begin, end, out)` appends each probe's candidates to *out in probe
  // order. Buffers are merged back in shard order, so `candidates` ends up
  // in global probe order regardless of num_threads.
  void GenerateCandidates(
      int64_t num_probes,
      const std::function<void(int, int32_t, int32_t,
                               std::vector<std::pair<int32_t, int32_t>>*)>& probe,
      std::vector<std::pair<int32_t, int32_t>>* candidates, JoinStats* stats) const;

  // Fills stats->threads / pool_busy_seconds / pool_utilization from the
  // pool counters accumulated since the `pool_before` snapshot.
  void FinishStats(const ThreadPoolStats& pool_before, JoinStats* stats) const;

  const Hierarchy* hierarchy_;
  KJoinOptions options_;
  LcaIndex lca_;
  ElementSimilarity element_sim_;
  SignatureGenerator signatures_;
  Verifier verifier_;
  // Shared worker pool for every phase; ~KJoin joins its threads. With
  // num_threads == 1 the pool is lane-less and runs shards inline.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace kjoin

#endif  // KJOIN_CORE_KJOIN_H_
