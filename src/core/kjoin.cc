#include "core/kjoin.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <new>
#include <string>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/posting_store.h"
#include "core/prefix.h"
#include "core/probe_set.h"

namespace kjoin {

namespace {

// Minimum work per pool shard, per phase (docs/threading.md). An extra
// shard is only worth scheduling once it carries enough items to amortize
// waking a worker lane and warming that lane's per-thread state — the
// verification arena and the Hungarian scratch are thread-local, so
// every additional shard starts them cold. Below the threshold the work
// collapses into fewer shards; a single shard runs inline on the calling
// thread with zero pool overhead, which keeps small joins monotone in
// num_threads instead of paying for parallelism they cannot use.
constexpr int64_t kMinPrepareObjectsPerShard = 8192;
constexpr int64_t kMinProbesPerShard = 8192;
constexpr int64_t kMinVerifyPairsPerShard = int64_t{1} << 18;

// Shard count for `items` units of work: at most one shard per
// min_per_shard items, never more than the pool's lanes, never less
// than one.
int ShardsForWork(int64_t items, int64_t min_per_shard, int lanes) {
  if (lanes <= 1 || items <= min_per_shard) return 1;
  return static_cast<int>(std::min<int64_t>(lanes, items / min_per_shard));
}

// Control-poll strides (see docs/robustness.md). Polls are one relaxed
// atomic bump plus an acquire load — and a steady_clock read only when a
// deadline is armed — so the strides just keep the clock reads off the
// innermost loops.
constexpr int64_t kPreparePollStride = 64;   // objects between polls
constexpr int64_t kProbePollStride = 16;     // probes between polls
constexpr int64_t kVerifyPollStride = 16;    // candidate pairs between polls
constexpr int64_t kIndexPollStride = 4096;   // indexed objects between polls

// First adaptive chunk (in probes) when a candidate byte budget is set;
// later chunks are sized from the observed emission rate.
constexpr int64_t kInitialBudgetChunk = 16;

}  // namespace

const char* JoinPhaseName(JoinPhase phase) {
  switch (phase) {
    case JoinPhase::kNone:
      return "none";
    case JoinPhase::kPrepare:
      return "prepare";
    case JoinPhase::kFilter:
      return "filter";
    case JoinPhase::kVerify:
      return "verify";
  }
  return "unknown";
}

// Shared deadline/cancel/guard state for one controlled run. Shards poll
// it concurrently; the first trip wins and pins the phase + Status, after
// which every poll answers "stop" and shards drain at their next boundary.
class KJoin::JoinController {
 public:
  explicit JoinController(const JoinControl& control)
      : cancel_(control.cancel_token), has_deadline_(control.deadline_seconds > 0.0) {
    if (has_deadline_) {
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(control.deadline_seconds));
    }
  }

  // True when a poll can trip the run; unbounded runs skip polling
  // entirely so the legacy path stays overhead-free.
  bool active() const { return cancel_ != nullptr || has_deadline_; }

  // Cooperative check; false once the run is tripped. The first failing
  // poll records the phase it happened in.
  bool Poll(JoinPhase phase) {
    polls_.fetch_add(1, std::memory_order_relaxed);
    if (tripped()) return false;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      Trip(phase, CancelledError("join cancelled via CancelToken"));
      return false;
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      Trip(phase, DeadlineExceededError("join deadline exceeded"));
      return false;
    }
    return true;
  }

  // Records a failure (deadline, cancel, resource guard, allocation);
  // only the first trip's status and phase are kept.
  void Trip(JoinPhase phase, Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (status_.ok()) {
      status_ = std::move(status);
      phase_ = phase;
      tripped_.store(true, std::memory_order_release);
    }
  }

  bool tripped() const { return tripped_.load(std::memory_order_acquire); }
  int64_t polls() const { return polls_.load(std::memory_order_relaxed); }

  Status status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }
  JoinPhase phase() const {
    std::lock_guard<std::mutex> lock(mu_);
    return phase_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  const CancelToken* cancel_;
  const bool has_deadline_;
  Clock::time_point deadline_{};
  std::atomic<bool> tripped_{false};
  std::atomic<int64_t> polls_{0};
  mutable std::mutex mu_;
  Status status_;  // guarded by mu_, set once
  JoinPhase phase_ = JoinPhase::kNone;
};

KJoin::KJoin(const Hierarchy& hierarchy, KJoinOptions options)
    : hierarchy_(&hierarchy),
      options_(options),
      lca_(hierarchy),
      element_sim_(lca_, options.element_metric),
      signatures_(hierarchy, options.element_metric, options.scheme, options.delta),
      verifier_(element_sim_, signatures_,
                VerifierOptions{options.delta, options.tau, options.verify_mode,
                                options.set_metric, options.count_pruning,
                                options.weighted_count_pruning, options.plus_mode}),
      pool_(std::make_unique<ThreadPool>(options.num_threads)) {
  KJOIN_CHECK(options.delta > 0.0 && options.delta <= 1.0);
  KJOIN_CHECK(options.tau >= 0.0 && options.tau <= 1.0);
  KJOIN_CHECK_GE(options.num_threads, 1);
  if (options.weighted_prefix) {
    KJOIN_CHECK(options.scheme == SignatureScheme::kDeepPath)
        << "the weighted prefix (Definition 9) is defined on deep path signatures";
  }
}

int32_t KJoin::PrefixLengthFor(std::span<const Signature> sigs, int32_t object_size) const {
  if (options_.weighted_prefix) {
    return PrefixLengthWeighted(
        sigs, MinOverlapWithAnyPartner(object_size, options_.tau, options_.set_metric));
  }
  return PrefixLengthDistinct(
      sigs, MinSimilarElements(object_size, options_.tau, options_.set_metric));
}

namespace {

// Joins per-shard arenas in shard order (shards cover ascending
// contiguous object ranges, so this is object order); one shard's arena
// is moved, not copied.
template <typename T>
std::vector<T> ConcatenateShards(std::vector<std::vector<T>>* shards) {
  if (shards->size() == 1) return std::move(shards->front());
  size_t total = 0;
  for (const std::vector<T>& shard : *shards) total += shard.size();
  std::vector<T> out;
  out.reserve(total);
  for (std::vector<T>& shard : *shards) {
    out.insert(out.end(), shard.begin(), shard.end());
    std::vector<T>().swap(shard);
  }
  return out;
}

// Turns per-object counts in offsets[i + 1] into CSR offsets.
void CountsToOffsets(std::vector<int64_t>* offsets) {
  for (size_t i = 1; i < offsets->size(); ++i) (*offsets)[i] += (*offsets)[i - 1];
}

}  // namespace

KJoin::Prepared KJoin::Prepare(const std::vector<const std::vector<Object>*>& collections,
                               GlobalSignatureOrder* order, JoinStats* stats,
                               JoinController* controller) const {
  std::vector<const Object*> objects;
  for (const auto* collection : collections) {
    for (const Object& object : *collection) objects.push_back(&object);
  }
  const int64_t n = static_cast<int64_t>(objects.size());
  const bool polled = controller->active();

  Prepared prepared;
  prepared.plans.resize(n);
  prepared.screen.resize(n);
  prepared.prefix_offset.assign(n + 1, 0);
  const int lanes = ShardsForWork(n, kMinPrepareObjectsPerShard, pool_->num_threads());

  // Pass 1: per-shard signature generation into one flat arena per shard;
  // object i's signatures are sigs[sig_offset[i], sig_offset[i + 1]) once
  // the shard arenas are joined. Each object's grouping plan and screen
  // record are built here too, once per join: the probe's bounds and
  // every verification batch read them. Shards also note the largest
  // signature id, which sizes the order's dense arrays.
  std::vector<std::vector<Signature>> shard_sigs(lanes);
  std::vector<int64_t> sig_offset(n + 1, 0);
  std::vector<SigId> shard_max_id(lanes, kUnknownTokenSignature);
  stats->prepare_tasks +=
      pool_->ParallelFor(n, lanes, [&](int shard, int64_t begin, int64_t end) {
        std::vector<Signature>& arena = shard_sigs[shard];
        int64_t since_poll = 0;
        for (int64_t i = begin; i < end; ++i) {
          if (polled && (since_poll++ % kPreparePollStride) == 0 &&
              !controller->Poll(JoinPhase::kPrepare)) {
            return;
          }
          const size_t start = arena.size();
          signatures_.AppendSignatures(*objects[i], &arena);
          sig_offset[i + 1] = static_cast<int64_t>(arena.size() - start);
          verifier_.BuildPlan(*objects[i], &prepared.plans[i]);
          prepared.screen[i] = {prepared.plans[i].sketch, objects[i]->size()};
          for (size_t k = start; k < arena.size(); ++k) {
            shard_max_id[shard] = std::max(shard_max_id[shard], arena[k].id);
          }
        }
      });
  if (controller->tripped()) return prepared;
  std::vector<Signature> sigs = ConcatenateShards(&shard_sigs);
  CountsToOffsets(&sig_offset);
  stats->total_signatures += static_cast<int64_t>(sigs.size());
  const auto object_sigs = [&](int64_t i) {
    return std::span<Signature>(sigs.data() + sig_offset[i],
                                static_cast<size_t>(sig_offset[i + 1] - sig_offset[i]));
  };
  // Document frequencies, counted once over all objects in input order
  // into the order's dense arrays (one copy per join, whatever the lane
  // count), so the final order is independent of num_threads.
  order->Reserve(*std::max_element(shard_max_id.begin(), shard_max_id.end()));
  for (int64_t i = 0; i < n; ++i) {
    if (polled && (i % kIndexPollStride) == 0 && !controller->Poll(JoinPhase::kPrepare)) {
      return prepared;
    }
    order->CountObject(object_sigs(i));
  }
  order->Finalize();

  // Pass 2: global-order sort of each object's slice, in place, and its
  // prefix as deduplicated ranks into a per-shard arena; embarrassingly
  // parallel per object.
  std::vector<std::vector<int32_t>> shard_ranks(lanes);
  std::vector<int64_t> shard_prefix(lanes, 0);
  stats->prepare_tasks +=
      pool_->ParallelFor(n, lanes, [&](int shard, int64_t begin, int64_t end) {
        std::vector<int32_t>& out = shard_ranks[shard];
        int64_t since_poll = 0;
        static thread_local std::vector<int32_t> ranks;
        for (int64_t i = begin; i < end; ++i) {
          if (polled && (since_poll++ % kPreparePollStride) == 0 &&
              !controller->Poll(JoinPhase::kPrepare)) {
            return;
          }
          const std::span<Signature> object = object_sigs(i);
          SortByGlobalOrderWithRanks(*order, object, &ranks);
          const int32_t prefix = PrefixLengthFor(object, objects[i]->size());
          shard_prefix[shard] += prefix;
          // Sorted ascending, so equal ranks (one signature reached
          // through several elements) are adjacent.
          const size_t start = out.size();
          int32_t previous_rank = -1;
          for (int32_t k = 0; k < prefix; ++k) {
            if (ranks[k] == previous_rank) continue;
            previous_rank = ranks[k];
            out.push_back(previous_rank);
          }
          prepared.prefix_offset[i + 1] = static_cast<int64_t>(out.size() - start);
        }
      });
  if (controller->tripped()) return prepared;
  prepared.prefix_ranks = ConcatenateShards(&shard_ranks);
  CountsToOffsets(&prepared.prefix_offset);
  for (int s = 0; s < lanes; ++s) stats->prefix_signatures += shard_prefix[s];
  return prepared;
}

void KJoin::GenerateCandidates(
    int64_t num_probes,
    const std::function<void(int, int32_t, int32_t,
                             std::vector<std::pair<int32_t, int32_t>>*)>& probe,
    std::vector<std::pair<int32_t, int32_t>>* candidates, JoinStats* stats) const {
  const int lanes = ShardsForWork(num_probes, kMinProbesPerShard, pool_->num_threads());
  if (lanes == 1) {
    // One lane: probe straight into the output, skipping the merge copy.
    const size_t before = candidates->size();
    stats->filter_tasks +=
        pool_->ParallelFor(num_probes, 1, [&](int shard, int64_t begin, int64_t end) {
          probe(shard, static_cast<int32_t>(begin), static_cast<int32_t>(end), candidates);
        });
    if (num_probes > 0) {
      stats->shard_candidates.push_back(static_cast<int64_t>(candidates->size() - before));
    }
    return;
  }

  std::vector<std::vector<std::pair<int32_t, int32_t>>> found(lanes);
  const int tasks =
      pool_->ParallelFor(num_probes, lanes, [&](int shard, int64_t begin, int64_t end) {
        probe(shard, static_cast<int32_t>(begin), static_cast<int32_t>(end), &found[shard]);
      });
  stats->filter_tasks += tasks;
  size_t total = candidates->size();
  for (int s = 0; s < tasks; ++s) total += found[s].size();
  candidates->reserve(total);
  // Shards cover probes in ascending contiguous ranges, so a shard-order
  // merge reproduces the global probe order exactly.
  for (int s = 0; s < tasks; ++s) {
    stats->shard_candidates.push_back(static_cast<int64_t>(found[s].size()));
    candidates->insert(candidates->end(), found[s].begin(), found[s].end());
  }
}

void KJoin::VerifyCandidates(const std::vector<Object>& left,
                             const std::vector<Object>& right,
                             std::span<const ObjectGroupPlan> left_plans,
                             std::span<const ObjectGroupPlan> right_plans,
                             const std::vector<std::pair<int32_t, int32_t>>& candidates,
                             JoinResult* result, JoinController* controller) const {
  WallTimer timer;
  const int64_t n = static_cast<int64_t>(candidates.size());
  result->stats.candidates += n;
  if (n == 0) {
    result->stats.verify_seconds += timer.ElapsedSeconds();
    return;
  }
  const bool polled = controller->active();

  // Shard count sized from the measured candidate count: each shard must
  // carry enough verification work to amortize waking a lane and warming
  // its thread-local arena (ShardsForWork above).
  const int max_shards =
      ShardsForWork(n, kMinVerifyPairsPerShard, pool_->num_threads());

  // Accept flags (1 = similar), written by the shard that verifies the
  // pair; contiguous shards touch disjoint flag slots.
  std::vector<char> similar(n, 0);

  // Runs inside a pool lane; never lets an exception escape into the pool
  // (that would terminate the process). Allocation failure — Hungarian /
  // SubGraph scratch on a pathological pair can be large — becomes a
  // kResourceExhausted trip with everything verified so far kept.
  auto verify_range = [&](int64_t begin, int64_t end, VerifyStats* vs) {
    try {
      int64_t since_poll = 0;
      for (int64_t k = begin; k < end; ++k) {
        if (polled && (since_poll++ % kVerifyPollStride) == 0 &&
            !controller->Poll(JoinPhase::kVerify)) {
          return;
        }
        const auto& [l, r] = candidates[k];
        if (verifier_.Verify(left[l], right[r], left_plans[l], right_plans[r], options_.tau,
                             vs)) {
          similar[k] = 1;
        }
      }
    } catch (const std::bad_alloc&) {
      controller->Trip(JoinPhase::kVerify,
                       ResourceExhaustedError("allocation failed while verifying a candidate "
                                              "pair; results so far are partial"));
    }
  };

  // Per-shard stats merge into one deterministic sum (all integer
  // counters, so the shard count cannot change the totals).
  std::vector<VerifyStats> stats(max_shards);
  const int tasks =
      pool_->ParallelFor(n, max_shards, [&](int shard, int64_t begin, int64_t end) {
        verify_range(begin, end, &stats[shard]);
      });
  result->stats.verify_tasks += tasks;
  for (int s = 0; s < tasks; ++s) result->stats.verify.Add(stats[s]);
  // Emit in candidate order regardless of sharding.
  for (int64_t i = 0; i < n; ++i) {
    if (similar[i]) result->pairs.push_back(candidates[i]);
  }
  result->stats.verify_seconds += timer.ElapsedSeconds();
}

void KJoin::FinishStats(const ThreadPoolStats& pool_before, JoinStats* stats) const {
  const ThreadPoolStats after = pool_->stats();
  stats->threads = pool_->num_threads();
  stats->pool_busy_seconds = after.busy_seconds - pool_before.busy_seconds;
  if (stats->total_seconds > 0.0) {
    stats->pool_utilization =
        stats->pool_busy_seconds / (pool_->num_threads() * stats->total_seconds);
  }
}

Status KJoin::JoinImpl(const std::vector<Object>& left, const std::vector<Object>& right,
                       bool self, const JoinControl& control, JoinResult* result) const {
  KJOIN_CHECK(result != nullptr);
  *result = JoinResult();
  if (!FitsObjectIdSpace(left.size()) || KJOIN_FAULT_POINT("kjoin/id_space")) {
    return InvalidArgumentError(
        (self ? "collection of " : "left collection of ") + std::to_string(left.size()) +
        " objects exceeds the int32_t object-id space (max " +
        std::to_string(kMaxJoinCollectionSize) + "); shard the input");
  }
  if (!self && !FitsObjectIdSpace(right.size())) {
    return InvalidArgumentError(
        "right collection of " + std::to_string(right.size()) +
        " objects exceeds the int32_t object-id space (max " +
        std::to_string(kMaxJoinCollectionSize) + "); shard the input");
  }
  const std::vector<Object>& rhs = self ? left : right;
  result->stats.num_objects_left = static_cast<int64_t>(left.size());
  result->stats.num_objects_right = static_cast<int64_t>(rhs.size());

  JoinController controller(control);
  const bool polled = controller.active();
  const ThreadPoolStats pool_before = pool_->stats();
  WallTimer total_timer;

  // ---- prepare ----
  WallTimer phase_timer;
  GlobalSignatureOrder order;
  // Signatures and the global order span both collections (§6.1).
  const Prepared prepared =
      self ? Prepare({&left}, &order, &result->stats, &controller)
           : Prepare({&left, &right}, &order, &result->stats, &controller);
  result->stats.signature_seconds = phase_timer.ElapsedSeconds();

  // ---- filter: index left prefixes, probe each prefix's size window ----
  phase_timer.Restart();
  const int32_t num_indexed = static_cast<int32_t>(left.size());
  const size_t probe_sig_offset = self ? 0 : left.size();
  const std::span<const ObjectGroupPlan> left_plans(prepared.plans.data(), left.size());
  const std::span<const ObjectGroupPlan> right_plans(prepared.plans.data() + probe_sig_offset,
                                                     rhs.size());
  const std::span<const ScreenRecord> left_screen(prepared.screen.data(), left.size());
  const std::span<const ScreenRecord> right_screen(prepared.screen.data() + probe_sig_offset,
                                                   rhs.size());

  // The indexed objects ranked by (size, id), by a counting sort on size:
  // position[x] is x's rank, and size_start[s] the first rank of an object
  // of size >= s, for s in [0, max_left_size + 1].
  int32_t max_left_size = 0;
  for (const ScreenRecord& record : left_screen) {
    max_left_size = std::max(max_left_size, record.size);
  }
  std::vector<int32_t> size_start(static_cast<size_t>(max_left_size) + 2, 0);
  for (const ScreenRecord& record : left_screen) ++size_start[record.size + 1];
  for (size_t s = 1; s < size_start.size(); ++s) size_start[s] += size_start[s - 1];
  std::vector<int32_t> position(static_cast<size_t>(num_indexed));
  std::vector<int32_t> by_position(static_cast<size_t>(num_indexed));
  {
    std::vector<int32_t> next(size_start.begin(), size_start.end() - 1);
    for (int32_t x = 0; x < num_indexed; ++x) {
      const int32_t at = next[left_screen[x].size]++;
      position[x] = at;
      by_position[at] = x;
    }
  }

  // The rank-keyed postings of the indexed prefixes, emitted by position,
  // so each list ascends by (size, id): a probe's admissible partners are
  // one contiguous run of it. Built only over a complete Prepare; the fill
  // pass polls, and a trip there leaves the lists incomplete, but a
  // tripped controller zeroes num_probes, so they are never probed.
  PostingStore postings;
  if (!controller.tripped()) {
    bool filling = false;
    postings = PostingStore::Build(order.num_signatures(), [&](auto&& emit) {
      for (int32_t at = 0; at < num_indexed; ++at) {
        if (filling && polled && (at % kIndexPollStride) == 0 &&
            !controller.Poll(JoinPhase::kFilter)) {
          return;
        }
        const int32_t x = by_position[at];
        for (const int32_t rank : prepared.PrefixRanks(x)) emit(rank, x);
      }
      filling = true;
    });
  }

  const int32_t num_probes =
      controller.tripped() ? 0 : static_cast<int32_t>(self ? left.size() : right.size());

  // Each probe size's size window: the positions [begin, end) of the
  // indexed objects whose sizes the size bound admits. The admissible
  // partner sizes of a non-empty object form an interval around its own
  // size (docs/THEORY.md, section 6), found by a binary search on each
  // side over Verifier::Demand itself, so the window and the screen can
  // never disagree. Empty objects carry no signature and never probe.
  struct Window {
    int32_t begin = 0;
    int32_t end = 0;
  };
  int32_t max_right_size = 0;
  for (int32_t p = 0; p < num_probes; ++p) {
    max_right_size = std::max(max_right_size, right_screen[p].size);
  }
  std::vector<Window> window(static_cast<size_t>(max_right_size) + 1);
  {
    std::vector<char> probed_size(window.size(), 0);
    for (int32_t p = 0; p < num_probes; ++p) probed_size[right_screen[p].size] = 1;
    const auto in_reach = [&](int32_t partner, int32_t size) {
      return !verifier_.Demand(partner, size).out_of_reach;
    };
    for (int32_t size = 1; size <= max_right_size; ++size) {
      if (!probed_size[size]) continue;
      // A size is within reach of itself; reach grows up to it and
      // shrinks past it.
      int32_t lo = 1, hi = size;
      while (lo < hi) {
        const int32_t mid = lo + (hi - lo) / 2;
        if (in_reach(mid, size)) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      const int32_t smallest = lo;
      lo = size;
      hi = std::max(size, max_left_size);
      while (lo < hi) {
        const int32_t mid = lo + (hi - lo + 1) / 2;
        if (in_reach(mid, size)) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      const int32_t largest = lo;
      window[size] = {size_start[std::min(smallest, max_left_size + 1)],
                      size_start[std::min(largest, max_left_size) + 1]};
    }
  }

  const int64_t max_per_probe = control.max_candidates_per_probe;
  // Candidate pairs buffered at once under the byte budget (0 = unlimited).
  const int64_t pair_bytes = static_cast<int64_t>(sizeof(std::pair<int32_t, int32_t>));
  const int64_t max_buffered =
      control.candidate_byte_budget > 0
          ? std::max<int64_t>(int64_t{1}, control.candidate_byte_budget / pair_bytes)
          : 0;

  // One probe walk serves self and R-S joins. A probe takes, from each
  // of its prefix's posting lists, only the run inside its size window,
  // found by two binary searches on the entries' positions: an R-S probe
  // the whole window; a self-join probe the part of it ranked below
  // itself, so each pair is found once, from its larger (size, id) side,
  // and emitted as (smaller id, larger id). The entries left out below
  // the window (and, R-S, above it) are tallied as size_skipped.
  //
  // Each probe adds those runs to the thread's ProbeSet and drains the
  // touched objects in ascending id order, so every object sharing a
  // prefix signature with the probe is found once.
  //
  // Every drained pair then passes the verifier's Screen: in pure mode
  // with count_pruning the count bound, which the two objects' sketches
  // settle for most pairs (the window already holds only pairs within
  // the size bound). The screen reads the flat records first
  // (Prepared::screen) and a plan only when the sketches pass. Only pairs
  // that could become results are emitted (docs/THEORY.md, section 6);
  // the dropped ones are tallied per shard, in cache-line-padded slots so
  // concurrent shards never share a line.
  struct alignas(64) ScreenTally {
    int64_t skipped = 0;
    int64_t count = 0;
    int64_t sketch = 0;
  };
  std::vector<ScreenTally> screened(static_cast<size_t>(pool_->num_threads()));
  // The first entry in [first, last) — a run of a list ascending by
  // position — at position >= bound.
  const auto first_at = [&position](const int32_t* first, const int32_t* last, int32_t bound) {
    return std::lower_bound(first, last, bound,
                            [&position](int32_t doc, int32_t b) { return position[doc] < b; });
  };
  auto probe = [&](int shard, int32_t begin, int32_t end,
                   std::vector<std::pair<int32_t, int32_t>>* out) {
    const size_t shard_base = out->size();
    ScreenTally& tally = screened[static_cast<size_t>(shard)];
    ProbeSet& probe_set = ThreadProbeSet();
    probe_set.Reserve(num_indexed);
    // A probe's demands depend only on the partner's size: memoised per
    // probe, valid where demand_probe holds the probe's id.
    std::vector<PairDemand> demand(static_cast<size_t>(max_left_size) + 1);
    std::vector<int32_t> demand_probe(demand.size(), -1);
    int64_t since_poll = 0;
    for (int32_t p = begin; p < end; ++p) {
      if (polled && (since_poll++ % kProbePollStride) == 0 &&
          !controller.Poll(JoinPhase::kFilter)) {
        return;
      }
      const size_t probe_base = out->size();
      const ScreenRecord& probe_record = right_screen[p];
      const Window& slice = window[probe_record.size];
      const int32_t stop = self ? position[p] : slice.end;
      for (const int32_t rank : prepared.PrefixRanks(probe_sig_offset + p)) {
        const int32_t* list = postings.docs(rank);
        const int32_t* list_end = postings.docs_end(rank);
        const int32_t* first = first_at(list, list_end, slice.begin);
        const int32_t* last = first_at(first, list_end, stop);
        tally.skipped += (first - list) + (self ? 0 : list_end - last);
        probe_set.Add(first, static_cast<int32_t>(last - first));
      }
      probe_set.Drain([&](int32_t x) {
        const ScreenRecord& record = left_screen[x];
        if (demand_probe[record.size] != p) {
          demand_probe[record.size] = p;
          demand[record.size] = verifier_.Demand(record.size, probe_record.size);
        }
        switch (Verifier::Screen(demand[record.size], record.sketch, probe_record.sketch,
                                 left_plans[x], right_plans[p])) {
          case PairScreen::kVerify:
            if (self && x > p) {
              out->emplace_back(p, x);
            } else {
              out->emplace_back(x, p);
            }
            break;
          case PairScreen::kSizeBound:
            break;  // never: the window holds only pairs within reach
          case PairScreen::kSketchBound:
            ++tally.sketch;
            ++tally.count;
            break;
          case PairScreen::kCountBound:
            ++tally.count;
            break;
        }
      });
      if (max_per_probe > 0 && static_cast<int64_t>(out->size() - probe_base) > max_per_probe) {
        controller.Trip(
            JoinPhase::kFilter,
            ResourceExhaustedError(
                "probe object " + std::to_string(p) + " emitted " +
                std::to_string(out->size() - probe_base) +
                " candidates, over max_candidates_per_probe=" +
                std::to_string(max_per_probe) + "; results so far are partial"));
        return;
      }
      // Hard memory backstop: chunks are sized to emit about one budget's
      // worth, and the rate estimate lags by at most ~2x on steadily
      // densifying workloads; a single shard emitting four budgets in one
      // chunk means a hub probe blew the estimate — give up instead of
      // ballooning further.
      if (max_buffered > 0 &&
          static_cast<int64_t>(out->size() - shard_base) >= 4 * max_buffered) {
        controller.Trip(
            JoinPhase::kFilter,
            ResourceExhaustedError(
                "candidate buffer overflowed candidate_byte_budget=" +
                std::to_string(control.candidate_byte_budget) + " at probe object " +
                std::to_string(p) + "; results so far are partial"));
        return;
      }
    }
  };

  // Candidate generation, chunked only when a byte budget is set. Chunk
  // sizes derive from deterministic emission counts, so the pair stream —
  // and therefore the verified result — is byte-identical to an
  // unbudgeted run that stays under budget.
  std::vector<std::pair<int32_t, int32_t>> candidates;
  int32_t next = 0;
  int64_t probes_done = 0;
  int64_t emitted_seen = 0;
  while (next < num_probes && !controller.tripped()) {
    int64_t chunk = num_probes;
    if (max_buffered > 0) {
      if (probes_done == 0) {
        chunk = kInitialBudgetChunk;
      } else {
        const int64_t rate = std::max<int64_t>(1, emitted_seen / probes_done);
        const int64_t headroom =
            max_buffered - static_cast<int64_t>(candidates.size());
        chunk = std::max<int64_t>(1, headroom / rate);
      }
    }
    const int32_t take = static_cast<int32_t>(
        std::min<int64_t>(chunk, static_cast<int64_t>(num_probes - next)));
    const int32_t chunk_begin = next;
    const size_t before = candidates.size();
    GenerateCandidates(
        take,
        [&](int shard, int32_t b, int32_t e, std::vector<std::pair<int32_t, int32_t>>* out) {
          probe(shard, chunk_begin + b, chunk_begin + e, out);
        },
        &candidates, &result->stats);
    next += take;
    probes_done += take;
    const int64_t chunk_emitted = static_cast<int64_t>(candidates.size() - before);
    emitted_seen += chunk_emitted;
    if (controller.tripped()) break;
    if (max_buffered > 0 && static_cast<int64_t>(candidates.size()) >= max_buffered) {
      // Budget full: spill — verify the buffer now as a smaller batch and
      // continue probing with a drained buffer.
      ++result->stats.budget_spills;
      result->stats.filter_seconds += phase_timer.ElapsedSeconds();
      VerifyCandidates(left, rhs, left_plans, right_plans, candidates, result, &controller);
      ++result->stats.verify_batches;
      const bool single_probe_overflow = take == 1 && chunk_emitted >= max_buffered;
      candidates.clear();
      candidates.shrink_to_fit();
      phase_timer.Restart();
      if (single_probe_overflow) {
        // Degradation bottomed out: one probe alone fills the budget. Its
        // candidates were verified above, but the promised memory bound
        // cannot be honored, so the join stops here.
        controller.Trip(
            JoinPhase::kFilter,
            ResourceExhaustedError(
                "probe object " + std::to_string(next - 1) + " alone emitted " +
                std::to_string(chunk_emitted) + " candidates (" +
                std::to_string(chunk_emitted * pair_bytes) +
                " bytes), filling candidate_byte_budget=" +
                std::to_string(control.candidate_byte_budget) +
                "; results so far are partial"));
      }
    }
  }
  result->stats.filter_seconds += phase_timer.ElapsedSeconds();
  for (const ScreenTally& tally : screened) {
    result->stats.size_skipped += tally.skipped;
    result->stats.count_filtered += tally.count;
    result->stats.sketch_filtered += tally.sketch;
  }

  // ---- verify (final batch) ----
  if (!controller.tripped()) {
    VerifyCandidates(left, rhs, left_plans, right_plans, candidates, result, &controller);
    ++result->stats.verify_batches;
  }

  // Two empty objects carry no signature, so no probe finds their pair,
  // yet their similarity is 1 (CombineOverlap): every such pair is a
  // result without being a candidate (docs/THEORY.md, section 6).
  const size_t probed_pairs = result->pairs.size();
  if (!controller.tripped()) {
    std::vector<int32_t> empty_left;
    for (int32_t x = 0; x < num_indexed; ++x) {
      if (left[x].size() == 0) empty_left.push_back(x);
    }
    for (int32_t p = 0; p < static_cast<int32_t>(rhs.size()); ++p) {
      if (rhs[p].size() != 0) continue;
      for (const int32_t x : empty_left) {
        if (self && x >= p) break;
        result->pairs.emplace_back(x, p);
      }
    }
  }

  if (self || result->pairs.size() > probed_pairs) {
    // A self-join finds each pair from its larger (size, id) side, and an
    // R-S join emits probe by probe; sorted by (second, first), the pairs
    // come in the order of a walk by id.
    std::sort(result->pairs.begin(), result->pairs.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second < b.second : a.first < b.first;
    });
  }
  result->stats.results = static_cast<int64_t>(result->pairs.size());
  result->stats.total_seconds = total_timer.ElapsedSeconds();
  result->stats.stopped_phase = controller.phase();
  result->stats.control_polls = controller.polls();
  FinishStats(pool_before, &result->stats);
  return controller.status();
}

Status KJoin::SelfJoin(const std::vector<Object>& objects, const JoinControl& control,
                       JoinResult* result) const {
  return JoinImpl(objects, objects, /*self=*/true, control, result);
}

Status KJoin::Join(const std::vector<Object>& left, const std::vector<Object>& right,
                   const JoinControl& control, JoinResult* result) const {
  return JoinImpl(left, right, /*self=*/false, control, result);
}

JoinResult KJoin::SelfJoin(const std::vector<Object>& objects) const {
  JoinResult result;
  const Status status = JoinImpl(objects, objects, /*self=*/true, JoinControl{}, &result);
  KJOIN_CHECK(status.ok()) << status;
  return result;
}

JoinResult KJoin::Join(const std::vector<Object>& left,
                       const std::vector<Object>& right) const {
  JoinResult result;
  const Status status = JoinImpl(left, right, /*self=*/false, JoinControl{}, &result);
  KJOIN_CHECK(status.ok()) << status;
  return result;
}

double KJoin::ExactSimilarity(const Object& x, const Object& y) const {
  return verifier_.ExactSimilarity(x, y);
}

}  // namespace kjoin
