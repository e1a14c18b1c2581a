#ifndef KJOIN_COMMON_THREAD_POOL_H_
#define KJOIN_COMMON_THREAD_POOL_H_

// A reusable worker pool for the join pipeline.
//
// A pool with `num_threads` lanes spawns `num_threads - 1` background
// workers; the thread calling ParallelFor always executes shards itself,
// so total parallelism is exactly `num_threads` and a pool of 1 runs
// everything inline without spawning anything. Workers park on a condition
// variable between joins, so one pool can serve many join calls without
// the per-call std::thread spawn/join cost the verifier used to pay.
//
// ParallelFor is the only primitive the pipeline needs: contiguous static
// shards, no empty tasks, caller participates. Each call queues helpers
// that claim shards of that call only; the caller claims its own shards
// in ascending order and never runs another call's shards or a
// Schedule()d task, so concurrent callers (the serving event loops) do
// not stall each other. Schedule() exposes the raw fire-and-forget queue
// for other subsystems.
//
// Thread safety: all public methods may be called from any thread.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kjoin {

// Cumulative execution counters, for JoinStats' pool fields. Snapshot with
// ThreadPool::stats() before and after a region and subtract.
struct ThreadPoolStats {
  // Tasks run to completion (ParallelFor shards, whether a worker or the
  // caller ran them, and Schedule() closures).
  int64_t tasks_executed = 0;
  // Summed wall time spent inside tasks across all lanes.
  double busy_seconds = 0.0;
};

class ThreadPool {
 public:
  // `num_threads` >= 1 is the total parallelism (workers + caller).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Enqueues `fn` for a worker to run. Pending closures are drained
  // (executed, not dropped) before the destructor returns; a 1-lane pool
  // has no worker, so there they run only then.
  void Schedule(std::function<void()> fn);

  // Splits [0, n) into at most `max_shards` contiguous, non-empty,
  // near-equal shards and runs fn(shard, begin, end) for each; shard ids
  // are dense in [0, shards). Blocks until every shard finished; the
  // calling thread executes every shard no worker claimed first. Returns
  // the number of shards run, 0 when n == 0. Shard boundaries depend only
  // on (n, max_shards), never on thread timing, so per-shard outputs
  // merged in shard order are deterministic.
  int ParallelFor(int64_t n, int max_shards,
                  const std::function<void(int shard, int64_t begin, int64_t end)>& fn);

  ThreadPoolStats stats() const;

 private:
  void WorkerLoop();
  // Pops and runs one queued task. Returns false if the queue was empty.
  bool RunOneTask();
  // Runs `fn` and counts it in stats(). A Schedule()d task runs under it,
  // and so does every ParallelFor shard, before the shard signals.
  void RunTimed(const std::function<void()>& fn);

  const int num_threads_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable task_ready_;   // signalled on push and on stop
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  bool stop_ = false;                        // guarded by mu_
  // Statistics only, so relaxed: a task's end does not take mu_.
  std::atomic<int64_t> tasks_executed_{0};
  std::atomic<int64_t> busy_nanos_{0};
};

}  // namespace kjoin

#endif  // KJOIN_COMMON_THREAD_POOL_H_
