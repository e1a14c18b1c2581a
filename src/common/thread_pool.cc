#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/logging.h"

namespace kjoin {
namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (int t = 0; t < num_threads_ - 1; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // A 1-lane pool has no workers; drain anything Schedule()d inline.
  while (RunOneTask()) {
  }
}

void ThreadPool::Schedule(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    KJOIN_CHECK(!stop_) << "Schedule on a stopping ThreadPool";
    queue_.push_back([this, fn = std::move(fn)] { RunTimed(fn); });
  }
  task_ready_.notify_one();
}

void ThreadPool::RunTimed(const std::function<void()>& fn) {
  const int64_t start = NowNanos();
  fn();
  const int64_t elapsed = NowNanos() - start;
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  busy_nanos_.fetch_add(elapsed, std::memory_order_relaxed);
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping: Schedule()d work is executed,
      // not dropped.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

int ThreadPool::ParallelFor(int64_t n, int max_shards,
                            const std::function<void(int, int64_t, int64_t)>& fn) {
  if (n <= 0) return 0;
  const int shards = static_cast<int>(std::min<int64_t>(n, std::max(1, max_shards)));
  // Shard boundaries are a pure function of (n, shards): contiguous,
  // non-empty, sizes differing by at most one.
  const auto shard_begin = [n, shards](int s) { return n * s / shards; };

  if (shards == 1) {
    RunTimed([&] { fn(0, 0, n); });
    return 1;
  }

  // The claim state is shared with the queued helpers, which may run
  // after this call has returned: a helper touches `fn` only after it
  // claimed a shard, and an unfinished claimed shard keeps the caller
  // waiting, so `fn` outlives every use.
  struct Call {
    const std::function<void(int, int64_t, int64_t)>* fn;
    std::atomic<int> next{0};
    std::mutex mu;
    std::condition_variable done;
    int pending;  // guarded by mu
  };
  auto call = std::make_shared<Call>();
  call->fn = &fn;
  call->pending = shards;
  // Claims and runs unclaimed shards of this call until none is left. A
  // shard is counted in stats() before it signals completion, so the
  // caller's stats() after ParallelFor returns includes every shard.
  const auto claim_shards = [this, shards, shard_begin](Call& c) {
    for (int s; (s = c.next.fetch_add(1)) < shards;) {
      RunTimed([&] { (*c.fn)(s, shard_begin(s), shard_begin(s + 1)); });
      std::lock_guard<std::mutex> lock(c.mu);
      if (--c.pending == 0) c.done.notify_all();
    }
  };

  // One helper per worker that could join (none on a 1-lane pool, where
  // the caller runs every shard in order). A helper claims shards of this
  // call only and returns at once when none is left.
  const int helpers = std::min(shards - 1, num_threads_ - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int h = 0; h < helpers; ++h) {
      queue_.push_back([call, claim_shards] { claim_shards(*call); });
    }
  }
  task_ready_.notify_all();

  // The caller is a full lane: it claims shards in ascending order, then
  // waits for the ones helpers claimed.
  claim_shards(*call);
  std::unique_lock<std::mutex> lock(call->mu);
  call->done.wait(lock, [&call] { return call->pending == 0; });
  return shards;
}

ThreadPoolStats ThreadPool::stats() const {
  return {tasks_executed_.load(std::memory_order_relaxed),
          static_cast<double>(busy_nanos_.load(std::memory_order_relaxed)) * 1e-9};
}

}  // namespace kjoin
