#ifndef KJOIN_NET_EVENT_LOOP_H_
#define KJOIN_NET_EVENT_LOOP_H_

// A single-threaded, level-triggered epoll event loop.
//
// One EventLoop owns one epoll instance and runs on one thread (Run()
// blocks until Stop()). Everything that touches a handler — Add,
// Modify, Remove, and the handler callbacks themselves — happens on
// that thread; the only cross-thread entry points are Stop() and
// RunInLoop(), which hand work over via an eventfd wakeup. The server
// (net/server.h) runs N loops on N threads and gives each accepted
// connection to one of them, so connections are loop-confined and need
// no per-connection locks.
//
// Level-triggered was chosen over edge-triggered deliberately: handlers
// may read less than everything available (e.g. a connection under
// write backpressure stops reading), and with level triggering the
// leftover readiness re-arms itself — no starvation bookkeeping.
//
// Dispatch resolves fds through a per-loop map at event-delivery time,
// so a handler that closes *another* connection mid-batch (e.g. the
// drain path force-closing stragglers) leaves dangling epoll events
// pointing at erased fds, which are simply skipped.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace kjoin::net {

class EventHandler {
 public:
  virtual ~EventHandler() = default;
  // `events` is the epoll readiness mask (EPOLLIN | EPOLLOUT | ...).
  // Called only on the loop thread.
  virtual void OnEvent(uint32_t events) = 0;
};

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registration (loop thread only; before Run() counts as loop thread).
  // The loop does not own `fd` or `handler` — the caller closes the fd
  // after Remove().
  Status Add(int fd, uint32_t events, EventHandler* handler);
  Status Modify(int fd, uint32_t events);
  void Remove(int fd);

  // Blocks servicing events until Stop(). Drains the RunInLoop queue
  // once more after the last epoll_wait so no handed-over task is lost.
  // Returns at once (after that drain) if Stop() came first, even before
  // Run() was entered.
  void Run();

  // Thread-safe and async-signal-safe (one atomic store + one eventfd
  // write): usable straight from a SIGTERM handler. Final: a stopped
  // loop does not run again.
  void Stop();

  // Runs `task` on the loop thread. From the loop thread itself the
  // task still queues (never runs inline), which keeps callback
  // re-entrancy impossible. Tasks queued after the loop exits run in
  // the final drain or are dropped with the loop.
  void RunInLoop(std::function<void()> task);

  // Called roughly every `interval_seconds` on the loop thread while the
  // loop runs (connection idle sweeps). One ticker per loop; set before
  // Run().
  void SetTicker(double interval_seconds, std::function<void()> tick);

  bool IsInLoopThread() const {
    return std::this_thread::get_id() == loop_thread_id_.load(std::memory_order_acquire);
  }

 private:
  void Wake();
  void DrainWake();
  void RunQueuedTasks();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::map<int, EventHandler*> handlers_;
  // Set by Stop() only; Run() never writes it, so a Stop() that lands
  // before the loop thread enters Run() is not lost.
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::thread::id> loop_thread_id_{};

  std::mutex tasks_mu_;
  std::vector<std::function<void()>> tasks_;

  double tick_interval_seconds_ = 0.0;
  std::function<void()> tick_;
};

}  // namespace kjoin::net

#endif  // KJOIN_NET_EVENT_LOOP_H_
