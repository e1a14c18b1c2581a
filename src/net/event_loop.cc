#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/logging.h"

namespace kjoin::net {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  KJOIN_CHECK(epoll_fd_ >= 0) << "epoll_create1 failed: " << std::strerror(errno);
  // Non-blocking so a spurious wakeup's read never hangs the loop.
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  KJOIN_CHECK(wake_fd_ >= 0) << "eventfd failed: " << std::strerror(errno);
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  KJOIN_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0)
      << "epoll_ctl(wake) failed: " << std::strerror(errno);
}

EventLoop::~EventLoop() {
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

Status EventLoop::Add(int fd, uint32_t events, EventHandler* handler) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return InternalError(std::string("epoll_ctl(ADD) failed: ") + std::strerror(errno));
  }
  handlers_[fd] = handler;
  return OkStatus();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return InternalError(std::string("epoll_ctl(MOD) failed: ") + std::strerror(errno));
  }
  return OkStatus();
}

void EventLoop::Remove(int fd) {
  // The fd may already be gone (closed elsewhere); epoll cleans up on
  // close anyway, so a failed DEL is not an error worth surfacing.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::Wake() {
  const uint64_t one = 1;
  // write(2) is async-signal-safe; a full counter (EAGAIN) already
  // guarantees a pending wakeup, so the result is ignorable.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::DrainWake() {
  uint64_t count;
  while (::read(wake_fd_, &count, sizeof(count)) > 0) {
  }
}

void EventLoop::RunQueuedTasks() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    tasks.swap(tasks_);
  }
  for (std::function<void()>& task : tasks) task();
}

void EventLoop::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  Wake();
}

void EventLoop::RunInLoop(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    tasks_.push_back(std::move(task));
  }
  Wake();
}

void EventLoop::SetTicker(double interval_seconds, std::function<void()> tick) {
  tick_interval_seconds_ = interval_seconds;
  tick_ = std::move(tick);
}

void EventLoop::Run() {
  using Clock = std::chrono::steady_clock;
  loop_thread_id_.store(std::this_thread::get_id(), std::memory_order_release);
  const bool has_ticker = tick_ && tick_interval_seconds_ > 0.0;
  const int tick_ms =
      has_ticker ? std::max(1, static_cast<int>(tick_interval_seconds_ * 1e3)) : -1;
  Clock::time_point last_tick = Clock::now();

  constexpr int kMaxEvents = 64;
  struct epoll_event events[kMaxEvents];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, tick_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      KJOIN_LOG(ERROR) << "epoll_wait failed: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        DrainWake();
        continue;
      }
      // Resolve through the map at dispatch time: a handler earlier in
      // this batch may have removed this fd.
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      it->second->OnEvent(events[i].events);
    }
    RunQueuedTasks();
    if (has_ticker) {
      const Clock::time_point now = Clock::now();
      if (std::chrono::duration<double>(now - last_tick).count() >=
          tick_interval_seconds_) {
        last_tick = now;
        tick_();
      }
    }
  }
  // Tasks handed over concurrently with Stop() must still run — the
  // server's drain path queues its final flushes this way.
  RunQueuedTasks();
}

}  // namespace kjoin::net
