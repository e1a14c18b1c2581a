#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "serve/index_manager.h"

namespace kjoin::net {
namespace {

void Inc(Counter* counter, int64_t n = 1) {
  if (counter != nullptr) counter->Increment(n);
}

std::string_view HealthStateName(serve::HealthState state) {
  switch (state) {
    case serve::HealthState::kServing:
      return "SERVING";
    case serve::HealthState::kDegradedReadOnly:
      return "DEGRADED_READ_ONLY";
    case serve::HealthState::kRecovering:
      return "RECOVERING";
  }
  return "UNKNOWN";
}

// Writes (inserts and deletes) one connection may have handed to the
// writer thread and not yet had answered. Past it the connection stops
// decoding and reading until a write's response goes out, so one
// pipelining client cannot grow the writer queue without bound. Searches
// are answered inline and never count.
constexpr int kMaxPendingPerConnection = 32;

// Little-endian u64 at the front of a payload — the request id, salvaged
// so a structurally bad payload can still get an error response.
uint64_t PeekRequestId(std::string_view payload) {
  uint64_t id = 0;
  for (int i = 0; i < 8; ++i) {
    id |= static_cast<uint64_t>(static_cast<uint8_t>(payload[i])) << (8 * i);
  }
  return id;
}

}  // namespace

// One event loop plus everything it owns. `connections` is touched only
// on the loop thread (adoption of accepted connections, connection
// callbacks, and drain tasks all run there). Only the first loop listens.
struct LoopContext {
  explicit LoopContext(KJoinServer* s) : server(s) {}
  KJoinServer* server;
  EventLoop loop;
  std::thread thread;
  int listen_fd = -1;
  std::unique_ptr<EventHandler> listener;
  std::map<int, std::shared_ptr<Connection>> connections;
  // The token dictionary this loop builds queries against; replaced (on
  // the loop thread, via RunInLoop) whenever the writer interns tokens.
  std::shared_ptr<const TokenDictionary> dictionary;
};

// A client connection, confined to its loop's thread.
class Connection : public EventHandler, public std::enable_shared_from_this<Connection> {
 public:
  Connection(KJoinServer* server, LoopContext* context, int fd)
      : server_(server),
        context_(context),
        fd_(fd),
        decoder_(server->options_.max_frame_bytes),
        last_activity_(std::chrono::steady_clock::now()) {}

  int fd() const { return fd_; }
  bool closed() const { return closed_; }
  EventLoop* loop() { return &context_->loop; }
  // Loop thread only.
  const TokenDictionary& dictionary() const { return *context_->dictionary; }

  void OnEvent(uint32_t events) override {
    // The first thing a handler does is pin itself: Close() erases the
    // map entry that owns us, and the rest of this frame still runs.
    std::shared_ptr<Connection> self = shared_from_this();
    if (closed_) return;
    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      Close();
      return;
    }
    if ((events & EPOLLIN) != 0) HandleReadable();
    if (!closed_ && (events & EPOLLOUT) != 0) FlushWrites();
  }

  // Loop thread. Counts a write handed to the writer thread, whose
  // response will arrive via CompleteResponse.
  void BeginPending() { ++pending_; }

  // Loop thread (via RunInLoop from the writer thread). Always balances
  // BeginPending, even on a closed connection.
  void CompleteResponse(std::string frame) {
    --pending_;
    if (closed_) return;
    QueueFrame(std::move(frame));
    if (closed_ || pending_ != kMaxPendingPerConnection - 1) return;
    // Back under the cap: dispatch frames already buffered, then read.
    if (DrainFrames()) UpdateInterest();
  }

  // Loop thread: encode-and-send for responses produced inline
  // (searches, health, metrics, malformed requests).
  void SendResponse(const NetResponse& response) {
    if (closed_) return;
    QueueFrame(WrapFrame(EncodeResponsePayload(response)));
  }

  // Drain: stop reading; close as soon as nothing is owed.
  void StartDrain() {
    if (closed_) return;
    want_read_ = false;
    UpdateInterest();
    MaybeCloseAfterDrain();
  }

  double idle_seconds(std::chrono::steady_clock::time_point now) const {
    return std::chrono::duration<double>(now - last_activity_).count();
  }
  int pending() const { return pending_; }
  bool write_buffer_empty() const { return write_offset_ >= write_buffer_.size(); }

  void Close() {
    if (closed_) return;
    closed_ = true;
    context_->loop.Remove(fd_);
    ::close(fd_);
    server_->active_connections_.fetch_sub(1, std::memory_order_relaxed);
    if (server_->active_connections_gauge_ != nullptr) {
      server_->active_connections_gauge_->Set(server_->active_connections());
    }
    context_->connections.erase(fd_);  // may destroy *this — must be last
  }

 private:
  void HandleReadable() {
    last_activity_ = std::chrono::steady_clock::now();
    char buf[64 << 10];
    while (true) {
      if (KJOIN_FAULT_POINT("net/read")) {
        Close();
        return;
      }
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        Inc(server_->bytes_read_, n);
        decoder_.Append(buf, static_cast<size_t>(n));
        // One recv per turn, its frames answered inline: a client that
        // keeps its socket full cannot hold the loop, and level-triggered
        // epoll hands the loop back here after the other ready handlers.
        DrainFrames();
        return;
      }
      if (n == 0) {  // peer closed
        Close();
        return;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) Close();
      return;
    }
  }

  // Hands every completed frame to the server. False when the
  // connection died (framing violation or dispatch closed it).
  // Stops early, leaving frames buffered, at the pending cap.
  bool DrainFrames() {
    while (pending_ < kMaxPendingPerConnection) {
      std::string payload;
      StatusOr<bool> got = decoder_.Next(&payload);
      if (!got.ok()) {
        Inc(server_->protocol_errors_);
        KJOIN_LOG(WARNING) << "closing connection fd=" << fd_ << ": "
                           << got.status().ToString();
        Close();
        return false;
      }
      if (!*got) return true;
      Inc(server_->frames_read_);
      NetRequest request;
      Status status = DecodeRequestPayload(payload, &request);
      if (!status.ok()) {
        if (payload.size() < 8) {  // not even an id to echo
          Inc(server_->protocol_errors_);
          Close();
          return false;
        }
        SendResponse(ResponseFromStatus(PeekRequestId(payload),
                                        InvalidArgumentError(status.message())));
        continue;
      }
      server_->HandleRequest(shared_from_this(), std::move(request));
      if (closed_) return false;
    }
    UpdateInterest();  // at the cap: stop reading
    return true;
  }

  bool reading() const {
    return want_read_ && !read_stalled_ && pending_ < kMaxPendingPerConnection;
  }

  void QueueFrame(std::string frame) {
    Inc(server_->frames_written_);
    if (write_buffer_empty()) {
      write_buffer_.clear();
      write_offset_ = 0;
    }
    write_buffer_ += frame;
    FlushWrites();
    if (closed_) return;
    if (!read_stalled_ &&
        write_buffer_.size() - write_offset_ > server_->options_.write_buffer_cap_bytes) {
      read_stalled_ = true;
      Inc(server_->backpressure_stalls_);
      UpdateInterest();
    }
  }

  void FlushWrites() {
    last_activity_ = std::chrono::steady_clock::now();
    while (write_offset_ < write_buffer_.size()) {
      if (KJOIN_FAULT_POINT("net/write")) {
        Close();
        return;
      }
      const ssize_t n = ::send(fd_, write_buffer_.data() + write_offset_,
                               write_buffer_.size() - write_offset_, MSG_NOSIGNAL);
      if (n > 0) {
        Inc(server_->bytes_written_, n);
        write_offset_ += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        UpdateInterest();  // need EPOLLOUT to continue
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      Close();  // EPIPE / ECONNRESET / real error
      return;
    }
    // Fully flushed: compact, unstall the reader, drop EPOLLOUT.
    write_buffer_.clear();
    write_offset_ = 0;
    if (read_stalled_) {
      read_stalled_ = false;
      UpdateInterest();
    } else {
      UpdateInterest();
    }
    MaybeCloseAfterDrain();
  }

  void MaybeCloseAfterDrain() {
    if (closed_) return;
    if (!want_read_ && pending_ == 0 && write_buffer_empty()) Close();
  }

  void UpdateInterest() {
    if (closed_) return;
    uint32_t events = 0;
    if (reading()) events |= EPOLLIN;
    if (!write_buffer_empty()) events |= EPOLLOUT;
    if (events == interest_) return;
    interest_ = events;
    context_->loop.Modify(fd_, events);
  }

  KJoinServer* server_;
  LoopContext* context_;
  int fd_;
  FrameDecoder decoder_;
  std::string write_buffer_;
  size_t write_offset_ = 0;
  uint32_t interest_ = EPOLLIN;
  bool want_read_ = true;
  bool read_stalled_ = false;  // backpressure: EPOLLIN dropped
  bool closed_ = false;
  int pending_ = 0;  // writes whose responses are owed
  std::chrono::steady_clock::time_point last_activity_;
};

// The server's one listener, on the first loop. Accepts until EAGAIN and
// hands the k-th accepted connection to loop k mod num_loops, so where a
// connection runs depends only on the order connections arrive in.
class Listener : public EventHandler {
 public:
  explicit Listener(LoopContext* context) : context_(context) {}

  void OnEvent(uint32_t events) override {
    if ((events & EPOLLIN) == 0) return;
    KJoinServer* server = context_->server;
    while (true) {
      const int fd =
          ::accept4(context_->listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        // EMFILE & friends: drop this readiness round; level triggering
        // re-delivers while the backlog persists.
        return;
      }
      if (KJOIN_FAULT_POINT("net/accept")) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      LoopContext* target = server->loops_[next_loop_].get();
      next_loop_ = (next_loop_ + 1) % server->loops_.size();
      if (target == context_) {
        Adopt(target, fd);
      } else {
        target->loop.RunInLoop([target, fd]() { Adopt(target, fd); });
      }
    }
  }

 private:
  // On `context`'s loop thread. A connection handed over after the drain
  // began has sent nothing the server read, so it is closed unanswered.
  static void Adopt(LoopContext* context, int fd) {
    KJoinServer* server = context->server;
    if (server->draining_.load()) {
      ::close(fd);
      return;
    }
    auto connection = std::make_shared<Connection>(server, context, fd);
    Status added = context->loop.Add(fd, EPOLLIN, connection.get());
    if (!added.ok()) {
      ::close(fd);
      return;
    }
    context->connections[fd] = connection;
    server->active_connections_.fetch_add(1, std::memory_order_relaxed);
    Inc(server->connections_total_);
    if (server->active_connections_gauge_ != nullptr) {
      server->active_connections_gauge_->Set(server->active_connections());
    }
  }

  LoopContext* context_;
  size_t next_loop_ = 0;  // loop thread only
};

KJoinServer::KJoinServer(serve::ShardRouter* router, serve::ShardedIndexManager* manager,
                         ObjectBuilder* builder, MetricsRegistry* metrics,
                         ServerOptions options)
    : router_(router),
      manager_(manager),
      builder_(builder),
      metrics_(metrics),
      options_(std::move(options)) {
  KJOIN_CHECK(router_ != nullptr) << "KJoinServer needs a router";
  KJOIN_CHECK(builder_ != nullptr) << "KJoinServer needs an object builder";
  KJOIN_CHECK(options_.num_loops >= 1) << "num_loops must be >= 1";
  if (metrics_ != nullptr) {
    connections_total_ = metrics_->counter("net.connections");
    active_connections_gauge_ = metrics_->gauge("net.active_connections");
    bytes_read_ = metrics_->counter("net.bytes_read");
    bytes_written_ = metrics_->counter("net.bytes_written");
    frames_read_ = metrics_->counter("net.frames_read");
    frames_written_ = metrics_->counter("net.frames_written");
    protocol_errors_ = metrics_->counter("net.protocol_errors");
    backpressure_stalls_ = metrics_->counter("net.backpressure_stalls");
    idle_closed_ = metrics_->counter("net.idle_closed");
    requests_ = metrics_->counter("net.requests");
  }
}

KJoinServer::~KJoinServer() {
  if (started_.load() && !stopped_.load()) Shutdown();
  if (shutdown_fd_ >= 0) ::close(shutdown_fd_);
}

Status KJoinServer::StartListener(LoopContext* context) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return InternalError(std::string("socket failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError("bad bind address: " + options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return InternalError("bind(" + options_.bind_address + ":" +
                         std::to_string(options_.port) + ") failed: " + err);
  }
  // Resolve an ephemeral port.
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return InternalError("getsockname failed: " + err);
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(fd, 512) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return InternalError("listen failed: " + err);
  }
  context->listen_fd = fd;
  context->listener = std::make_unique<Listener>(context);
  return context->loop.Add(fd, EPOLLIN, context->listener.get());
}

Status KJoinServer::Start() {
  KJOIN_CHECK(!started_.load()) << "KJoinServer::Start called twice";
  shutdown_fd_ = ::eventfd(0, EFD_CLOEXEC);  // blocking: Wait() reads it
  if (shutdown_fd_ < 0) {
    return InternalError(std::string("eventfd failed: ") + std::strerror(errno));
  }
  loops_.reserve(static_cast<size_t>(options_.num_loops));
  for (int i = 0; i < options_.num_loops; ++i) {
    loops_.push_back(std::make_unique<LoopContext>(this));
    LoopContext* context = loops_.back().get();
    if (options_.idle_timeout_seconds > 0.0) {
      context->loop.SetTicker(
          std::min(1.0, options_.idle_timeout_seconds / 2.0), [this, context]() {
            const auto now = std::chrono::steady_clock::now();
            std::vector<std::shared_ptr<Connection>> idle;
            for (const auto& [fd, connection] : context->connections) {
              // In-flight work resets the clock when its response
              // flushes; only truly idle (or stuck mid-frame) peers go.
              if (connection->pending() == 0 &&
                  connection->idle_seconds(now) > options_.idle_timeout_seconds) {
                idle.push_back(connection);
              }
            }
            for (const auto& connection : idle) {
              Inc(idle_closed_);
              connection->Close();
            }
          });
    }
  }
  LoopContext* first = loops_.front().get();
  Status listening = StartListener(first);
  if (!listening.ok()) {
    if (first->listen_fd >= 0) ::close(first->listen_fd);
    loops_.clear();
    return listening;
  }
  const std::shared_ptr<const TokenDictionary> dictionary = builder_->Dictionary();
  published_tokens_ = dictionary->size();
  if (manager_ != nullptr) {
    // Tokens every shard already holds need no shipping.
    shipped_tokens_ = published_tokens_;
    for (int s = 0; s < manager_->num_shards(); ++s) {
      shipped_tokens_ = std::min<int64_t>(
          shipped_tokens_, static_cast<int64_t>(manager_->shard(s)->Acquire()->tokens.size()));
    }
  }
  for (auto& context : loops_) {
    context->dictionary = dictionary;
    context->thread = std::thread([loop = &context->loop]() { loop->Run(); });
  }
  writer_ = std::thread([this]() { WriterLoop(); });
  started_.store(true);
  return OkStatus();
}

void KJoinServer::RequestShutdown() {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(shutdown_fd_, &one, sizeof(one));
}

void KJoinServer::Wait() {
  if (!started_.load() || stopped_.load()) return;
  uint64_t count;
  while (::read(shutdown_fd_, &count, sizeof(count)) < 0 && errno == EINTR) {
  }
  Drain();
}

void KJoinServer::Shutdown() {
  RequestShutdown();
  Wait();
}

void KJoinServer::Drain() {
  if (stopped_.exchange(true)) return;
  draining_.store(true);
  // Stop accepting and stop reading; everything already read stays in
  // flight and gets its response.
  for (auto& context : loops_) {
    LoopContext* ctx = context.get();
    ctx->loop.RunInLoop([ctx]() {
      if (ctx->listen_fd >= 0) {
        ctx->loop.Remove(ctx->listen_fd);
        ::close(ctx->listen_fd);
        ctx->listen_fd = -1;
      }
      // StartDrain can Close (erasing from the map): snapshot first.
      std::vector<std::shared_ptr<Connection>> connections;
      connections.reserve(ctx->connections.size());
      for (const auto& [fd, connection] : ctx->connections) {
        connections.push_back(connection);
      }
      for (const auto& connection : connections) connection->StartDrain();
    });
  }
  // Searches were answered on the loops as they were read; in-flight
  // writes finish on the writer thread and flush back through the loops.
  // Connections self-close when owed nothing. Bounded wait, then
  // force-close the stragglers.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                std::max(0.0, options_.drain_deadline_seconds)));
  while (active_connections() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (active_connections() > 0) {
    KJOIN_LOG(WARNING) << "drain deadline: force-closing " << active_connections()
                       << " connection(s)";
    for (auto& context : loops_) {
      LoopContext* ctx = context.get();
      ctx->loop.RunInLoop([ctx]() {
        std::vector<std::shared_ptr<Connection>> connections;
        connections.reserve(ctx->connections.size());
        for (const auto& [fd, connection] : ctx->connections) {
          connections.push_back(connection);
        }
        for (const auto& connection : connections) connection->Close();
      });
    }
    const auto force_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (active_connections() > 0 && std::chrono::steady_clock::now() < force_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    writer_shutdown_ = true;
  }
  writer_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  for (auto& context : loops_) {
    context->loop.Stop();
    if (context->thread.joinable()) context->thread.join();
  }
}

void KJoinServer::HandleRequest(const std::shared_ptr<Connection>& connection,
                                NetRequest request) {
  Inc(requests_);
  switch (request.kind) {
    case RequestKind::kSearch:
    case RequestKind::kTopK:
      connection->SendResponse(HandleSearch(request, connection->dictionary()));
      return;
    case RequestKind::kInsert:
    case RequestKind::kDelete: {
      if (manager_ == nullptr) {
        connection->SendResponse(ResponseFromStatus(
            request.id, UnavailableError("server has no index manager (search-only)")));
        return;
      }
      connection->BeginPending();
      {
        std::lock_guard<std::mutex> lock(writer_mu_);
        writer_queue_.push_back(Mutation{std::move(request), connection});
      }
      writer_cv_.notify_one();
      return;
    }
    case RequestKind::kHealth:
      connection->SendResponse(HandleHealth(request));
      return;
    case RequestKind::kMetrics:
      connection->SendResponse(HandleMetrics(request));
      return;
  }
}

NetResponse KJoinServer::HandleSearch(const NetRequest& request,
                                      const TokenDictionary& dictionary) {
  // Read-only build against this loop's dictionary: no lock, and unseen
  // tokens get token_id = -1 instead of joining the token table.
  serve::QueryRequest query;
  query.query = builder_->BuildQuery(0, request.query_tokens, dictionary);
  query.top_k = request.kind == RequestKind::kTopK ? request.top_k : 0;
  query.min_similarity = request.min_similarity;
  // Wire deadline 0 = none; the router treats < 0 as "apply default",
  // and its default is none unless configured.
  query.deadline_seconds =
      request.deadline_ms == 0 ? -1.0 : static_cast<double>(request.deadline_ms) / 1e3;
  serve::QueryResponse result = router_->Search(query);
  NetResponse response = ResponseFromStatus(request.id, result.status);
  response.hits = std::move(result.hits);
  response.epoch_version = result.epoch_version;
  return response;
}

void KJoinServer::WriterLoop() {
  while (true) {
    Mutation mutation;
    {
      std::unique_lock<std::mutex> lock(writer_mu_);
      writer_cv_.wait(lock,
                      [this]() { return writer_shutdown_ || !writer_queue_.empty(); });
      if (writer_queue_.empty()) return;  // shutdown with a drained queue
      mutation = std::move(writer_queue_.front());
      writer_queue_.pop_front();
    }
    const NetResponse response = mutation.request.kind == RequestKind::kInsert
                                     ? HandleInsert(mutation.request)
                                     : HandleDelete(mutation.request);
    std::shared_ptr<Connection> connection = mutation.connection.lock();
    if (connection == nullptr) continue;
    std::string frame = WrapFrame(EncodeResponsePayload(response));
    std::weak_ptr<Connection> weak = mutation.connection;
    connection->loop()->RunInLoop([weak, frame = std::move(frame)]() mutable {
      if (std::shared_ptr<Connection> conn = weak.lock()) {
        conn->CompleteResponse(std::move(frame));
      }
    });
  }
}

NetResponse KJoinServer::HandleInsert(const NetRequest& request) {
  std::vector<Object> objects;
  objects.reserve(request.inserts.size());
  for (const InsertRecord& record : request.inserts) {
    objects.push_back(builder_->Build(record.external_id, record.tokens));
  }
  // Ship the table only when it grew past the last one the manager
  // accepted (an empty table means "no extension"). Comparing against the
  // last accepted table, not this batch's interning, re-ships tokens a
  // failed insert interned before a later batch can use them.
  const int64_t table_size = builder_->num_distinct_tokens();
  std::vector<std::string> tokens;
  if (table_size > shipped_tokens_) tokens = builder_->TokenTable();
  const Status status = manager_->InsertBatch(std::move(objects), std::move(tokens));
  if (status.ok()) shipped_tokens_ = std::max(shipped_tokens_, table_size);
  if (table_size > published_tokens_) {
    // Hand every loop the grown dictionary. Queries still built against
    // the old one stay correct: LocalShard re-resolves their unknown
    // tokens against the epoch's longer table.
    const std::shared_ptr<const TokenDictionary> dictionary = builder_->Dictionary();
    published_tokens_ = dictionary->size();
    for (auto& context : loops_) {
      LoopContext* ctx = context.get();
      ctx->loop.RunInLoop([ctx, dictionary]() { ctx->dictionary = dictionary; });
    }
  }
  NetResponse response = ResponseFromStatus(request.id, status);
  if (status.ok()) response.objects_after_insert = manager_->num_objects();
  return response;
}

NetResponse KJoinServer::HandleDelete(const NetRequest& request) {
  const Status status = manager_->DeleteObjects(request.delete_indexes);
  NetResponse response = ResponseFromStatus(request.id, status);
  if (status.ok()) response.objects_after_insert = manager_->num_objects();
  return response;
}

NetResponse KJoinServer::HandleHealth(const NetRequest& request) {
  NetResponse response = ResponseFromStatus(request.id, OkStatus());
  serve::ManagerHealth health;
  int64_t objects = 0;
  if (manager_ != nullptr) {
    health = manager_->HealthSnapshot();
    objects = manager_->num_objects();
  }
  response.text = std::string("state=") + std::string(HealthStateName(health.state)) +
                  " consecutive_wal_failures=" +
                  std::to_string(health.consecutive_wal_failures) +
                  " read_only_trips=" + std::to_string(health.read_only_trips) +
                  " recoveries=" + std::to_string(health.recoveries) +
                  " objects=" + std::to_string(objects) +
                  " active_connections=" + std::to_string(active_connections());
  return response;
}

NetResponse KJoinServer::HandleMetrics(const NetRequest& request) {
  NetResponse response = ResponseFromStatus(request.id, OkStatus());
  response.text = metrics_ != nullptr ? metrics_->ToJson() : "{}";
  return response;
}

}  // namespace kjoin::net
