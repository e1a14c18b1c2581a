#ifndef KJOIN_NET_SERVER_H_
#define KJOIN_NET_SERVER_H_

// KJoinServer — the network front end: N epoll event loops (net/
// event_loop.h) accepting KJNP-framed requests (net/protocol.h) and
// dispatching them into the existing serving stack — searches through
// ShardRouter::Search on the loop that decoded them; mutations through a
// dedicated writer thread into ShardedIndexManager; health and metrics
// inline.
//
// Threading model:
//   * The first loop owns the one listener and hands the k-th accepted
//     connection to loop k mod N, which owns it from then on. Connection
//     state is loop-confined — no per-connection locks. Placement
//     depends only on arrival order, so N clients that connect one after
//     another on N loops run their searches concurrently every time.
//   * A search runs on its connection's loop thread: the loop builds the
//     query, calls ShardRouter::Search (which scatters the shards over
//     the pool, the loop thread running its own share), encodes the reply
//     and queues it. Searches on one loop therefore run one after
//     another; searches on different loops run concurrently, so at most
//     N run at once whatever the clients send — that is the server's
//     overload bound, with no cap or option behind it. A readable
//     connection gets one 64 KiB recv per turn, its frames answered
//     before the loop moves on, so a client that keeps its socket full
//     cannot hold the loop from the other connections on it.
//   * Inserts and deletes run on one writer thread, which serializes
//     them (the manager's numbering contract wants ordered mutations)
//     and keeps WAL fsyncs off the event loops. The writer is the only
//     thread that interns tokens (ObjectBuilder::Build); its responses
//     hop back to the owning loop via RunInLoop.
//   * Queries never intern and take no lock: each loop builds its
//     queries with ObjectBuilder::BuildQuery against an immutable
//     TokenDictionary it owns. After an insert interns new tokens the
//     writer publishes a new dictionary and hands it to every loop via
//     RunInLoop. A query built against an older dictionary carries
//     token_id = -1 for tokens it has not seen plus the dictionary's
//     size; LocalShard re-resolves those against the probed epoch's
//     longer token table, so answers never depend on which dictionary a
//     loop held. Client query tokens therefore never grow the token
//     table, the WAL or server memory.
//
// Backpressure: when a connection's write buffer exceeds
// write_buffer_cap_bytes the server stops reading from it (drops
// EPOLLIN interest) until the buffer drains below half the cap. A
// client that stops reading its responses therefore stalls itself, not
// the server (net.backpressure_stalls counts the transitions). Frames
// are answered as they are decoded, so the check runs after each reply:
// the buffer can pass the cap by at most the replies to the frames of
// one 64 KiB recv before reads stop. A connection also stops decoding
// and reading while it has 32 writes handed to the writer thread and
// unanswered, so one pipelining client cannot grow the writer queue
// without bound.
//
// Graceful drain: RequestShutdown() is async-signal-safe (one eventfd
// write — call it straight from a SIGTERM handler). Wait() then stops
// accepting, stops reading from every connection, lets in-flight
// requests finish and their responses flush, and force-closes whatever
// remains at drain_deadline_seconds. Every request that was fully read
// before the drain began gets its response — the "zero dropped acked
// requests" contract tests/net_test.cc locks in.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/object.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "serve/shard_router.h"
#include "serve/sharded_index_manager.h"

namespace kjoin::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  // 0 = pick an ephemeral port (read it back with port()).
  int port = 0;
  // Event loops; the first also accepts, and hands connections to the
  // loops in turn.
  int num_loops = 1;
  uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Write-buffer level above which the server stops reading from the
  // connection (resumes below half of it).
  size_t write_buffer_cap_bytes = 4u << 20;
  // Connections with no traffic for this long are closed (slow-loris
  // defense); <= 0 disables the sweep.
  double idle_timeout_seconds = 0.0;
  // Wait() force-closes connections still busy this long after the
  // drain began.
  double drain_deadline_seconds = 5.0;
};

class Connection;
class Listener;
struct LoopContext;

class KJoinServer {
 public:
  // All pointers are borrowed and must outlive the server. `manager`
  // may be null (a search-only server: INSERT/DELETE answer
  // kUnavailable); `metrics` may be null. `builder` is the server's
  // token authority: from Start() until the server stops, only the
  // writer thread interns through it (inserts), while loop threads call
  // its const BuildQuery. The caller must not use it meanwhile.
  KJoinServer(serve::ShardRouter* router, serve::ShardedIndexManager* manager,
              ObjectBuilder* builder, MetricsRegistry* metrics, ServerOptions options = {});
  ~KJoinServer();

  KJoinServer(const KJoinServer&) = delete;
  KJoinServer& operator=(const KJoinServer&) = delete;

  // Binds, listens, and starts the loop + writer threads. The listening
  // port is final (port()) when Start returns OK.
  Status Start();

  // Async-signal-safe shutdown trigger (eventfd write).
  void RequestShutdown();

  // Blocks until RequestShutdown(), then drains (see header comment)
  // and joins every thread. Returns once the server is fully stopped.
  void Wait();

  // RequestShutdown() + Wait() for callers not driving from a signal.
  void Shutdown();

  int port() const { return port_; }
  int64_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

 private:
  friend class Connection;
  friend class Listener;

  Status StartListener(LoopContext* context);
  void Drain();

  // Request dispatch (called from loop threads via Connection).
  void HandleRequest(const std::shared_ptr<Connection>& connection, NetRequest request);
  void WriterLoop();

  // Builds the query against `dictionary` (the calling loop's) and runs
  // it through the router on the calling loop thread.
  NetResponse HandleSearch(const NetRequest& request, const TokenDictionary& dictionary);
  NetResponse HandleInsert(const NetRequest& request);
  NetResponse HandleDelete(const NetRequest& request);
  NetResponse HandleHealth(const NetRequest& request);
  NetResponse HandleMetrics(const NetRequest& request);

  serve::ShardRouter* router_;
  serve::ShardedIndexManager* manager_;
  ObjectBuilder* builder_;
  MetricsRegistry* metrics_;
  ServerOptions options_;

  // Writer-thread state (set once by Start before the writer runs):
  // token-table sizes last accepted by the manager and last handed to
  // the loops as a dictionary.
  int64_t shipped_tokens_ = 0;
  int64_t published_tokens_ = 0;

  std::vector<std::unique_ptr<LoopContext>> loops_;
  int port_ = 0;
  int shutdown_fd_ = -1;  // eventfd: RequestShutdown -> Wait
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int64_t> active_connections_{0};

  // Writer thread: serialized mutations (INSERT / DELETE).
  struct Mutation {
    NetRequest request;
    std::weak_ptr<Connection> connection;
  };
  std::mutex writer_mu_;
  std::condition_variable writer_cv_;
  std::deque<Mutation> writer_queue_;  // guarded by writer_mu_
  bool writer_shutdown_ = false;       // guarded by writer_mu_
  std::thread writer_;

  // net.* metrics, resolved once (null registry => all null).
  Counter* connections_total_ = nullptr;
  Gauge* active_connections_gauge_ = nullptr;
  Counter* bytes_read_ = nullptr;
  Counter* bytes_written_ = nullptr;
  Counter* frames_read_ = nullptr;
  Counter* frames_written_ = nullptr;
  Counter* protocol_errors_ = nullptr;
  Counter* backpressure_stalls_ = nullptr;
  Counter* idle_closed_ = nullptr;
  Counter* requests_ = nullptr;
};

}  // namespace kjoin::net

#endif  // KJOIN_NET_SERVER_H_
