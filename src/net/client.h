#ifndef KJOIN_NET_CLIENT_H_
#define KJOIN_NET_CLIENT_H_

// KJoinClient — a blocking-socket KJNP client with a reader thread, so
// one connection supports both synchronous Call() and pipelined
// CallAsync() (many requests in flight, responses matched by id).
//
// Thread safety: all public methods may be called concurrently. Writes
// serialize on a mutex (a frame is written atomically); the reader
// thread dispatches responses by id. When the connection drops — peer
// close, read error, or a framing violation — every in-flight call
// fails with kUnavailable and the client can Connect() again (fresh
// socket, fresh decoder; ids keep increasing so late responses from a
// previous connection can never match a new call).
//
// A Call's StatusOr layering: the outer Status is transport health
// (send failed, connection lost, frame corrupt); the inner
// NetResponse::code is the server's verdict (read-only, deadline, ...).
// A write rejected by a read-only index is a *successful* Call carrying
// a non-OK code plus its retry_after_ms hint.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"

namespace kjoin::net {

struct ClientOptions {
  uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class KJoinClient {
 public:
  explicit KJoinClient(ClientOptions options = {});
  ~KJoinClient();

  KJoinClient(const KJoinClient&) = delete;
  KJoinClient& operator=(const KJoinClient&) = delete;

  // Connects to `address:port`. Fails if already connected.
  Status Connect(const std::string& address, int port);
  // Severs the connection; in-flight calls fail with kUnavailable.
  // Idempotent. Connect() may be called again afterwards.
  void Disconnect();
  bool connected() const;

  // Synchronous round trip. The request's id is overwritten with a
  // client-assigned one (unique across reconnects).
  StatusOr<NetResponse> Call(NetRequest request);

  // Pipelined: returns once the frame is written; `done` fires on the
  // reader thread when the response arrives, or with kUnavailable if
  // the connection drops first. A send failure invokes `done` inline.
  void CallAsync(NetRequest request, std::function<void(StatusOr<NetResponse>)> done);

  // Convenience wrappers over Call().
  StatusOr<NetResponse> Search(std::vector<std::string> tokens,
                               double min_similarity = -1.0, uint64_t deadline_ms = 0);
  StatusOr<NetResponse> TopK(std::vector<std::string> tokens, int32_t k,
                             double min_similarity = -1.0, uint64_t deadline_ms = 0);
  StatusOr<NetResponse> Insert(std::vector<InsertRecord> records);
  StatusOr<NetResponse> Delete(std::vector<int32_t> global_indexes);
  StatusOr<NetResponse> Health();
  StatusOr<NetResponse> Metrics();

 private:
  void ReaderLoop(int fd);
  // Fails every pending call with `status` and forgets them.
  void FailAllPending(const Status& status);
  Status SendFrame(const std::string& frame);

  ClientOptions options_;

  mutable std::mutex mu_;
  int fd_ = -1;                 // guarded by mu_ (reader holds its own copy)
  // A dead connection's fd, closed only after its reader is joined —
  // senders may still hold the descriptor, and closing early would let
  // the kernel reuse the number under them.
  int dead_fd_ = -1;            // guarded by mu_
  uint64_t next_id_ = 1;        // guarded by mu_
  std::map<uint64_t, std::function<void(StatusOr<NetResponse>)>> pending_;  // guarded by mu_
  std::thread reader_;          // guarded by mu_ for start/join

  std::mutex write_mu_;  // serializes whole-frame writes
};

}  // namespace kjoin::net

#endif  // KJOIN_NET_CLIENT_H_
