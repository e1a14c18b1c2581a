#ifndef KJOIN_NET_PROTOCOL_H_
#define KJOIN_NET_PROTOCOL_H_

// KJNP — the K-Join network protocol: a CRC-framed binary request/
// response format for the epoll serving tier (net/server.h).
//
// Frame layout (all integers little-endian, same ByteWriter/ByteReader
// primitives as the snapshot and WAL formats in serve/wire_format.h):
//
//   offset  size  field
//   0       4     magic "KJNP"
//   4       4     u32 CRC32 of the payload bytes (IEEE 802.3)
//   8       8     u64 payload size in bytes
//   16      n     payload
//
// A frame carries either a request or a response payload; direction
// decides which (clients write requests, servers write responses).
//
// Request payload:
//   u64 id            — caller-chosen, echoed verbatim in the response;
//                       lets clients pipeline and match out of order
//   u8  kind          — RequestKind
//   u64 deadline_ms   — query budget in milliseconds; 0 = no deadline
//   ... kind-specific body (see NetRequest)
//
// Response payload:
//   u64 id            — echo of the request id
//   u32 code          — StatusCode numeric value (kOk = 0)
//   i64 retry_after_ms— backoff hint for read-only write rejections
//                       (lifted from the Status message by
//                       serve::RetryAfterMs); 0 = no hint
//   str message       — human-readable status message ("" when ok)
//   ... kind-specific body (see NetResponse)
//
// Corruption handling: a frame whose magic, size, or CRC is wrong is a
// stream-level error — the connection is poisoned and must be closed
// (FrameDecoder returns kDataLoss and refuses further input). A frame
// that passes the CRC but whose payload fails structural decode is a
// request-level error — the server answers kInvalidArgument if it
// recovered the id, else closes.
//
// Queries travel as token strings, not interned token ids: the server
// and client intern independently, and similarity depends only on the
// string identity of tokens within one builder, so results are
// byte-identical to an in-process call on the same index.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/kjoin_index.h"

namespace kjoin::net {

inline constexpr char kFrameMagic[4] = {'K', 'J', 'N', 'P'};
inline constexpr size_t kFrameHeaderBytes = 16;
// Frames above this are rejected before buffering the payload, so a
// corrupt or hostile size field can never drive a giant allocation.
inline constexpr uint64_t kDefaultMaxFrameBytes = 16ull << 20;

enum class RequestKind : uint8_t {
  kSearch = 1,   // threshold search: min_similarity + query tokens
  kTopK = 2,     // top-k search: adds i32 k
  kInsert = 3,   // batch insert: records of {external id, tokens}
  kDelete = 4,   // delete by global object index
  kHealth = 5,   // manager health snapshot (text body)
  kMetrics = 6,  // metrics registry JSON export (text body)
};

bool IsValidRequestKind(uint8_t raw);
std::string_view RequestKindName(RequestKind kind);

struct InsertRecord {
  int32_t external_id = 0;
  std::vector<std::string> tokens;
};

struct NetRequest {
  uint64_t id = 0;
  RequestKind kind = RequestKind::kHealth;
  uint64_t deadline_ms = 0;  // 0 = no deadline

  // kSearch / kTopK
  double min_similarity = -1.0;
  int32_t top_k = 0;  // kTopK only
  std::vector<std::string> query_tokens;

  // kInsert
  std::vector<InsertRecord> inserts;

  // kDelete
  std::vector<int32_t> delete_indexes;
};

struct NetResponse {
  uint64_t id = 0;
  uint32_t code = 0;  // StatusCode numeric value
  int64_t retry_after_ms = 0;
  std::string message;

  // kSearch / kTopK
  std::vector<SearchHit> hits;
  int64_t epoch_version = 0;

  // kInsert
  int64_t objects_after_insert = 0;

  // kHealth / kMetrics
  std::string text;
};

// Payload encode/decode (no frame header; see WrapFrame). Decoders
// validate structure and counts; a failure is kDataLoss (truncation /
// layout mismatch) or kInvalidArgument (bad kind, bad counts).
std::string EncodeRequestPayload(const NetRequest& request);
Status DecodeRequestPayload(std::string_view payload, NetRequest* out);

std::string EncodeResponsePayload(const NetResponse& response);
Status DecodeResponsePayload(std::string_view payload, NetResponse* out);

// Prepends the 16-byte frame header (magic, CRC, size) to `payload`.
std::string WrapFrame(std::string_view payload);

// Convenience: build a response carrying `status` (code, message, and
// the retry_after_ms hint lifted out of the message) echoing `id`.
NetResponse ResponseFromStatus(uint64_t id, const Status& status);

// Incremental frame assembly over an arbitrary byte stream. Feed
// whatever the socket produced; completed payloads come out in order.
//
//   decoder.Append(data, n);
//   while (true) {
//     std::string payload;
//     StatusOr<bool> got = decoder.Next(&payload);   // false = need more
//     ...
//   }
//
// Any framing violation (bad magic, oversized frame, CRC mismatch)
// poisons the decoder: Next returns the same error forever and Append
// becomes a no-op. The transport must close the connection — after a
// framing error the stream offset is untrustworthy, so there is no
// resynchronization.
class FrameDecoder {
 public:
  explicit FrameDecoder(uint64_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Append(const char* data, size_t n);

  // True and fills `*payload` when a complete, CRC-verified frame was
  // buffered; false when more bytes are needed. Errors are permanent.
  StatusOr<bool> Next(std::string* payload);

  bool poisoned() const { return !error_.ok(); }
  // Bytes buffered but not yet returned (partial frame).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  uint64_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already handed out
  Status error_;
};

}  // namespace kjoin::net

#endif  // KJOIN_NET_PROTOCOL_H_
