#ifndef KJOIN_SERVE_WIRE_FORMAT_H_
#define KJOIN_SERVE_WIRE_FORMAT_H_

// Byte-level encoding shared by the serving-layer binary formats: the
// index snapshot (serve/snapshot.h) and the write-ahead log
// (serve/wal.h). Scalars are written little-endian by explicit shifts;
// bulk arrays go through memcpy in host layout (both formats are
// same-architecture serving artifacts, not interchange formats).
//
// Readers are bounds-checked: every overrun is reported as kDataLoss
// with the reader's label and byte offset; no read ever touches memory
// past the payload. Parsers validate all structural invariants (id
// ranges, monotonicity) so even a forged-CRC payload cannot index out
// of bounds.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/object.h"

namespace kjoin::serve {

// CRC32 (IEEE 802.3, the zlib polynomial) of `bytes`. Exposed so tests
// can forge and break checksums deliberately.
uint32_t Crc32(std::string_view bytes);

// Token ids are append-only interned (ObjectBuilder::InternToken), so a
// valid updated table must contain `current` as an exact prefix. Returns
// kInvalidArgument naming the first divergence — a shrinking table or a
// rewritten entry would silently re-map ids already baked into indexed
// objects. `context` labels the error message.
Status ValidateTokenExtension(const std::vector<std::string>& current,
                              const std::vector<std::string>& incoming,
                              std::string_view context);

namespace wire {

class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Little(v, 4); }
  void U64(uint64_t v) { Little(v, 8); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }
  // Tolerates data == nullptr when n == 0 (an empty vector's data()).
  void Raw(const void* data, size_t n) {
    if (n > 0) out_.append(static_cast<const char*>(data), n);
  }
  template <typename T>
  void RawVec(const std::vector<T>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(T));
  }

  std::string Take() { return std::move(out_); }

 private:
  void Little(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }

  std::string out_;
};

// Bounds-checked reads over one payload. Every overrun is reported as
// kDataLoss with the label and byte offset.
class ByteReader {
 public:
  ByteReader(std::string_view data, std::string label)
      : data_(data), label_(std::move(label)) {}

  uint64_t offset() const { return pos_; }
  uint64_t remaining() const { return data_.size() - pos_; }
  const std::string& label() const { return label_; }

  Status U8(uint8_t* v) {
    KJOIN_RETURN_IF_ERROR(Need(1));
    *v = static_cast<uint8_t>(data_[pos_++]);
    return OkStatus();
  }
  Status U32(uint32_t* v) {
    uint64_t wide;
    KJOIN_RETURN_IF_ERROR(Little(4, &wide));
    *v = static_cast<uint32_t>(wide);
    return OkStatus();
  }
  Status U64(uint64_t* v) { return Little(8, v); }
  Status I32(int32_t* v) {
    uint32_t u;
    KJOIN_RETURN_IF_ERROR(U32(&u));
    *v = static_cast<int32_t>(u);
    return OkStatus();
  }
  Status I64(int64_t* v) {
    uint64_t u;
    KJOIN_RETURN_IF_ERROR(U64(&u));
    *v = static_cast<int64_t>(u);
    return OkStatus();
  }
  Status F64(double* v) {
    uint64_t bits;
    KJOIN_RETURN_IF_ERROR(U64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return OkStatus();
  }
  Status Str(std::string* out) {
    uint32_t len;
    KJOIN_RETURN_IF_ERROR(U32(&len));
    KJOIN_RETURN_IF_ERROR(Need(len));
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return OkStatus();
  }
  Status Bytes(void* dst, uint64_t n) {
    KJOIN_RETURN_IF_ERROR(Need(n));
    // n == 0 arrives with dst == nullptr from an empty RawVec; memcpy's
    // contract (and UBSan) forbids the null even for zero bytes.
    if (n > 0) std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return OkStatus();
  }
  // Length-prefixed bulk array. The count is checked against the bytes
  // actually left before the resize, so a corrupt length can never drive
  // a multi-gigabyte allocation.
  template <typename T>
  Status RawVec(std::vector<T>* out) {
    uint64_t count;
    KJOIN_RETURN_IF_ERROR(U64(&count));
    if (count > remaining() / sizeof(T)) {
      return DataLossError(label_ + ": array of " + std::to_string(count) +
                           " elements does not fit in the " + std::to_string(remaining()) +
                           " bytes left at offset " + std::to_string(pos_));
    }
    out->resize(count);
    return Bytes(out->data(), count * sizeof(T));
  }

  // Remaining payload must be fully consumed — trailing garbage means the
  // writer and reader disagree about the layout.
  Status ExpectEnd() const {
    if (remaining() != 0) {
      return DataLossError(label_ + ": " + std::to_string(remaining()) +
                           " unexpected trailing bytes");
    }
    return OkStatus();
  }

 private:
  Status Little(int bytes, uint64_t* v) {
    KJOIN_RETURN_IF_ERROR(Need(bytes));
    uint64_t out = 0;
    for (int i = 0; i < bytes; ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += bytes;
    *v = out;
    return OkStatus();
  }

  Status Need(uint64_t n) {
    if (remaining() < n) {
      return DataLossError(label_ + ": truncated at offset " + std::to_string(pos_) +
                           " (need " + std::to_string(n) + " bytes, have " +
                           std::to_string(remaining()) + ")");
    }
    return OkStatus();
  }

  std::string_view data_;
  uint64_t pos_ = 0;
  std::string label_;
};

// Length-prefixed list of length-prefixed strings.
void WriteStringList(const std::vector<std::string>& strings, ByteWriter* w);
// Reads what WriteStringList wrote. With `reject_duplicates`, a repeated
// string returns kInvalidArgument — interner tables feed
// ObjectBuilder::PreloadTokens, whose interner CHECK-fails on a repeat.
Status ParseStringList(ByteReader& r, bool reject_duplicates,
                       std::vector<std::string>* out);

// Object collections (snapshot OBJS section, WAL insert batches).
// Interned tokens are stored as ids and restored from `tokens`; the rare
// hand-built element without an id carries its surface form inline.
void WriteObjectList(const std::vector<Object>& objects, ByteWriter* w);
// Structural validation while copying: token ids resolved against
// `tokens`, mapping nodes bounded by `num_nodes`, phi finite in [0, 1]
// and sorted descending.
Status ParseObjectList(ByteReader& r, const std::vector<std::string>& tokens,
                       int64_t num_nodes, std::vector<Object>* out);

}  // namespace wire
}  // namespace kjoin::serve

#endif  // KJOIN_SERVE_WIRE_FORMAT_H_
