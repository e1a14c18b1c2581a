#include "serve/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "serve/fs_util.h"
#include "serve/wire_format.h"

namespace kjoin::serve {
namespace {

constexpr uint32_t kWalMagic = static_cast<uint32_t>('K') | static_cast<uint32_t>('J') << 8 |
                               static_cast<uint32_t>('W') << 16 |
                               static_cast<uint32_t>('L') << 24;

uint32_t LoadU32(std::string_view bytes, uint64_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[at + i])) << (8 * i);
  }
  return v;
}

uint64_t LoadU64(std::string_view bytes, uint64_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[at + i])) << (8 * i);
  }
  return v;
}

std::string HeaderBytes() {
  wire::ByteWriter w;
  w.U32(kWalMagic);
  w.U32(kWalFormatVersion);
  return w.Take();
}

Status CheckHeader(std::string_view bytes, const std::string& path) {
  const uint32_t magic = LoadU32(bytes, 0);
  const uint32_t version = LoadU32(bytes, 4);
  if (magic != kWalMagic) {
    return InvalidArgumentError(path + ": not a K-Join write-ahead log (bad magic)");
  }
  if (version != kWalFormatVersion) {
    return InvalidArgumentError(path + ": WAL format version " + std::to_string(version) +
                                "; this build reads version " +
                                std::to_string(kWalFormatVersion));
  }
  return OkStatus();
}

// The intact frame prefix of a log file: everything up to the first
// frame that is truncated, oversized or fails its CRC.
struct FrameScan {
  std::vector<std::string_view> payloads;  // views into the scanned bytes
  std::vector<uint64_t> frame_offsets;     // where each frame starts
  uint64_t valid_bytes = kWalHeaderBytes;
  bool torn = false;
};

FrameScan ScanFrames(std::string_view bytes) {
  FrameScan scan;
  uint64_t pos = kWalHeaderBytes;
  while (bytes.size() - pos >= kWalFrameBytes) {
    const uint32_t crc = LoadU32(bytes, pos);
    const uint64_t size = LoadU64(bytes, pos + 4);
    if (size > bytes.size() - pos - kWalFrameBytes) break;
    const std::string_view payload = bytes.substr(pos + kWalFrameBytes, size);
    if (Crc32(payload) != crc) break;
    scan.payloads.push_back(payload);
    scan.frame_offsets.push_back(pos);
    pos += kWalFrameBytes + size;
    scan.valid_bytes = pos;
  }
  scan.torn = scan.valid_bytes < bytes.size();
  return scan;
}

StatusOr<std::string> ReadAll(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    const int err = errno;
    return NotFoundError("cannot open WAL: " + path + ": " + std::strerror(err));
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return DataLossError("read failed: " + path + ": " + std::strerror(err));
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

bool WriteFull(int fd, uint64_t offset, std::string_view bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::pwrite(fd, bytes.data() + done, bytes.size() - done, static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

std::string SerializeRecord(const WalRecord& record) {
  wire::ByteWriter payload;
  payload.I64(record.sequence);
  if (record.token_suffix.empty()) {
    payload.U8(0);
  } else {
    payload.U8(1);
    payload.U64(static_cast<uint64_t>(record.token_base));
    wire::WriteStringList(record.token_suffix, &payload);
  }
  payload.RawVec(record.deletes);
  wire::WriteObjectList(record.objects, &payload);
  const std::string payload_bytes = payload.Take();

  wire::ByteWriter frame;
  frame.U32(Crc32(payload_bytes));
  frame.U64(payload_bytes.size());
  std::string out = frame.Take();
  out += payload_bytes;
  return out;
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string path, Options options, int fd, uint64_t end_offset)
    : path_(std::move(path)), options_(options), fd_(fd), end_offset_(end_offset) {}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(const std::string& path,
                                                             Options options) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    const int err = errno;
    return NotFoundError("cannot open WAL for appending: " + path + ": " +
                         std::strerror(err));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return DataLossError("cannot stat WAL: " + path + ": " + std::strerror(err));
  }
  uint64_t end = static_cast<uint64_t>(st.st_size);
  if (end < kWalHeaderBytes) {
    // New, empty, or a header torn by a crash during creation: start over.
    const std::string header = HeaderBytes();
    if (!WriteFull(fd, 0, header) || ::ftruncate(fd, kWalHeaderBytes) != 0 ||
        ::fsync(fd) != 0) {
      ::close(fd);
      return DataLossError("cannot initialize WAL: " + path);
    }
    end = kWalHeaderBytes;
  } else {
    StatusOr<std::string> bytes = ReadAll(path);
    if (!bytes.ok()) {
      ::close(fd);
      return bytes.status();
    }
    const Status header_ok = CheckHeader(*bytes, path);
    if (!header_ok.ok()) {
      ::close(fd);
      return header_ok;
    }
    const FrameScan scan = ScanFrames(*bytes);
    if (scan.torn) {
      // Drop the torn tail so new records extend the intact prefix.
      if (::ftruncate(fd, static_cast<off_t>(scan.valid_bytes)) != 0 || ::fsync(fd) != 0) {
        ::close(fd);
        return DataLossError("cannot truncate torn WAL tail: " + path);
      }
      KJOIN_LOG(WARNING) << "WAL " << path << " had a torn tail; truncated "
                         << (end - scan.valid_bytes) << " bytes";
      end = scan.valid_bytes;
    }
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(path, options, fd, end));
}

StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(const std::string& path) {
  return Open(path, Options());
}

Status WriteAheadLog::EnsureOpen() {
  if (fd_ >= 0) return OkStatus();
  const int fd = ::open(path_.c_str(), O_RDWR);
  if (fd < 0) {
    return DataLossError("cannot reopen WAL: " + path_ + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return DataLossError("cannot stat reopened WAL: " + path_ + ": " +
                         std::strerror(err));
  }
  // The handle is only ever dropped right after Truncate fully rewrote
  // the file, so its size is an intact frame boundary.
  fd_ = fd;
  end_offset_ = static_cast<uint64_t>(st.st_size);
  return OkStatus();
}

Status WriteAheadLog::Append(const WalRecord& record) {
  if (KJOIN_FAULT_POINT("serve/wal_append")) {
    return DataLossError("injected WAL append failure: " + path_);
  }
  KJOIN_RETURN_IF_ERROR(EnsureOpen());
  const std::string frame = SerializeRecord(record);
  std::string error;
  if (!WriteFull(fd_, end_offset_, frame)) {
    error = "WAL append write failed: " + path_ + ": " + std::strerror(errno);
  } else if (KJOIN_FAULT_POINT("serve/wal_fsync")) {
    error = "injected WAL fsync failure: " + path_;
  } else if (options_.fsync && ::fsync(fd_) != 0) {
    error = "WAL fsync failed: " + path_ + ": " + std::strerror(errno);
  } else if (dir_sync_pending_) {
    // A Truncate rename is still not directory-durable: a crash could
    // roll the log (and this record with it) back, so the record may not
    // be acked until the entry is pinned down.
    const Status dir_synced = FsyncDir(DirName(path_));
    if (dir_synced.ok()) {
      dir_sync_pending_ = false;
    } else {
      error = "WAL directory entry still not durable: " + path_ + ": " +
              dir_synced.message();
    }
  }
  if (!error.empty()) {
    // Roll back so the record is never half-durable: a later replay must
    // not resurrect a batch the caller was told failed.
    if (::ftruncate(fd_, static_cast<off_t>(end_offset_)) != 0) {
      KJOIN_LOG(ERROR) << "WAL rollback ftruncate failed for " << path_
                       << "; next Open() will drop the torn tail";
    } else if (options_.fsync) {
      ::fsync(fd_);
    }
    return DataLossError(error);
  }
  end_offset_ += frame.size();
  return OkStatus();
}

Status WriteAheadLog::Probe() {
  if (KJOIN_FAULT_POINT("serve/wal_append")) {
    return DataLossError("injected WAL append failure (probe): " + path_);
  }
  KJOIN_RETURN_IF_ERROR(EnsureOpen());
  const char byte = 0;
  std::string error;
  if (!WriteFull(fd_, end_offset_, std::string_view(&byte, 1))) {
    error = "WAL probe write failed: " + path_ + ": " + std::strerror(errno);
  } else if (KJOIN_FAULT_POINT("serve/wal_fsync")) {
    error = "injected WAL fsync failure (probe): " + path_;
  } else if (options_.fsync && ::fsync(fd_) != 0) {
    error = "WAL probe fsync failed: " + path_ + ": " + std::strerror(errno);
  }
  // Take the probe byte back off whether or not it made it to disk; a
  // leftover byte is just a torn tail the next Open()/Replay drops.
  if (::ftruncate(fd_, static_cast<off_t>(end_offset_)) != 0) {
    if (error.empty()) {
      error = "WAL probe truncate failed: " + path_ + ": " + std::strerror(errno);
    }
  } else if (options_.fsync && error.empty() && ::fsync(fd_) != 0) {
    error = "WAL probe fsync failed: " + path_ + ": " + std::strerror(errno);
  }
  if (error.empty() && dir_sync_pending_) {
    // Appends cannot ack until the truncate rename is directory-durable,
    // so the log is not healthy until this succeeds either.
    const Status dir_synced = FsyncDir(DirName(path_));
    if (dir_synced.ok()) {
      dir_sync_pending_ = false;
    } else {
      error = "WAL directory entry still not durable: " + path_ + ": " +
              dir_synced.message();
    }
  }
  if (!error.empty()) return DataLossError(error);
  return OkStatus();
}

Status WriteAheadLog::Truncate(int64_t up_to_sequence) {
  KJOIN_ASSIGN_OR_RETURN(std::string bytes, ReadAll(path_));
  KJOIN_RETURN_IF_ERROR(CheckHeader(bytes, path_));
  const FrameScan scan = ScanFrames(bytes);
  std::string kept = HeaderBytes();
  size_t dropped = 0;
  for (size_t i = 0; i < scan.payloads.size(); ++i) {
    if (scan.payloads[i].size() < 8) {
      return DataLossError(path_ + ": record " + std::to_string(i) + " too short");
    }
    const int64_t sequence = static_cast<int64_t>(LoadU64(scan.payloads[i], 0));
    if (sequence <= up_to_sequence) {
      ++dropped;
      continue;
    }
    // Copy the whole frame (header + payload) verbatim.
    const uint64_t begin = scan.frame_offsets[i];
    const uint64_t size = kWalFrameBytes + scan.payloads[i].size();
    kept.append(bytes, begin, size);
  }
  if (dropped == 0) return OkStatus();

  const std::string tmp = path_ + ".tmp";
  const int tmp_fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (tmp_fd < 0) {
    return DataLossError("cannot open " + tmp + ": " + std::strerror(errno));
  }
  const bool written = WriteFull(tmp_fd, 0, kept) && ::fsync(tmp_fd) == 0;
  ::close(tmp_fd);
  if (!written || std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return DataLossError("cannot rewrite WAL: " + path_);
  }
  // The rename happened: the directory entry now points at the rewritten
  // log, so the handle MUST follow it no matter what fails below. Keeping
  // the old fd would send every later append into the old, unlinked inode
  // — acked, fsynced, and gone at the next open.
  const int new_fd = ::open(path_.c_str(), O_RDWR);
  if (fd_ >= 0) ::close(fd_);
  fd_ = new_fd;  // -1 on failure: EnsureOpen() retries at the next append
  if (new_fd < 0) {
    return DataLossError("cannot reopen truncated WAL: " + path_ + ": " +
                         std::strerror(errno));
  }
  end_offset_ = kept.size();
  // The rename is not durable until the parent directory entry is: a
  // crash could otherwise roll the log back to its pre-truncate contents
  // while the caller believes the rewrite landed. On failure the pending
  // flag makes Append/Probe re-sync the directory before acking anything
  // written on top of the rewrite.
  const Status dir_synced = FsyncDir(DirName(path_));
  dir_sync_pending_ = !dir_synced.ok();
  return dir_synced;
}

StatusOr<WalReplayResult> WriteAheadLog::Replay(const std::string& path,
                                                const WalReplayInput& input) {
  StatusOr<WalReplayResult> out = WalReplayResult{};
  StatusOr<std::string> bytes = ReadAll(path);
  if (!bytes.ok()) {
    // A log that never existed is an empty log; anything else is real.
    if (IsNotFound(bytes.status())) return out;
    return bytes.status();
  }
  if (bytes->size() < kWalHeaderBytes) {
    // A header torn by a crash during creation: no records were ever
    // durable, so the log is empty (Open() rewrites the header).
    out->torn_tail = !bytes->empty();
    out->valid_bytes = 0;
    return out;
  }
  KJOIN_RETURN_IF_ERROR(CheckHeader(*bytes, path));
  const FrameScan scan = ScanFrames(*bytes);
  out->valid_bytes = scan.valid_bytes;
  out->torn_tail = scan.torn;

  std::vector<std::string> running_tokens = input.tokens;
  std::unordered_set<std::string> token_set(running_tokens.begin(), running_tokens.end());
  int64_t running_objects = input.num_objects;
  int64_t previous_sequence = 0;
  bool have_previous = false;

  for (size_t i = 0; i < scan.payloads.size(); ++i) {
    const std::string label = path + " record " + std::to_string(i);
    wire::ByteReader r(scan.payloads[i], label);
    int64_t sequence = 0;
    KJOIN_RETURN_IF_ERROR(r.I64(&sequence));
    if (have_previous && sequence != previous_sequence + 1) {
      return DataLossError(label + ": sequence " + std::to_string(sequence) +
                           " does not follow " + std::to_string(previous_sequence));
    }
    previous_sequence = sequence;
    have_previous = true;
    if (sequence <= input.min_sequence_exclusive) {
      // Already folded into the snapshot; its token update is part of
      // input.tokens, so skip the payload entirely.
      continue;
    }
    if (out->records.empty() && sequence != input.min_sequence_exclusive + 1) {
      return DataLossError(label + ": first record past the snapshot has sequence " +
                           std::to_string(sequence) + ", expected " +
                           std::to_string(input.min_sequence_exclusive + 1) +
                           " (log truncated beyond the snapshot?)");
    }

    WalRecord record;
    record.sequence = sequence;
    uint8_t has_tokens = 0;
    KJOIN_RETURN_IF_ERROR(r.U8(&has_tokens));
    if (has_tokens != 0) {
      uint64_t base;
      KJOIN_RETURN_IF_ERROR(r.U64(&base));
      if (base != running_tokens.size()) {
        return DataLossError(label + ": token update extends a table of " +
                             std::to_string(base) + " entries, but the replayed table has " +
                             std::to_string(running_tokens.size()));
      }
      record.token_base = static_cast<int64_t>(base);
      KJOIN_RETURN_IF_ERROR(
          wire::ParseStringList(r, /*reject_duplicates=*/true, &record.token_suffix));
      for (const std::string& token : record.token_suffix) {
        if (!token_set.insert(token).second) {
          return InvalidArgumentError(label + ": token '" + token +
                                      "' already interned in the table being extended");
        }
        running_tokens.push_back(token);
      }
    }
    KJOIN_RETURN_IF_ERROR(r.RawVec(&record.deletes));
    for (const int32_t index : record.deletes) {
      if (index < 0 || index >= running_objects) {
        return InvalidArgumentError(label + ": delete of object " + std::to_string(index) +
                                    " outside the collection of " +
                                    std::to_string(running_objects) + " objects");
      }
    }
    KJOIN_RETURN_IF_ERROR(
        wire::ParseObjectList(r, running_tokens, input.num_nodes, &record.objects));
    KJOIN_RETURN_IF_ERROR(r.ExpectEnd());
    running_objects += static_cast<int64_t>(record.objects.size());
    out->records.push_back(std::move(record));
  }
  return out;
}

}  // namespace kjoin::serve
