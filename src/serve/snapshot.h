#ifndef KJOIN_SERVE_SNAPSHOT_H_
#define KJOIN_SERVE_SNAPSHOT_H_

// Versioned, checksummed binary snapshots of a prepared search stack.
//
// Building a KJoinIndex from text is the expensive half of cold start:
// parse the hierarchy, tokenize and entity-match every record, generate
// full signature sets, sort them by document frequency, build the LCA
// sparse table. A snapshot persists the *prepared* stack — hierarchy CSR
// arrays, LCA tables, the token interner, the built object collection and
// the full-signature inverted index — so a serving process reconstructs
// the index in O(file size): no tokenize, no DF sort, no RMQ build
// (docs/serving.md has the format layout and the measured speedup).
//
// File layout (all integers little-endian, fixed width):
//
//   FileHeader   { magic "KJSN", format version, section count,
//                  CRC32 of the section table }
//   SectionEntry × count   { tag, payload CRC32, offset, size }
//   payloads...
//
// Format version 2 adds the DURA section: the epoch's durable sequence
// number (the last WAL record folded into the snapshot, see serve/wal.h)
// and the tombstoned object indexes. A delta-layered index (see
// core/kjoin_index.h) is flattened before serializing, so a snapshot is
// always a single flat layer.
//
// Format version 3 re-lays the POST section as the CSR postings form
// (core/posting_store.h): one SigId key array (ascending), one
// list-offset array, one flat doc array — written straight off the frozen
// store, validated into a PostingStore on load. No map is built on
// either side.
//
// Format version 4 drops the two similarity-cache fields from OPTS.
//
// Every section payload carries its own CRC32; the loader verifies the
// header, the table checksum and each section checksum before parsing,
// then validates all structural invariants (id ranges, array shapes)
// while copying — corrupt, truncated or version-skewed files return
// kDataLoss / kInvalidArgument with byte-offset context, never crash.
// Endianness is not converted: snapshots are a same-architecture serving
// format (like a trained-model checkpoint), not an interchange format.
//
//   KJOIN_RETURN_IF_ERROR(SaveIndexSnapshot({&index, builder.TokenTable(),
//                                            dataset.synonyms}, path));
//   KJOIN_ASSIGN_OR_RETURN(LoadedIndex loaded, LoadIndexSnapshot(path));
//   loaded.index->SearchTopK(query, k, tau, control, &hits);

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/kjoin_index.h"
#include "core/object.h"
#include "text/entity_matcher.h"

namespace kjoin::serve {

// Bumped whenever the payload layout changes; the loader rejects other
// versions with kInvalidArgument (no cross-version migration — re-save).
inline constexpr uint32_t kSnapshotFormatVersion = 4;

// CRC32 (IEEE 802.3, the zlib polynomial) of `bytes`. Exposed so tests
// can forge and break section checksums deliberately (defined in
// serve/wire_format.cc, shared with the WAL).
uint32_t Crc32(std::string_view bytes);

// What a snapshot serializes. `index` is required. `tokens` is the
// ObjectBuilder's table (ObjectBuilder::TokenTable()); when empty it is
// reconstructed from the indexed objects, which is sufficient for search
// correctness (tokens interned but absent from every indexed object
// cannot produce a match). `synonyms` feed the restored EntityMatcher.
struct SnapshotInput {
  const KJoinIndex* index = nullptr;
  std::vector<std::string> tokens;
  std::vector<std::pair<std::string, std::string>> synonyms;
  // Sequence number of the last WAL record this state includes; WAL
  // records above it are replayed on recovery (serve/wal.h). 0 for a
  // stack that never had a WAL.
  int64_t durable_seq = 0;
};

// A fully reconstructed serving stack. The index holds raw references to
// the hierarchy (and shares the LCA tables), so keep the bundle intact —
// members are ordered so the index is destroyed before what it points at.
struct LoadedIndex {
  std::shared_ptr<const Hierarchy> hierarchy;
  std::vector<std::string> tokens;
  std::vector<std::pair<std::string, std::string>> synonyms;
  std::unique_ptr<KJoinIndex> index;
  uint64_t file_bytes = 0;
  // The snapshot's DURA sequence (see SnapshotInput::durable_seq).
  int64_t durable_seq = 0;
};

// Renders the snapshot bytes in memory (the file format, exactly).
std::string SerializeIndexSnapshot(const SnapshotInput& input);

// Serializes and publishes atomically: tmp write, fsync, rename, parent
// directory fsync (serve/fs_util.h). On failure — including injected
// serve/write and serve/dir_fsync faults — any previous snapshot at
// `path` is untouched and no torn file appears under the final name.
Status SaveIndexSnapshot(const SnapshotInput& input, const std::string& path);

// Memory-maps `path` and reconstructs the stack. When `metrics` is given,
// records snapshot.load_seconds (histogram), snapshot.loads and
// snapshot.load_bytes (counters).
StatusOr<LoadedIndex> LoadIndexSnapshot(const std::string& path,
                                        MetricsRegistry* metrics = nullptr);

// Same loader over an in-memory buffer (tests and the fuzz harness).
// `source_name` labels error messages.
StatusOr<LoadedIndex> LoadIndexSnapshotFromBytes(std::string_view bytes,
                                                 std::string_view source_name = "<bytes>",
                                                 MetricsRegistry* metrics = nullptr);

// Query-side companions for a loaded collection: an EntityMatcher over
// the loaded hierarchy (with the snapshot's synonyms registered) and an
// ObjectBuilder pre-seeded with the snapshot's token table, so queries it
// builds are token-id-compatible with the indexed objects. Mapping mode
// follows the index's plus_mode; min_phi <= 0 defaults to the index's δ.
struct QueryPipeline {
  std::unique_ptr<EntityMatcher> matcher;
  std::unique_ptr<ObjectBuilder> builder;
};
QueryPipeline MakeQueryPipeline(const LoadedIndex& loaded, double min_phi = 0.0);

}  // namespace kjoin::serve

#endif  // KJOIN_SERVE_SNAPSHOT_H_
