#include "serve/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <limits>
#include <cstring>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/timer.h"
#include "hierarchy/lca.h"
#include "serve/fs_util.h"
#include "serve/wire_format.h"

namespace kjoin::serve {
namespace {

// Byte-level encoding lives in serve/wire_format.h (shared with the
// write-ahead log); this file owns the section framing and the
// section-payload layouts.
using wire::ByteReader;
using wire::ByteWriter;

constexpr uint32_t FourCc(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<uint8_t>(a)) |
         static_cast<uint32_t>(static_cast<uint8_t>(b)) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(c)) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(d)) << 24;
}

// Bytes on disk spell the names out: "KJSN", then one tag per section.
constexpr uint32_t kMagic = FourCc('K', 'J', 'S', 'N');
constexpr uint32_t kTagOptions = FourCc('O', 'P', 'T', 'S');
constexpr uint32_t kTagHierarchy = FourCc('H', 'I', 'E', 'R');
constexpr uint32_t kTagLca = FourCc('L', 'C', 'A', ' ');
constexpr uint32_t kTagTokens = FourCc('T', 'O', 'K', 'S');
constexpr uint32_t kTagSynonyms = FourCc('S', 'Y', 'N', 'S');
constexpr uint32_t kTagObjects = FourCc('O', 'B', 'J', 'S');
constexpr uint32_t kTagPostings = FourCc('P', 'O', 'S', 'T');
constexpr uint32_t kTagDurability = FourCc('D', 'U', 'R', 'A');

constexpr uint32_t kKnownTags[] = {kTagOptions,  kTagHierarchy, kTagLca,      kTagTokens,
                                   kTagSynonyms, kTagObjects,   kTagPostings, kTagDurability};
constexpr size_t kNumSections = std::size(kKnownTags);

constexpr size_t kHeaderBytes = 16;        // magic, version, count, table CRC
constexpr size_t kSectionEntryBytes = 24;  // tag, CRC, offset, size

std::string TagName(uint32_t tag) {
  std::string name(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
    name[i] = (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return name;
}

// ---------------------------------------------------------------------------
// Section writers.

void WriteOptions(const KJoinOptions& o, ByteWriter* w) {
  w->F64(o.delta);
  w->F64(o.tau);
  w->U32(static_cast<uint32_t>(o.scheme));
  w->U8(o.weighted_prefix ? 1 : 0);
  w->U32(static_cast<uint32_t>(o.verify_mode));
  w->U32(static_cast<uint32_t>(o.element_metric));
  w->U32(static_cast<uint32_t>(o.set_metric));
  w->U8(o.count_pruning ? 1 : 0);
  w->U8(o.weighted_count_pruning ? 1 : 0);
  w->U8(o.plus_mode ? 1 : 0);
  w->I32(o.num_threads);
}

void WriteHierarchy(const Hierarchy& h, ByteWriter* w) {
  w->RawVec(h.parents());
  w->RawVec(h.depths());
  w->RawVec(h.child_offsets());
  w->RawVec(h.child_nodes());
  w->RawVec(h.leaves());
  w->I32(h.height());
  for (NodeId v = 0; v < h.num_nodes(); ++v) w->Str(h.label(v));
}

void WriteLca(const LcaIndex& lca, ByteWriter* w) {
  const LcaTables t = lca.tables();
  w->RawVec(t.first_visit);
  w->RawVec(t.row_offset);
  w->RawVec(t.log2_floor);
  w->RawVec(t.sparse);
}

void WriteSynonyms(const std::vector<std::pair<std::string, std::string>>& synonyms,
                   ByteWriter* w) {
  w->U64(synonyms.size());
  for (const auto& [alias, label] : synonyms) {
    w->Str(alias);
    w->Str(label);
  }
}

// Version-3 POST payload: the CSR form, three raw arrays. `traverse`
// must call its callback once per list in ascending SigId order (both
// posting sources — KJoinIndex::ForEachPosting and PostingStore::ForEach
// — already traverse that way, so nothing is sorted here and identical
// indexes serialize to identical bytes).
template <typename Traverse>
void WritePostings(const Traverse& traverse, ByteWriter* w) {
  std::vector<SigId> keys;
  std::vector<int64_t> list_offsets{0};
  std::vector<int32_t> docs;
  traverse([&](SigId id, const int32_t* list, int32_t count) {
    keys.push_back(id);
    docs.insert(docs.end(), list, list + count);
    list_offsets.push_back(static_cast<int64_t>(docs.size()));
  });
  w->RawVec(keys);
  w->RawVec(list_offsets);
  w->RawVec(docs);
}

void WriteDurability(int64_t durable_seq, const std::vector<int32_t>& tombstones,
                     ByteWriter* w) {
  w->I64(durable_seq);
  w->RawVec(tombstones);  // sorted ascending by the caller
}

// ---------------------------------------------------------------------------
// Section parsers. Checksums only prove the bytes match what was written;
// every structural invariant (enum ranges, id bounds, monotonicity) is
// re-validated here so even a forged-CRC file cannot index out of bounds.

StatusOr<KJoinOptions> ParseOptions(std::string_view payload, const std::string& label) {
  ByteReader r(payload, label);
  KJoinOptions o;
  uint32_t scheme, verify_mode, element_metric, set_metric;
  uint8_t weighted_prefix, count_pruning, weighted_count_pruning, plus_mode;
  int32_t num_threads;
  KJOIN_RETURN_IF_ERROR(r.F64(&o.delta));
  KJOIN_RETURN_IF_ERROR(r.F64(&o.tau));
  KJOIN_RETURN_IF_ERROR(r.U32(&scheme));
  KJOIN_RETURN_IF_ERROR(r.U8(&weighted_prefix));
  KJOIN_RETURN_IF_ERROR(r.U32(&verify_mode));
  KJOIN_RETURN_IF_ERROR(r.U32(&element_metric));
  KJOIN_RETURN_IF_ERROR(r.U32(&set_metric));
  KJOIN_RETURN_IF_ERROR(r.U8(&count_pruning));
  KJOIN_RETURN_IF_ERROR(r.U8(&weighted_count_pruning));
  KJOIN_RETURN_IF_ERROR(r.U8(&plus_mode));
  KJOIN_RETURN_IF_ERROR(r.I32(&num_threads));
  KJOIN_RETURN_IF_ERROR(r.ExpectEnd());

  if (!std::isfinite(o.delta) || o.delta <= 0.0 || o.delta > 1.0) {
    return InvalidArgumentError(label + ": delta out of (0, 1]");
  }
  if (!std::isfinite(o.tau) || o.tau <= 0.0 || o.tau > 1.0) {
    return InvalidArgumentError(label + ": tau out of (0, 1]");
  }
  if (scheme > static_cast<uint32_t>(SignatureScheme::kDeepPath)) {
    return InvalidArgumentError(label + ": unknown signature scheme " + std::to_string(scheme));
  }
  if (verify_mode > static_cast<uint32_t>(VerifyMode::kAdaptive)) {
    return InvalidArgumentError(label + ": unknown verify mode " + std::to_string(verify_mode));
  }
  if (element_metric > static_cast<uint32_t>(ElementMetric::kWuPalmer)) {
    return InvalidArgumentError(label + ": unknown element metric " +
                                std::to_string(element_metric));
  }
  if (set_metric > static_cast<uint32_t>(SetMetric::kCosine)) {
    return InvalidArgumentError(label + ": unknown set metric " + std::to_string(set_metric));
  }
  if (num_threads < 1 || num_threads > 65536) {
    return InvalidArgumentError(label + ": num_threads out of range");
  }
  o.scheme = static_cast<SignatureScheme>(scheme);
  o.weighted_prefix = weighted_prefix != 0;
  o.verify_mode = static_cast<VerifyMode>(verify_mode);
  o.element_metric = static_cast<ElementMetric>(element_metric);
  o.set_metric = static_cast<SetMetric>(set_metric);
  o.count_pruning = count_pruning != 0;
  o.weighted_count_pruning = weighted_count_pruning != 0;
  o.plus_mode = plus_mode != 0;
  o.num_threads = num_threads;
  return o;
}

StatusOr<HierarchyParts> ParseHierarchySection(std::string_view payload,
                                               const std::string& label) {
  ByteReader r(payload, label);
  HierarchyParts parts;
  KJOIN_RETURN_IF_ERROR(r.RawVec(&parts.parents));
  const uint64_t n = parts.parents.size();
  if (n == 0 || n > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
    return InvalidArgumentError(label + ": node count " + std::to_string(n) +
                                " out of range");
  }
  KJOIN_RETURN_IF_ERROR(r.RawVec(&parts.depths));
  KJOIN_RETURN_IF_ERROR(r.RawVec(&parts.child_offsets));
  KJOIN_RETURN_IF_ERROR(r.RawVec(&parts.child_nodes));
  KJOIN_RETURN_IF_ERROR(r.RawVec(&parts.leaves));
  int32_t height;
  KJOIN_RETURN_IF_ERROR(r.I32(&height));
  parts.height = height;
  parts.labels.resize(n);
  for (uint64_t v = 0; v < n; ++v) KJOIN_RETURN_IF_ERROR(r.Str(&parts.labels[v]));
  KJOIN_RETURN_IF_ERROR(r.ExpectEnd());
  // Array-shape and tree-structure consistency is Hierarchy::FromParts's
  // job; this parser only guarantees well-formed bytes.
  return parts;
}

StatusOr<LcaTables> ParseLcaSection(std::string_view payload, const std::string& label) {
  ByteReader r(payload, label);
  LcaTables tables;
  KJOIN_RETURN_IF_ERROR(r.RawVec(&tables.first_visit));
  KJOIN_RETURN_IF_ERROR(r.RawVec(&tables.row_offset));
  KJOIN_RETURN_IF_ERROR(r.RawVec(&tables.log2_floor));
  KJOIN_RETURN_IF_ERROR(r.RawVec(&tables.sparse));
  KJOIN_RETURN_IF_ERROR(r.ExpectEnd());
  return tables;
}

StatusOr<std::vector<std::string>> ParseTokenTable(std::string_view payload,
                                                   const std::string& label) {
  ByteReader r(payload, label);
  std::vector<std::string> strings;
  // The table feeds ObjectBuilder::PreloadTokens, whose intern map
  // CHECK-fails on a repeat — reject forged duplicates at parse time.
  KJOIN_RETURN_IF_ERROR(wire::ParseStringList(r, /*reject_duplicates=*/true, &strings));
  KJOIN_RETURN_IF_ERROR(r.ExpectEnd());
  return strings;
}

StatusOr<std::vector<std::pair<std::string, std::string>>> ParseSynonyms(
    std::string_view payload, const std::string& label) {
  ByteReader r(payload, label);
  uint64_t count;
  KJOIN_RETURN_IF_ERROR(r.U64(&count));
  if (count > r.remaining() / 8) {
    return DataLossError(label + ": synonym count " + std::to_string(count) +
                         " exceeds payload size");
  }
  std::vector<std::pair<std::string, std::string>> synonyms(count);
  for (uint64_t i = 0; i < count; ++i) {
    KJOIN_RETURN_IF_ERROR(r.Str(&synonyms[i].first));
    KJOIN_RETURN_IF_ERROR(r.Str(&synonyms[i].second));
  }
  KJOIN_RETURN_IF_ERROR(r.ExpectEnd());
  return synonyms;
}

StatusOr<std::vector<Object>> ParseObjects(std::string_view payload, const std::string& label,
                                           const std::vector<std::string>& tokens,
                                           int64_t num_nodes) {
  ByteReader r(payload, label);
  std::vector<Object> objects;
  KJOIN_RETURN_IF_ERROR(wire::ParseObjectList(r, tokens, num_nodes, &objects));
  KJOIN_RETURN_IF_ERROR(r.ExpectEnd());
  return objects;
}

StatusOr<PostingStore> ParsePostings(std::string_view payload, const std::string& label,
                                     int64_t num_objects) {
  ByteReader r(payload, label);
  std::vector<SigId> keys;
  std::vector<int64_t> list_offsets;
  std::vector<int32_t> docs;
  KJOIN_RETURN_IF_ERROR(r.RawVec(&keys));
  KJOIN_RETURN_IF_ERROR(r.RawVec(&list_offsets));
  KJOIN_RETURN_IF_ERROR(r.RawVec(&docs));
  KJOIN_RETURN_IF_ERROR(r.ExpectEnd());
  if (list_offsets.size() != keys.size() + 1 || list_offsets.front() != 0 ||
      list_offsets.back() != static_cast<int64_t>(docs.size())) {
    return InvalidArgumentError(label + ": posting offset table shape mismatch");
  }
  // A linear repack: each validated list feeds the CSR builder directly,
  // no map and no re-sort — the on-disk order IS the index order.
  PostingStore::Builder builder;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && keys[i] <= keys[i - 1]) {
      return InvalidArgumentError(label + ": signature ids not strictly increasing");
    }
    const int64_t begin = list_offsets[i];
    const int64_t end = list_offsets[i + 1];
    // begin >= 0 by induction: offsets start at 0 and each list adds a
    // positive length.
    if (end <= begin) {
      return InvalidArgumentError(label + ": empty posting list for signature " +
                                  std::to_string(keys[i]));
    }
    int32_t last = -1;
    for (int64_t j = begin; j < end; ++j) {
      // Lists are strictly ascending object indexes by construction
      // (IndexObject appends in insertion order); anything else is a
      // corrupt or foreign file.
      if (docs[j] <= last || static_cast<int64_t>(docs[j]) >= num_objects) {
        return InvalidArgumentError(label + ": posting list for signature " +
                                    std::to_string(keys[i]) +
                                    " is not an ascending list of ids < " +
                                    std::to_string(num_objects));
      }
      last = docs[j];
    }
    builder.Add(keys[i], docs.data() + begin, static_cast<int32_t>(end - begin));
  }
  return builder.Finish();
}

struct Durability {
  int64_t durable_seq = 0;
  std::vector<int32_t> tombstones;
};

StatusOr<Durability> ParseDurability(std::string_view payload, const std::string& label,
                                     int64_t num_objects) {
  ByteReader r(payload, label);
  Durability dura;
  KJOIN_RETURN_IF_ERROR(r.I64(&dura.durable_seq));
  if (dura.durable_seq < 0) {
    return InvalidArgumentError(label + ": negative durable sequence " +
                                std::to_string(dura.durable_seq));
  }
  KJOIN_RETURN_IF_ERROR(r.RawVec(&dura.tombstones));
  int32_t last = -1;
  for (const int32_t index : dura.tombstones) {
    if (index <= last || static_cast<int64_t>(index) >= num_objects) {
      return InvalidArgumentError(label +
                                  ": tombstones are not an ascending list of ids < " +
                                  std::to_string(num_objects));
    }
    last = index;
  }
  KJOIN_RETURN_IF_ERROR(r.ExpectEnd());
  return dura;
}

// ---------------------------------------------------------------------------
// File assembly and the top-level parser.

struct Section {
  uint32_t tag = 0;
  std::string payload;
};

std::string AssembleFile(std::vector<Section> sections) {
  ByteWriter table;
  uint64_t offset = kHeaderBytes + kSectionEntryBytes * sections.size();
  for (const Section& s : sections) {
    table.U32(s.tag);
    table.U32(Crc32(s.payload));
    table.U64(offset);
    table.U64(s.payload.size());
    offset += s.payload.size();
  }
  const std::string table_bytes = table.Take();

  ByteWriter header;
  header.U32(kMagic);
  header.U32(kSnapshotFormatVersion);
  header.U32(static_cast<uint32_t>(sections.size()));
  header.U32(Crc32(table_bytes));

  std::string out = header.Take();
  out.reserve(offset);
  out += table_bytes;
  for (Section& s : sections) out += s.payload;
  return out;
}

StatusOr<LoadedIndex> ParseSnapshot(std::string_view bytes, std::string_view source_name) {
  const std::string name(source_name);
  if (bytes.size() < kHeaderBytes) {
    return DataLossError(name + ": truncated header (" + std::to_string(bytes.size()) +
                         " bytes)");
  }
  ByteReader header(bytes.substr(0, kHeaderBytes), name + " header");
  uint32_t magic, version, section_count, table_crc;
  KJOIN_RETURN_IF_ERROR(header.U32(&magic));
  KJOIN_RETURN_IF_ERROR(header.U32(&version));
  KJOIN_RETURN_IF_ERROR(header.U32(&section_count));
  KJOIN_RETURN_IF_ERROR(header.U32(&table_crc));
  if (magic != kMagic) {
    return InvalidArgumentError(name + ": not a K-Join index snapshot (bad magic)");
  }
  if (version != kSnapshotFormatVersion) {
    return InvalidArgumentError(name + ": snapshot format version " + std::to_string(version) +
                                "; this build reads version " +
                                std::to_string(kSnapshotFormatVersion));
  }
  if (section_count != kNumSections) {
    return InvalidArgumentError(name + ": expected " + std::to_string(kNumSections) +
                                " sections, header says " + std::to_string(section_count));
  }
  const uint64_t table_size = kSectionEntryBytes * static_cast<uint64_t>(section_count);
  if (bytes.size() - kHeaderBytes < table_size) {
    return DataLossError(name + ": truncated section table");
  }
  const std::string_view table_bytes = bytes.substr(kHeaderBytes, table_size);
  if (Crc32(table_bytes) != table_crc) {
    return DataLossError(name + ": section table checksum mismatch");
  }

  struct Entry {
    uint32_t crc = 0;
    std::string_view payload;
    bool present = false;
  };
  Entry entries[kNumSections];
  ByteReader table(table_bytes, name + " section table");
  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t tag, crc;
    uint64_t offset, size;
    KJOIN_RETURN_IF_ERROR(table.U32(&tag));
    KJOIN_RETURN_IF_ERROR(table.U32(&crc));
    KJOIN_RETURN_IF_ERROR(table.U64(&offset));
    KJOIN_RETURN_IF_ERROR(table.U64(&size));
    size_t slot = kNumSections;
    for (size_t k = 0; k < kNumSections; ++k) {
      if (kKnownTags[k] == tag) slot = k;
    }
    if (slot == kNumSections) {
      return InvalidArgumentError(name + ": unknown section '" + TagName(tag) + "'");
    }
    if (entries[slot].present) {
      return InvalidArgumentError(name + ": duplicate section '" + TagName(tag) + "'");
    }
    if (offset < kHeaderBytes + table_size || offset > bytes.size() ||
        size > bytes.size() - offset) {
      return DataLossError(name + ": section '" + TagName(tag) + "' out of bounds (offset " +
                           std::to_string(offset) + ", size " + std::to_string(size) + ", file " +
                           std::to_string(bytes.size()) + " bytes)");
    }
    entries[slot] = {crc, bytes.substr(offset, size), true};
  }
  for (size_t k = 0; k < kNumSections; ++k) {
    if (KJOIN_FAULT_POINT("serve/section_crc")) {
      return DataLossError(name + ": injected checksum mismatch in section '" +
                           TagName(kKnownTags[k]) + "'");
    }
    if (Crc32(entries[k].payload) != entries[k].crc) {
      return DataLossError(name + ": section '" + TagName(kKnownTags[k]) +
                           "' checksum mismatch");
    }
  }
  const auto payload = [&](uint32_t tag) {
    for (size_t k = 0; k < kNumSections; ++k) {
      if (kKnownTags[k] == tag) return entries[k].payload;
    }
    return std::string_view();
  };
  const auto label = [&](uint32_t tag) { return name + " section " + TagName(tag); };

  KJOIN_ASSIGN_OR_RETURN(KJoinOptions options,
                         ParseOptions(payload(kTagOptions), label(kTagOptions)));
  KJOIN_ASSIGN_OR_RETURN(HierarchyParts hierarchy_parts,
                         ParseHierarchySection(payload(kTagHierarchy), label(kTagHierarchy)));
  KJOIN_ASSIGN_OR_RETURN(Hierarchy restored, Hierarchy::FromParts(std::move(hierarchy_parts)));
  auto hierarchy = std::make_shared<const Hierarchy>(std::move(restored));
  const int64_t num_nodes = hierarchy->num_nodes();

  KJOIN_ASSIGN_OR_RETURN(LcaTables lca_tables, ParseLcaSection(payload(kTagLca), label(kTagLca)));
  KJOIN_ASSIGN_OR_RETURN(LcaIndex lca_restored,
                         LcaIndex::FromTables(*hierarchy, std::move(lca_tables)));
  auto lca = std::make_shared<const LcaIndex>(std::move(lca_restored));

  KJOIN_ASSIGN_OR_RETURN(std::vector<std::string> tokens,
                         ParseTokenTable(payload(kTagTokens), label(kTagTokens)));
  KJOIN_ASSIGN_OR_RETURN(auto synonyms,
                         ParseSynonyms(payload(kTagSynonyms), label(kTagSynonyms)));
  KJOIN_ASSIGN_OR_RETURN(std::vector<Object> objects,
                         ParseObjects(payload(kTagObjects), label(kTagObjects), tokens, num_nodes));
  KJOIN_ASSIGN_OR_RETURN(auto postings,
                         ParsePostings(payload(kTagPostings), label(kTagPostings),
                                       static_cast<int64_t>(objects.size())));
  KJOIN_ASSIGN_OR_RETURN(Durability dura,
                         ParseDurability(payload(kTagDurability), label(kTagDurability),
                                         static_cast<int64_t>(objects.size())));

  LoadedIndex loaded;
  loaded.hierarchy = hierarchy;
  loaded.tokens = std::move(tokens);
  loaded.synonyms = std::move(synonyms);
  KJoinIndex::RestoredParts parts;
  parts.lca = std::move(lca);
  parts.postings = std::move(postings);
  parts.tombstones = std::move(dura.tombstones);
  loaded.index = std::make_unique<KJoinIndex>(*hierarchy, options, std::move(objects),
                                              std::move(parts));
  loaded.file_bytes = bytes.size();
  loaded.durable_seq = dura.durable_seq;
  return loaded;
}

void RecordLoad(MetricsRegistry* metrics, const WallTimer& timer,
                const StatusOr<LoadedIndex>& result) {
  if (metrics == nullptr) return;
  if (result.ok()) {
    metrics->counter("snapshot.loads")->Increment();
    metrics->counter("snapshot.load_bytes")->Increment(
        static_cast<int64_t>(result->file_bytes));
    metrics->histogram("snapshot.load_seconds")->Observe(timer.ElapsedSeconds());
  } else {
    metrics->counter("snapshot.load_failures")->Increment();
  }
}

struct FdCloser {
  int fd = -1;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

struct MmapGuard {
  void* addr = MAP_FAILED;
  size_t size = 0;
  ~MmapGuard() {
    if (addr != MAP_FAILED) ::munmap(addr, size);
  }
};

}  // namespace

std::string SerializeIndexSnapshot(const SnapshotInput& input) {
  KJOIN_CHECK(input.index != nullptr) << "SnapshotInput needs an index";
  const KJoinIndex& index = *input.index;
  const Hierarchy& hierarchy = index.hierarchy();

  // A snapshot is always one flat layer: collapse a delta chain (or a
  // flat index carrying tombstones, whose postings still hold the dead
  // entries) first. The collapse is O(objects + postings) — no
  // signature regeneration.
  std::vector<Object> flat_objects;
  KJoinIndex::RestoredParts flat_parts;
  const bool collapse = index.delta_depth() > 0 || index.num_live() != index.num_indexed();
  if (collapse) index.Flatten(&flat_objects, &flat_parts);
  const std::vector<Object>& all_objects = collapse ? flat_objects : index.objects();
  const std::vector<int32_t>& tombstones = flat_parts.tombstones;  // empty when !collapse

  // The token table must assign every indexed element's id to its surface
  // form. Start from the caller's table (which may also carry query-only
  // tokens) and fill gaps from the objects; ids interned but used by no
  // object get unique placeholders so PreloadTokens can replay the table.
  std::vector<std::string> tokens = input.tokens;
  for (const Object& o : all_objects) {
    for (const Element& e : o.elements) {
      if (e.token_id < 0) continue;
      if (static_cast<size_t>(e.token_id) >= tokens.size()) tokens.resize(e.token_id + 1);
      if (tokens[e.token_id].empty()) {
        tokens[e.token_id] = e.token;
      } else {
        KJOIN_CHECK(tokens[e.token_id] == e.token)
            << "token table disagrees with indexed objects at id " << e.token_id;
      }
    }
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    // '\x01' cannot appear in normalized tokens, so placeholders never
    // collide with real entries (duplicates would break PreloadTokens).
    if (tokens[i].empty()) tokens[i] = std::string("\x01gap") + std::to_string(i);
  }

  std::vector<Section> sections(kNumSections);
  {
    ByteWriter w;
    WriteOptions(index.options(), &w);
    sections[0] = {kTagOptions, w.Take()};
  }
  {
    ByteWriter w;
    WriteHierarchy(hierarchy, &w);
    sections[1] = {kTagHierarchy, w.Take()};
  }
  {
    ByteWriter w;
    WriteLca(*index.shared_lca(), &w);
    sections[2] = {kTagLca, w.Take()};
  }
  {
    ByteWriter w;
    wire::WriteStringList(tokens, &w);
    sections[3] = {kTagTokens, w.Take()};
  }
  {
    ByteWriter w;
    WriteSynonyms(input.synonyms, &w);
    sections[4] = {kTagSynonyms, w.Take()};
  }
  {
    ByteWriter w;
    wire::WriteObjectList(all_objects, &w);
    sections[5] = {kTagObjects, w.Take()};
  }
  {
    ByteWriter w;
    // Both sources traverse ascending SigIds: the flattened chain through
    // its freshly built CSR store, a flat live index through its frozen
    // store merged with any post-freeze tail inserts.
    if (collapse) {
      WritePostings([&](auto&& fn) { flat_parts.postings.ForEach(fn); }, &w);
    } else {
      WritePostings([&](auto&& fn) { index.ForEachPosting(fn); }, &w);
    }
    sections[6] = {kTagPostings, w.Take()};
  }
  {
    ByteWriter w;
    WriteDurability(input.durable_seq, tombstones, &w);
    sections[7] = {kTagDurability, w.Take()};
  }
  return AssembleFile(std::move(sections));
}

Status SaveIndexSnapshot(const SnapshotInput& input, const std::string& path) {
  // tmp + fsync + rename + parent-dir fsync: a file under the final name
  // is always a complete snapshot, even across a crash mid-save
  // (serve/fs_util.h). Failures leave any previous snapshot at `path`
  // untouched.
  return AtomicWriteFile(path, SerializeIndexSnapshot(input));
}

StatusOr<LoadedIndex> LoadIndexSnapshot(const std::string& path, MetricsRegistry* metrics) {
  WallTimer timer;
  const auto finish = [&](StatusOr<LoadedIndex> result) {
    RecordLoad(metrics, timer, result);
    return result;
  };

  if (KJOIN_FAULT_POINT("serve/open")) {
    return finish(NotFoundError("injected open failure: " + path));
  }
  FdCloser fd{::open(path.c_str(), O_RDONLY)};
  if (fd.fd < 0) {
    return finish(NotFoundError("cannot open snapshot: " + path + ": " + std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd.fd, &st) != 0) {
    return finish(DataLossError("cannot stat snapshot: " + path + ": " + std::strerror(errno)));
  }
  const size_t size = static_cast<size_t>(st.st_size);

  // Map read-only when the kernel lets us; otherwise (or under the mmap
  // fault) fall back to a plain read into memory. Parsing copies all
  // payloads into owned structures, so the mapping is released on return.
  MmapGuard map;
  std::string buffer;
  std::string_view bytes;
  if (size > 0 && !KJOIN_FAULT_POINT("serve/mmap")) {
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd.fd, 0);
    if (addr != MAP_FAILED) {
      map.addr = addr;
      map.size = size;
      bytes = {static_cast<const char*>(addr), size};
    }
  }
  if (map.addr == MAP_FAILED) {
    buffer.resize(size);
    size_t off = 0;
    while (off < size) {
      ssize_t n = ::read(fd.fd, buffer.data() + off, size - off);
      if (KJOIN_FAULT_POINT("serve/short_read")) n = 0;
      if (n < 0) {
        if (errno == EINTR) continue;
        return finish(
            DataLossError("read failed: " + path + ": " + std::strerror(errno)));
      }
      if (n == 0) {
        return finish(DataLossError("short read: " + path + " (got " + std::to_string(off) +
                                    " of " + std::to_string(size) + " bytes)"));
      }
      off += static_cast<size_t>(n);
    }
    bytes = buffer;
  }
  return finish(ParseSnapshot(bytes, path));
}

StatusOr<LoadedIndex> LoadIndexSnapshotFromBytes(std::string_view bytes,
                                                 std::string_view source_name,
                                                 MetricsRegistry* metrics) {
  WallTimer timer;
  StatusOr<LoadedIndex> result = ParseSnapshot(bytes, source_name);
  RecordLoad(metrics, timer, result);
  return result;
}

QueryPipeline MakeQueryPipeline(const LoadedIndex& loaded, double min_phi) {
  KJOIN_CHECK(loaded.index != nullptr) << "MakeQueryPipeline needs a loaded index";
  const KJoinOptions& options = loaded.index->options();
  EntityMatcherOptions matcher_options;
  matcher_options.min_phi = min_phi > 0.0 ? min_phi : options.delta;
  QueryPipeline pipeline;
  pipeline.matcher = std::make_unique<EntityMatcher>(*loaded.hierarchy, matcher_options);
  for (const auto& [alias, node_label] : loaded.synonyms) {
    pipeline.matcher->AddSynonym(alias, node_label);
  }
  pipeline.builder =
      std::make_unique<ObjectBuilder>(*pipeline.matcher, options.plus_mode);
  pipeline.builder->PreloadTokens(loaded.tokens);
  return pipeline;
}

}  // namespace kjoin::serve
