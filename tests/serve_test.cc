// Serving-stack suite (docs/serving.md): snapshot round-trip fidelity,
// the corruption matrix (truncation at every boundary, bit flips, forged
// checksums, version skew), loader fault points, RCU epoch swapping in
// IndexManager, and the one-shard router's guard rails. The concurrency
// tests run under the tsan preset; the byte-surgery tests under asan.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/kjoin_index.h"
#include "data/benchmark_suite.h"
#include "serve/index_manager.h"
#include "serve/shard_router.h"
#include "serve/snapshot.h"
#include "search_helpers.h"

namespace kjoin {
namespace {

using test::SearchAll;
using test::TopK;

// ------------------------------------------------------- shared fixture

constexpr int64_t kRecords = 240;

// One built index + its serialized snapshot, shared across tests (the
// build is the expensive part; every test treats it as immutable). The
// hierarchy lives behind a shared_ptr so IndexManager epochs can share it.
struct ServeStack {
  Dataset dataset;
  std::shared_ptr<const Hierarchy> hierarchy;
  PreparedObjects prepared;
  std::optional<KJoinIndex> index;
  std::string bytes;  // SerializeIndexSnapshot of `index`
};

ServeStack& Stack() {
  static ServeStack* stack = [] {
    auto* s = new ServeStack();
    BenchmarkData data = MakePoiBenchmark(kRecords, /*seed=*/77);
    s->dataset = std::move(data.dataset);
    s->hierarchy = std::make_shared<const Hierarchy>(std::move(data.hierarchy));
    s->prepared = BuildObjects(*s->hierarchy, s->dataset,
                               /*multi_mapping=*/true, /*min_phi=*/0.8);
    KJoinOptions options;
    options.delta = 0.8;
    options.tau = 0.6;
    options.plus_mode = true;
    s->index.emplace(*s->hierarchy, options, s->prepared.objects);
    serve::SnapshotInput input;
    input.index = &*s->index;
    input.tokens = s->prepared.builder->TokenTable();
    input.synonyms = s->dataset.synonyms;
    s->bytes = serve::SerializeIndexSnapshot(input);
    return s;
  }();
  return *stack;
}

// Query workload: perturbed copies of indexed records (drop one token),
// built by whichever builder matches the index under test.
std::vector<Object> MakeQueries(ObjectBuilder* builder, int count) {
  const Dataset& dataset = Stack().dataset;
  std::vector<Object> queries;
  queries.reserve(count);
  for (int q = 0; q < count; ++q) {
    std::vector<std::string> tokens =
        dataset.records[(q * 97) % dataset.records.size()].tokens;
    if (tokens.empty()) continue;
    if (q % 2 == 1) tokens.pop_back();
    queries.push_back(builder->Build(-1, tokens));
  }
  return queries;
}

// ----------------------------------------------------- byte surgery

constexpr size_t kHeaderBytes = 16;
constexpr size_t kEntryBytes = 24;

uint32_t ReadU32(const std::string& bytes, size_t offset) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(bytes[offset + i]);
  return v;
}

uint64_t ReadU64(const std::string& bytes, size_t offset) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(bytes[offset + i]);
  return v;
}

void WriteU32(std::string* bytes, size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) (*bytes)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

struct Section {
  size_t entry_offset = 0;  // of its 24-byte table entry
  size_t offset = 0;        // payload
  size_t size = 0;
};

std::vector<Section> SectionTable(const std::string& bytes) {
  const uint32_t count = ReadU32(bytes, 8);
  std::vector<Section> sections(count);
  for (uint32_t i = 0; i < count; ++i) {
    Section& s = sections[i];
    s.entry_offset = kHeaderBytes + i * kEntryBytes;
    s.offset = ReadU64(bytes, s.entry_offset + 8);
    s.size = ReadU64(bytes, s.entry_offset + 16);
  }
  return sections;
}

// After editing the table or a payload, restore the checksums the loader
// verifies first so the edit (not the CRC) is what gets exercised.
void FixSectionCrc(std::string* bytes, const Section& section) {
  WriteU32(bytes, section.entry_offset + 4,
           serve::Crc32(std::string_view(*bytes).substr(section.offset, section.size)));
}

void FixTableCrc(std::string* bytes) {
  const uint32_t count = ReadU32(*bytes, 8);
  WriteU32(bytes, 12,
           serve::Crc32(std::string_view(*bytes).substr(kHeaderBytes, count * kEntryBytes)));
}

Status LoadStatus(const std::string& bytes) {
  auto loaded = serve::LoadIndexSnapshotFromBytes(bytes, "corrupt");
  return loaded.ok() ? OkStatus() : loaded.status();
}

// ------------------------------------------------------- round trip

TEST(SnapshotTest, RoundTripSearchIdentical) {
  ServeStack& stack = Stack();
  auto loaded = serve::LoadIndexSnapshotFromBytes(stack.bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->index->num_indexed(), stack.index->num_indexed());
  EXPECT_EQ(loaded->index->options().tau, stack.index->options().tau);
  EXPECT_EQ(loaded->index->options().delta, stack.index->options().delta);
  EXPECT_EQ(loaded->index->options().plus_mode, stack.index->options().plus_mode);
  EXPECT_EQ(loaded->tokens, stack.prepared.builder->TokenTable());
  EXPECT_EQ(loaded->synonyms, stack.dataset.synonyms);

  // Queries built by the restored pipeline must be token-id-compatible:
  // every threshold and top-k answer (hits, candidate counts, verify
  // stats) is byte-identical to the original index's.
  serve::QueryPipeline pipeline = serve::MakeQueryPipeline(*loaded);
  const std::vector<Object> original_queries = MakeQueries(stack.prepared.builder.get(), 40);
  const std::vector<Object> loaded_queries = MakeQueries(pipeline.builder.get(), 40);
  ASSERT_EQ(original_queries.size(), loaded_queries.size());
  int64_t total_hits = 0;
  for (size_t q = 0; q < original_queries.size(); ++q) {
    const JoinControl control;
    std::vector<SearchHit> expected, actual;
    SearchStats expected_stats, actual_stats;
    const double tau = stack.index->options().tau;
    ASSERT_TRUE(stack.index
                    ->SearchTopK(original_queries[q], 0, tau, control, &expected,
                                 &expected_stats)
                    .ok());
    ASSERT_TRUE(loaded->index
                    ->SearchTopK(loaded_queries[q], 0, tau, control, &actual, &actual_stats)
                    .ok());
    EXPECT_EQ(expected, actual) << "query " << q;
    EXPECT_EQ(expected_stats.candidates, actual_stats.candidates) << "query " << q;
    total_hits += static_cast<int64_t>(actual.size());

    const auto expected_topk = TopK(*stack.index, original_queries[q], 3, 0.6);
    const auto actual_topk = TopK(*loaded->index, loaded_queries[q], 3, 0.6);
    EXPECT_EQ(expected_topk, actual_topk) << "query " << q;
  }
  EXPECT_GT(total_hits, 0);  // the workload must actually exercise search
}

TEST(SnapshotTest, SerializationIsDeterministic) {
  ServeStack& stack = Stack();
  serve::SnapshotInput input;
  input.index = &*stack.index;
  input.tokens = stack.prepared.builder->TokenTable();
  input.synonyms = stack.dataset.synonyms;
  EXPECT_EQ(serve::SerializeIndexSnapshot(input), stack.bytes);
}

// A delta layer serializes through the collapse path (Flatten merges the
// layers' stores). Layering half the collection over the other half must
// serialize to exactly the bytes of the index built over all of it at
// once.
TEST(SnapshotTest, DeltaLayerSerializesLikeOneBuiltAtOnce) {
  ServeStack& stack = Stack();
  const std::vector<Object>& objects = stack.prepared.objects;
  const auto half = static_cast<std::ptrdiff_t>(objects.size() / 2);
  const auto base = std::make_shared<const KJoinIndex>(
      *stack.hierarchy, stack.index->options(),
      std::vector<Object>(objects.begin(), objects.begin() + half));
  const KJoinIndex layered(base, std::vector<Object>(objects.begin() + half, objects.end()), {});
  ASSERT_EQ(layered.delta_depth(), 1);
  serve::SnapshotInput input;
  input.index = &layered;
  input.tokens = stack.prepared.builder->TokenTable();
  input.synonyms = stack.dataset.synonyms;
  EXPECT_EQ(serve::SerializeIndexSnapshot(input), stack.bytes);
}

TEST(SnapshotTest, ReloadOfResavedSnapshotIsByteIdentical) {
  ServeStack& stack = Stack();
  auto loaded = serve::LoadIndexSnapshotFromBytes(stack.bytes);
  ASSERT_TRUE(loaded.ok());
  serve::SnapshotInput input;
  input.index = loaded->index.get();
  input.tokens = loaded->tokens;
  input.synonyms = loaded->synonyms;
  EXPECT_EQ(serve::SerializeIndexSnapshot(input), stack.bytes);
}

TEST(SnapshotTest, EmptyTokenTableIsReconstructedFromObjects) {
  ServeStack& stack = Stack();
  serve::SnapshotInput input;
  input.index = &*stack.index;  // no tokens, no synonyms
  auto loaded = serve::LoadIndexSnapshotFromBytes(serve::SerializeIndexSnapshot(input));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  serve::QueryPipeline pipeline = serve::MakeQueryPipeline(*loaded);
  // A record searched verbatim must still retrieve itself: every token id
  // referenced by an indexed object survived the reconstruction.
  const Record& record = stack.dataset.records[7];
  const Object query = pipeline.builder->Build(-1, record.tokens);
  const std::vector<SearchHit> hits = SearchAll(*loaded->index, query);
  bool found_self = false;
  for (const SearchHit& hit : hits) found_self |= hit.object_index == 7;
  EXPECT_TRUE(found_self);
}

TEST(SnapshotTest, SaveAndLoadFileWithMetrics) {
  ServeStack& stack = Stack();
  const std::string path = testing::TempDir() + "/serve_test_roundtrip.snap";
  serve::SnapshotInput input;
  input.index = &*stack.index;
  input.tokens = stack.prepared.builder->TokenTable();
  input.synonyms = stack.dataset.synonyms;
  ASSERT_TRUE(serve::SaveIndexSnapshot(input, path).ok());

  MetricsRegistry metrics;
  auto loaded = serve::LoadIndexSnapshot(path, &metrics);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->file_bytes, stack.bytes.size());
  EXPECT_EQ(loaded->index->num_indexed(), stack.index->num_indexed());
  EXPECT_EQ(metrics.counter("snapshot.loads")->value(), 1);
  EXPECT_EQ(metrics.counter("snapshot.load_bytes")->value(),
            static_cast<int64_t>(stack.bytes.size()));
  EXPECT_EQ(metrics.counter("snapshot.load_failures")->value(), 0);
  EXPECT_EQ(metrics.histogram("snapshot.load_seconds")->count(), 1);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  MetricsRegistry metrics;
  auto loaded = serve::LoadIndexSnapshot("/nonexistent/kjoin.snap", &metrics);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(IsNotFound(loaded.status())) << loaded.status().ToString();
  EXPECT_EQ(metrics.counter("snapshot.load_failures")->value(), 1);
}

// ------------------------------------------------------- corruption

TEST(SnapshotCorruptionTest, TruncationAtEveryBoundaryFailsCleanly) {
  const std::string& bytes = Stack().bytes;
  const std::vector<Section> sections = SectionTable(bytes);
  std::set<size_t> cuts = {0, 1, 4, 8, 15, kHeaderBytes,
                           kHeaderBytes + sections.size() * kEntryBytes - 1,
                           kHeaderBytes + sections.size() * kEntryBytes,
                           bytes.size() - 1};
  for (const Section& section : sections) {
    cuts.insert(section.offset);          // section fully missing
    cuts.insert(section.offset + 1);      // cut inside the payload
    cuts.insert(section.offset + section.size - 1);  // last byte missing
  }
  for (size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    const Status status = LoadStatus(bytes.substr(0, cut));
    ASSERT_FALSE(status.ok()) << "prefix of " << cut << " bytes was accepted";
    EXPECT_TRUE(IsDataLoss(status) || IsInvalidArgument(status))
        << "prefix " << cut << ": " << status.ToString();
  }
}

TEST(SnapshotCorruptionTest, BitFlipInEachSectionIsDataLoss) {
  const std::string& pristine = Stack().bytes;
  for (const Section& section : SectionTable(pristine)) {
    std::string bytes = pristine;
    bytes[section.offset + section.size / 2] ^= 0x40;
    const Status status = LoadStatus(bytes);
    ASSERT_FALSE(status.ok());
    EXPECT_TRUE(IsDataLoss(status)) << status.ToString();
  }
}

TEST(SnapshotCorruptionTest, SectionTableFlipIsDataLoss) {
  std::string bytes = Stack().bytes;
  bytes[kHeaderBytes + 5] ^= 0x01;  // inside the first entry, CRC-covered
  const Status status = LoadStatus(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsDataLoss(status)) << status.ToString();
}

TEST(SnapshotCorruptionTest, WrongMagicIsInvalidArgument) {
  std::string bytes = Stack().bytes;
  WriteU32(&bytes, 0, 0x31544147);  // "GAT1"
  const Status status = LoadStatus(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsInvalidArgument(status)) << status.ToString();
}

TEST(SnapshotCorruptionTest, VersionSkewIsInvalidArgument) {
  std::string bytes = Stack().bytes;
  WriteU32(&bytes, 4, serve::kSnapshotFormatVersion + 9);
  const Status status = LoadStatus(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsInvalidArgument(status)) << status.ToString();
  // The message must tell the operator which versions are involved.
  EXPECT_NE(status.message().find(std::to_string(serve::kSnapshotFormatVersion + 9)),
            std::string::npos)
      << status.ToString();
}

TEST(SnapshotCorruptionTest, FormatV3IsInvalidArgument) {
  // v4 dropped OPTS's two similarity-cache fields; a v3 file is refused
  // as version skew before any section is parsed.
  std::string bytes = Stack().bytes;
  WriteU32(&bytes, 4, 3);
  const Status status = LoadStatus(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsInvalidArgument(status)) << status.ToString();
  EXPECT_NE(status.message().find("version 3"), std::string::npos) << status.ToString();
}

TEST(SnapshotCorruptionTest, BadSectionCountFailsCleanly) {
  std::string bytes = Stack().bytes;
  WriteU32(&bytes, 8, 4096);  // table would run past EOF
  const Status status = LoadStatus(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsDataLoss(status) || IsInvalidArgument(status)) << status.ToString();
}

TEST(SnapshotCorruptionTest, UnknownTagIsRejected) {
  std::string bytes = Stack().bytes;
  const std::vector<Section> sections = SectionTable(bytes);
  WriteU32(&bytes, sections[0].entry_offset, 0x58585858);  // "XXXX"
  FixTableCrc(&bytes);
  const Status status = LoadStatus(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsInvalidArgument(status)) << status.ToString();
}

TEST(SnapshotCorruptionTest, DuplicateTagIsRejected) {
  std::string bytes = Stack().bytes;
  const std::vector<Section> sections = SectionTable(bytes);
  ASSERT_GE(sections.size(), 2u);
  WriteU32(&bytes, sections[1].entry_offset, ReadU32(bytes, sections[0].entry_offset));
  FixTableCrc(&bytes);
  const Status status = LoadStatus(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsInvalidArgument(status)) << status.ToString();
}

// A CRC-valid snapshot whose TOKS table repeats a string must fail the
// load cleanly: the table feeds ObjectBuilder::PreloadTokens, whose
// intern map CHECK-fails on a repeat, so the parser is the last chance
// to turn the forgery into a Status instead of a process abort.
TEST(SnapshotCorruptionTest, DuplicateTokenEntryIsRejected) {
  serve::SnapshotInput input;
  input.index = &*Stack().index;
  input.tokens = Stack().prepared.builder->TokenTable();
  ASSERT_FALSE(input.tokens.empty());
  input.tokens.push_back(input.tokens.front());
  const Status status = LoadStatus(serve::SerializeIndexSnapshot(input));
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsInvalidArgument(status)) << status.ToString();
}

// A corrupted payload with its checksums recomputed gets past the CRC
// layer on purpose: the structural validators are the last line of
// defense and must turn garbage into a clean Status, never a crash or an
// out-of-bounds access (this is the asan-preset half of the contract).
TEST(SnapshotCorruptionTest, ForgedChecksumsStillFailStructuralValidation) {
  const std::string& pristine = Stack().bytes;
  const std::vector<Section> sections = SectionTable(pristine);
  int rejected = 0;
  int accepted = 0;
  for (const Section& section : sections) {
    for (int probe = 0; probe < 8; ++probe) {
      std::string bytes = pristine;
      const size_t at = section.offset + (section.size * probe) / 8;
      bytes[at] = static_cast<char>(0xFF);
      FixSectionCrc(&bytes, section);
      FixTableCrc(&bytes);
      const Status status = LoadStatus(bytes);
      if (status.ok()) {
        ++accepted;  // the flip landed on a byte whose 0xFF value is legal
      } else {
        ++rejected;
        EXPECT_TRUE(IsDataLoss(status) || IsInvalidArgument(status)) << status.ToString();
      }
    }
  }
  // Most probes must hit a validator (counts, ids, enum ranges); if they
  // all pass, the validators are not actually wired in.
  EXPECT_GT(rejected, accepted);
}

TEST(SnapshotCorruptionTest, GarbageInputsFailCleanly) {
  EXPECT_FALSE(LoadStatus("").ok());
  EXPECT_FALSE(LoadStatus("KJSN").ok());
  EXPECT_FALSE(LoadStatus(std::string(4096, '\xAB')).ok());
  std::string zeros(Stack().bytes.size(), '\0');
  EXPECT_FALSE(LoadStatus(zeros).ok());
}

// ------------------------------------------------------- fault points

TEST(SnapshotFaultTest, OpenFaultFailsLoad) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const std::string path = testing::TempDir() + "/serve_test_fault.snap";
  serve::SnapshotInput input;
  input.index = &*Stack().index;
  ASSERT_TRUE(serve::SaveIndexSnapshot(input, path).ok());

  fault::Scope scope;
  fault::Enable("serve/open");
  auto loaded = serve::LoadIndexSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(SnapshotFaultTest, MmapFaultFallsBackToRead) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const std::string path = testing::TempDir() + "/serve_test_fault.snap";
  serve::SnapshotInput input;
  input.index = &*Stack().index;
  input.tokens = Stack().prepared.builder->TokenTable();
  ASSERT_TRUE(serve::SaveIndexSnapshot(input, path).ok());

  fault::Scope scope;
  fault::Enable("serve/mmap");  // mmap "fails"; plain reads must serve the file
  auto loaded = serve::LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->index->num_indexed(), Stack().index->num_indexed());
  std::remove(path.c_str());
}

TEST(SnapshotFaultTest, ShortReadIsDataLoss) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const std::string path = testing::TempDir() + "/serve_test_fault.snap";
  serve::SnapshotInput input;
  input.index = &*Stack().index;
  ASSERT_TRUE(serve::SaveIndexSnapshot(input, path).ok());

  fault::Scope scope;
  fault::Enable("serve/mmap");  // route through the read fallback...
  fault::Enable("serve/short_read");  // ...and tear it
  auto loaded = serve::LoadIndexSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(IsDataLoss(loaded.status())) << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotFaultTest, SectionCrcFaultIsDataLoss) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  fault::Scope scope;
  fault::Enable("serve/section_crc");
  const Status status = LoadStatus(Stack().bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsDataLoss(status)) << status.ToString();
}

TEST(SnapshotFaultTest, WriteFaultIsDataLossAndRemovesFile) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const std::string path = testing::TempDir() + "/serve_test_fault.snap";
  fault::Scope scope;
  fault::Enable("serve/write");
  serve::SnapshotInput input;
  input.index = &*Stack().index;
  const Status status = serve::SaveIndexSnapshot(input, path);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsDataLoss(status)) << status.ToString();
  // No torn half-file left behind for a later load to trip over.
  EXPECT_FALSE(serve::LoadIndexSnapshot(path).ok());
}

// ------------------------------------------- concurrent index search

// Satellite of docs/serving.md: SearchTopK is safe for any number of
// concurrent readers, and concurrency never changes answers — on a flat
// index and on a two-layer chain with tombstones. Runs under the tsan
// preset.
TEST(ConcurrentSearchTest, EightReadersMatchSerial) {
  ServeStack& stack = Stack();
  const std::vector<Object> queries = MakeQueries(stack.prepared.builder.get(), 24);
  const std::vector<Object>& objects = stack.prepared.objects;
  const auto cut = static_cast<std::ptrdiff_t>(objects.size() * 2 / 3);
  const auto base = std::make_shared<const KJoinIndex>(
      *stack.hierarchy, stack.index->options(),
      std::vector<Object>(objects.begin(), objects.begin() + cut));
  const std::vector<int32_t> tombstones = {1, 5, 97, static_cast<int32_t>(cut) + 3};
  const KJoinIndex chain(base, std::vector<Object>(objects.begin() + cut, objects.end()),
                         tombstones);

  for (const KJoinIndex* index : {static_cast<const KJoinIndex*>(&*stack.index), &chain}) {
    std::vector<std::vector<SearchHit>> serial(queries.size());
    std::vector<std::vector<SearchHit>> serial_topk(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      serial[q] = SearchAll(*index, queries[q]);
      serial_topk[q] = TopK(*index, queries[q], 3, 0.6);
    }

    constexpr int kThreads = 8;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t q = t % 3; q < queries.size(); ++q) {  // staggered starts
          if (SearchAll(*index, queries[q]) != serial[q]) mismatches.fetch_add(1);
          if (TopK(*index, queries[q], 3, 0.6) != serial_topk[q]) mismatches.fetch_add(1);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0) << "delta depth " << index->delta_depth();
  }
}

// A top-k search that trips its deadline mid-scan still honors the
// caller's contract on the partial result: at most k hits, all at or
// above min_similarity. The microsecond deadlines pass the initial check
// but expire by the first control poll (every 8 verifications), so the
// trip lands with unfiltered hits accumulated — exactly the case where a
// raw early return would leak below-floor and beyond-k hits.
TEST(ConcurrentSearchTest, TrippedTopKStillFiltersAndTruncates) {
  ServeStack& stack = Stack();
  const std::vector<Object> queries = MakeQueries(stack.prepared.builder.get(), 24);
  const double floor = 0.9;  // above tau = 0.6, so some proven hits get filtered
  for (const Object& query : queries) {
    for (const double deadline : {1e-12, 1e-7, 1e-6, 1e-5}) {
      JoinControl control;
      control.deadline_seconds = deadline;
      std::vector<SearchHit> hits;
      const Status status = stack.index->SearchTopK(query, /*k=*/1, floor, control, &hits);
      if (!status.ok()) {
        EXPECT_TRUE(IsDeadlineExceeded(status)) << status.ToString();
      }
      EXPECT_LE(hits.size(), 1u);
      for (const SearchHit& hit : hits) EXPECT_GE(hit.similarity + 1e-9, floor);
    }
  }
}

// --------------------------------------------------- IndexManager

// Fresh objects for insertion, id-contiguous with the shared collection.
std::vector<Object> MakeInserts(ObjectBuilder* builder, int count, int32_t first_id) {
  const Dataset& dataset = Stack().dataset;
  std::vector<Object> batch;
  batch.reserve(count);
  for (int i = 0; i < count; ++i) {
    batch.push_back(builder->Build(first_id + i,
                                   dataset.records[i % dataset.records.size()].tokens));
  }
  return batch;
}

std::unique_ptr<serve::IndexManager> MakeManager(ThreadPool* pool,
                                                 MetricsRegistry* metrics = nullptr) {
  ServeStack& stack = Stack();
  KJoinOptions options = stack.index->options();
  return std::make_unique<serve::IndexManager>(
      stack.hierarchy, options, stack.prepared.objects,
      stack.prepared.builder->TokenTable(), stack.dataset.synonyms, pool, metrics);
}

TEST(IndexManagerTest, InsertPublishesNewEpochOldReadersUnaffected) {
  MetricsRegistry metrics;
  std::unique_ptr<serve::IndexManager> manager = MakeManager(nullptr, &metrics);
  EXPECT_EQ(manager->version(), 1);

  const auto old_epoch = manager->Acquire();
  const int64_t before = old_epoch->index->num_indexed();

  manager->InsertBatch(MakeInserts(Stack().prepared.builder.get(), 10,
                                   static_cast<int32_t>(kRecords)));
  manager->Flush();

  // The held epoch is immutable; the new one has the batch applied.
  EXPECT_EQ(old_epoch->index->num_indexed(), before);
  EXPECT_EQ(old_epoch->version, 1);
  const auto new_epoch = manager->Acquire();
  EXPECT_EQ(new_epoch->version, 2);
  EXPECT_EQ(new_epoch->index->num_indexed(), before + 10);
  EXPECT_EQ(manager->pending_inserts(), 0);
  EXPECT_EQ(metrics.counter("manager.swaps")->value(), 1);
  EXPECT_EQ(metrics.counter("manager.inserts")->value(), 10);

  // An inserted record is searchable at the new epoch: verbatim self-query.
  const Record& record = Stack().dataset.records[0];
  const Object query = Stack().prepared.builder->Build(-1, record.tokens);
  bool found_insert = false;
  for (const SearchHit& hit : SearchAll(*new_epoch->index, query)) {
    found_insert |= hit.object_index >= static_cast<int32_t>(before);
  }
  EXPECT_TRUE(found_insert);
}

TEST(IndexManagerTest, BackgroundRebuildOnPool) {
  ThreadPool pool(2);
  std::unique_ptr<serve::IndexManager> manager = MakeManager(&pool);
  manager->InsertBatch(MakeInserts(Stack().prepared.builder.get(), 5,
                                   static_cast<int32_t>(kRecords)));
  manager->Flush();  // barrier: the scheduled rebuild has been applied
  EXPECT_EQ(manager->version(), 2);
  EXPECT_EQ(manager->Acquire()->index->num_indexed(),
            Stack().index->num_indexed() + 5);
}

// Readers spin on Acquire+Search while batches land: versions only move
// forward, collection sizes never shrink, and every acquired epoch is a
// complete index. Runs under the tsan preset.
TEST(IndexManagerTest, ConcurrentReadersDuringSwaps) {
  ThreadPool pool(2);
  std::unique_ptr<serve::IndexManager> manager = MakeManager(&pool);
  const Object query = Stack().prepared.builder->Build(
      -1, Stack().dataset.records[3].tokens);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      int64_t last_version = 0;
      int64_t last_size = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto epoch = manager->Acquire();
        if (epoch->version < last_version) violations.fetch_add(1);
        if (epoch->index->num_indexed() < last_size) violations.fetch_add(1);
        last_version = epoch->version;
        last_size = epoch->index->num_indexed();
        if (SearchAll(*epoch->index, query).empty()) violations.fetch_add(1);
      }
    });
  }
  for (int batch = 0; batch < 3; ++batch) {
    manager->InsertBatch(MakeInserts(Stack().prepared.builder.get(), 4,
                                     static_cast<int32_t>(kRecords + batch * 4)));
  }
  manager->Flush();
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(manager->Acquire()->index->num_indexed(), Stack().index->num_indexed() + 12);
}

// Regression for the write-path token bug: InsertBatch used to blindly
// overwrite the pending table, so of two racing token-carrying batches
// the later ack silently won — even if its table was older and SHORTER,
// un-interning ids the other batch's objects already used. The table
// must be validated as an append-only extension of the last acked one.
TEST(IndexManagerTest, RacingTokenTablesValidatedAppendOnly) {
  std::unique_ptr<serve::IndexManager> manager = MakeManager(nullptr);
  const std::vector<std::string> base = Stack().prepared.builder->TokenTable();

  std::vector<std::string> first = base;
  first.push_back("race_tok_a");
  ASSERT_TRUE(manager
                  ->InsertBatch(MakeInserts(Stack().prepared.builder.get(), 2,
                                            static_cast<int32_t>(kRecords)),
                                first)
                  .ok());

  // The losing racer arrives with the stale (pre-extension) table: with
  // the old overwrite semantics this would shrink the published table.
  const Status stale =
      manager->InsertBatch(MakeInserts(Stack().prepared.builder.get(), 2,
                                       static_cast<int32_t>(kRecords) + 2),
                           base);
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(IsInvalidArgument(stale)) << stale.ToString();
  EXPECT_NE(stale.message().find("shrank"), std::string::npos) << stale.ToString();

  // A rewrite of an existing id is just as invalid as a shrink.
  std::vector<std::string> rewritten = first;
  rewritten[0] = "hijacked_id_0";
  const Status hijack = manager->InsertBatch(
      MakeInserts(Stack().prepared.builder.get(), 1, static_cast<int32_t>(kRecords) + 4),
      rewritten);
  ASSERT_FALSE(hijack.ok());
  EXPECT_TRUE(IsInvalidArgument(hijack)) << hijack.ToString();

  // A genuine extension still lands, and the failed batches left nothing.
  std::vector<std::string> second = first;
  second.push_back("race_tok_b");
  ASSERT_TRUE(manager
                  ->InsertBatch(MakeInserts(Stack().prepared.builder.get(), 2,
                                            static_cast<int32_t>(kRecords) + 2),
                                second)
                  .ok());
  manager->Flush();
  const auto epoch = manager->Acquire();
  EXPECT_EQ(epoch->tokens, second);
  EXPECT_EQ(epoch->index->num_indexed(), Stack().index->num_indexed() + 4);

  // Concurrent racers whose tables are each valid extensions of what
  // they raced against: at least one must win, the table never shrinks,
  // and the final table is always a prefix-extension of `second`. Runs
  // under the tsan preset.
  std::vector<std::string> third = second;
  third.push_back("race_tok_c");
  std::vector<std::string> fourth = third;
  fourth.push_back("race_tok_d");
  std::atomic<int> accepted{0};
  std::thread racer_a([&] {
    if (manager
            ->InsertBatch(MakeInserts(Stack().prepared.builder.get(), 1,
                                      static_cast<int32_t>(kRecords) + 4),
                          third)
            .ok()) {
      accepted.fetch_add(1);
    }
  });
  std::thread racer_b([&] {
    if (manager
            ->InsertBatch(MakeInserts(Stack().prepared.builder.get(), 1,
                                      static_cast<int32_t>(kRecords) + 5),
                          fourth)
            .ok()) {
      accepted.fetch_add(1);
    }
  });
  racer_a.join();
  racer_b.join();
  manager->Flush();
  EXPECT_GE(accepted.load(), 1);
  const auto final_epoch = manager->Acquire();
  ASSERT_GE(final_epoch->tokens.size(), third.size());
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(final_epoch->tokens[i], second[i]);
  }
}

TEST(IndexManagerTest, DeleteHidesHitsAndUpdateReplaces) {
  MetricsRegistry metrics;
  std::unique_ptr<serve::IndexManager> manager = MakeManager(nullptr, &metrics);
  const auto deletes = [&] { return metrics.counter("manager.deletes")->value(); };
  const Record& record = Stack().dataset.records[5];
  const Object self_query = Stack().prepared.builder->Build(-1, record.tokens);

  auto hit_indexes = [&](const std::shared_ptr<const serve::IndexEpoch>& epoch) {
    std::set<int32_t> indexes;
    for (const SearchHit& hit : SearchAll(*epoch->index, self_query)) {
      indexes.insert(hit.object_index);
    }
    return indexes;
  };
  ASSERT_TRUE(hit_indexes(manager->Acquire()).count(5));

  ASSERT_TRUE(manager->DeleteObjects({5}).ok());
  manager->Flush();
  EXPECT_EQ(deletes(), 1);
  const auto after_delete = manager->Acquire();
  EXPECT_FALSE(hit_indexes(after_delete).count(5));
  EXPECT_TRUE(after_delete->index->deleted(5));
  EXPECT_EQ(after_delete->index->num_live(), Stack().index->num_indexed() - 1);
  // Deleting again is an ack'd no-op, not an error.
  ASSERT_TRUE(manager->DeleteObjects({5}).ok());
  manager->Flush();
  EXPECT_EQ(manager->Acquire()->index->num_live(), Stack().index->num_indexed() - 1);
  EXPECT_EQ(deletes(), 1);

  // Update: object 6 moves to a fresh index in one published epoch.
  const Object replacement = Stack().prepared.builder->Build(
      6, Stack().dataset.records[6].tokens);
  ASSERT_TRUE(manager->UpdateObject(6, replacement).ok());
  manager->Flush();
  EXPECT_EQ(deletes(), 2);
  const auto after_update = manager->Acquire();
  EXPECT_TRUE(after_update->index->deleted(6));
  const int32_t new_slot = static_cast<int32_t>(after_update->index->num_indexed()) - 1;
  EXPECT_FALSE(after_update->index->deleted(new_slot));
  const Object probe = Stack().prepared.builder->Build(
      -1, Stack().dataset.records[6].tokens);
  std::set<int32_t> indexes;
  for (const SearchHit& hit : SearchAll(*after_update->index, probe)) {
    indexes.insert(hit.object_index);
  }
  EXPECT_FALSE(indexes.count(6));
  EXPECT_TRUE(indexes.count(new_slot));

  // An index listed twice in one batch hides one object.
  ASSERT_TRUE(manager->DeleteObjects({7, 7}).ok());
  manager->Flush();
  EXPECT_EQ(deletes(), 3);
  EXPECT_EQ(manager->Acquire()->index->num_live(), Stack().index->num_indexed() - 2);

  // Bounds are validated before anything is acked.
  const Status oob = manager->DeleteObjects({static_cast<int32_t>(1 << 20)});
  ASSERT_FALSE(oob.ok());
  EXPECT_TRUE(IsInvalidArgument(oob)) << oob.ToString();
}

TEST(IndexManagerTest, SaveSnapshotAndLoadFrom) {
  const std::string path = testing::TempDir() + "/serve_test_manager.snap";
  std::unique_ptr<serve::IndexManager> manager = MakeManager(nullptr);
  manager->InsertBatch(MakeInserts(Stack().prepared.builder.get(), 3,
                                   static_cast<int32_t>(kRecords)),
                       Stack().prepared.builder->TokenTable());
  manager->Flush();
  ASSERT_TRUE(manager->SaveSnapshot(path).ok());

  auto restored = serve::IndexManager::LoadFrom(path, nullptr);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->version(), 1);  // a loaded snapshot starts a new lineage
  EXPECT_EQ((*restored)->Acquire()->index->num_indexed(),
            Stack().index->num_indexed() + 3);
  std::remove(path.c_str());
}

// ------------------------------------------- the one-shard router

// The unsharded front end: the router over one LocalShard that covers a
// whole IndexManager.
struct OneShardRouter {
  explicit OneShardRouter(ThreadPool* pool, serve::ShardRouterOptions options = {},
                          MetricsRegistry* metrics = nullptr)
      : manager(MakeManager(pool)),
        shard(manager.get()),
        router({&shard}, pool, options, metrics) {}

  std::unique_ptr<serve::IndexManager> manager;
  serve::LocalShard shard;
  serve::ShardRouter router;
};

TEST(OneShardRouterTest, ThresholdAndTopKBasics) {
  ThreadPool pool(2);
  MetricsRegistry metrics;
  OneShardRouter stack(&pool, {}, &metrics);
  serve::ShardRouter& router = stack.router;

  serve::QueryRequest request;
  request.query = Stack().prepared.objects[5];  // an indexed object verbatim
  serve::QueryResponse response = router.Search(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.epoch_version, 1);
  ASSERT_FALSE(response.hits.empty());
  bool found_self = false;
  for (const SearchHit& hit : response.hits) found_self |= hit.object_index == 5;
  EXPECT_TRUE(found_self);
  EXPECT_GT(response.stats.candidates, 0);
  // One shard: hits keep the manager's own object indexes.
  EXPECT_EQ(response.hits, SearchAll(*stack.manager->Acquire()->index, request.query));

  request.top_k = 2;
  response = router.Search(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_LE(response.hits.size(), 2u);
  for (size_t i = 1; i < response.hits.size(); ++i) {
    EXPECT_GE(response.hits[i - 1].similarity, response.hits[i].similarity);
  }
  EXPECT_EQ(metrics.counter("router.queries")->value(), 2);
  EXPECT_EQ(metrics.histogram("router.latency_seconds")->count(), 2);
}

TEST(OneShardRouterTest, PreCancelledAndTinyDeadline) {
  ThreadPool pool(2);
  MetricsRegistry metrics;
  OneShardRouter stack(&pool, {}, &metrics);
  serve::ShardRouter& router = stack.router;

  CancelToken token;
  token.Cancel();
  serve::QueryRequest request;
  request.query = Stack().prepared.objects[0];
  request.cancel_token = &token;
  serve::QueryResponse response = router.Search(request);
  EXPECT_TRUE(IsCancelled(response.status)) << response.status.ToString();
  EXPECT_EQ(metrics.counter("router.cancelled")->value(), 1);

  request.cancel_token = nullptr;
  request.deadline_seconds = 1e-12;  // expired before the first poll
  response = router.Search(request);
  EXPECT_TRUE(IsDeadlineExceeded(response.status)) << response.status.ToString();
  EXPECT_EQ(metrics.counter("router.deadline_exceeded")->value(), 1);
}

// Regression for the min_similarity sentinel bug: only values < 0 mean
// "unset", so an explicit floor of 0.0 reaches the index's validation
// instead of silently becoming tau.
TEST(OneShardRouterTest, ExplicitZeroMinSimilarityReachesTheIndex) {
  ThreadPool pool(2);
  OneShardRouter stack(&pool);
  serve::ShardRouter& router = stack.router;

  serve::QueryRequest request;
  request.query = Stack().prepared.objects[5];
  request.top_k = 2;

  // Default (-1): index tau applies, the query succeeds.
  serve::QueryResponse response = router.Search(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_FALSE(response.hits.empty());

  // Explicit 0.0: below tau (0.6), the index must reject it — not run
  // a silently-tau'd query that looks like 0.0 worked.
  request.min_similarity = 0.0;
  response = router.Search(request);
  ASSERT_FALSE(response.status.ok());
  EXPECT_TRUE(IsInvalidArgument(response.status)) << response.status.ToString();

  // Explicit floors at and above tau behave as before.
  request.min_similarity = 0.6;
  response = router.Search(request);
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  request.min_similarity = 0.9;
  response = router.Search(request);
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  for (const SearchHit& hit : response.hits) {
    EXPECT_GE(hit.similarity + 1e-9, 0.9);
  }
}

// Eight clients with deadlines armed (but sized to never trip) return
// exactly the serial answers. Runs under the tsan preset.
TEST(OneShardRouterTest, EightClientsIdenticalToSerial) {
  ThreadPool pool(2);
  serve::ShardRouterOptions options;
  options.default_deadline_seconds = 3600; // armed, never trips
  OneShardRouter stack(&pool, options);
  serve::ShardRouter& router = stack.router;

  const std::vector<Object> queries = MakeQueries(Stack().prepared.builder.get(), 32);
  std::vector<serve::QueryRequest> requests(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    requests[q].query = queries[q];
    requests[q].top_k = q % 2 == 0 ? 3 : 0;
  }
  std::vector<std::vector<SearchHit>> serial(requests.size());
  for (size_t q = 0; q < requests.size(); ++q) {
    const serve::QueryResponse response = router.Search(requests[q]);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    serial[q] = response.hits;
  }

  constexpr int kClients = 8;
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t q = c; q < requests.size(); q += 2) {  // overlapping slices
        const serve::QueryResponse response = router.Search(requests[q]);
        if (!response.status.ok()) errors.fetch_add(1);
        if (response.hits != serial[q]) mismatches.fetch_add(1);
        if (response.epoch_version != 1) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace kjoin
