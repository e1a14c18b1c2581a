// Write-ahead-log suite (docs/serving.md, "Durability"): record framing
// round trips, the crash matrix (tail truncated or bit-flipped at and
// between every record boundary), semantic validation against the
// snapshot a log extends, fault-injected append/fsync failures, and the
// end-to-end kill-and-replay property — recovery reaches a state whose
// serialized snapshot is byte-identical to the pre-crash epoch's. Runs
// under the asan and tsan presets (fault points are compiled in there).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
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
#include "serve/snapshot.h"
#include "serve/wal.h"
#include "search_helpers.h"

namespace kjoin {
namespace {

using test::SearchAll;
using test::TopK;

// ------------------------------------------------------- shared fixture

constexpr int64_t kRecords = 200;

struct WalStack {
  Dataset dataset;
  std::shared_ptr<const Hierarchy> hierarchy;
  PreparedObjects prepared;
  KJoinOptions options;
};

WalStack& Stack() {
  static WalStack* stack = [] {
    auto* s = new WalStack();
    BenchmarkData data = MakePoiBenchmark(kRecords, /*seed=*/91);
    s->dataset = std::move(data.dataset);
    s->hierarchy = std::make_shared<const Hierarchy>(std::move(data.hierarchy));
    s->prepared = BuildObjects(*s->hierarchy, s->dataset,
                               /*multi_mapping=*/true, /*min_phi=*/0.8);
    s->options.delta = 0.8;
    s->options.tau = 0.6;
    s->options.plus_mode = true;
    return s;
  }();
  return *stack;
}

std::vector<Object> MakeInserts(int count, int64_t first_id) {
  const Dataset& dataset = Stack().dataset;
  ObjectBuilder* builder = Stack().prepared.builder.get();
  std::vector<Object> batch;
  batch.reserve(count);
  for (int i = 0; i < count; ++i) {
    batch.push_back(builder->Build(static_cast<int32_t>(first_id) + i,
                                   dataset.records[i % dataset.records.size()].tokens));
  }
  return batch;
}

std::vector<Object> MakeQueries(int count) {
  const Dataset& dataset = Stack().dataset;
  ObjectBuilder* builder = Stack().prepared.builder.get();
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

std::unique_ptr<serve::IndexManager> MakeManager(
    ThreadPool* pool, MetricsRegistry* metrics = nullptr,
    serve::IndexManagerOptions options = {}) {
  WalStack& stack = Stack();
  return std::make_unique<serve::IndexManager>(
      stack.hierarchy, stack.options, stack.prepared.objects,
      stack.prepared.builder->TokenTable(), stack.dataset.synonyms, pool, metrics,
      options);
}

std::string TempPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[1 << 14];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

serve::WalReplayInput BaseReplayInput() {
  serve::WalReplayInput input;
  input.tokens = Stack().prepared.builder->TokenTable();
  input.num_nodes = Stack().hierarchy->num_nodes();
  input.num_objects = kRecords;
  input.min_sequence_exclusive = 0;
  return input;
}

// The current epoch serialized — the "state bytes" the kill-and-replay
// property compares (postings are written sorted, so identical states
// serialize to identical bytes).
std::string StateBytes(const serve::IndexManager& manager) {
  const auto epoch = manager.Acquire();
  serve::SnapshotInput input;
  input.index = epoch->index.get();
  input.tokens = epoch->tokens;
  input.synonyms = epoch->synonyms;
  input.durable_seq = epoch->durable_seq;
  return serve::SerializeIndexSnapshot(input);
}

// ------------------------------------------------------- framing

// Appends three representative records (inserts + a token-table
// extension, deletes, plain inserts) and replays them back verbatim.
TEST(WalFormatTest, AppendReplayRoundTrip) {
  const std::string path = TempPath("wal_roundtrip.wal");
  serve::WriteAheadLog::Options options;
  options.fsync = true;
  auto wal = serve::WriteAheadLog::Open(path, options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  const std::vector<std::string> base_tokens = Stack().prepared.builder->TokenTable();
  serve::WalRecord r1;
  r1.sequence = 1;
  r1.objects = MakeInserts(3, static_cast<int32_t>(kRecords));
  r1.token_base = static_cast<int64_t>(base_tokens.size());
  r1.token_suffix = {"wal_rt_zz_1", "wal_rt_zz_2"};
  serve::WalRecord r2;
  r2.sequence = 2;
  r2.deletes = {0, 7, 42};
  serve::WalRecord r3;
  r3.sequence = 3;
  r3.objects = MakeInserts(2, static_cast<int32_t>(kRecords) + 3);
  ASSERT_TRUE((*wal)->Append(r1).ok());
  ASSERT_TRUE((*wal)->Append(r2).ok());
  ASSERT_TRUE((*wal)->Append(r3).ok());
  EXPECT_GT((*wal)->size_bytes(), static_cast<int64_t>(serve::kWalHeaderBytes));
  wal->reset();  // close before reading

  auto replay = serve::WriteAheadLog::Replay(path, BaseReplayInput());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->torn_tail);
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records[0].sequence, 1);
  EXPECT_EQ(replay->records[0].objects.size(), 3u);
  EXPECT_EQ(replay->records[0].token_base, static_cast<int64_t>(base_tokens.size()));
  EXPECT_EQ(replay->records[0].token_suffix, r1.token_suffix);
  EXPECT_EQ(replay->records[1].deletes, r2.deletes);
  EXPECT_TRUE(replay->records[1].objects.empty());
  EXPECT_EQ(replay->records[2].objects.size(), 2u);
  // Parsed objects carry the same ids and element counts they went in with.
  for (size_t i = 0; i < r3.objects.size(); ++i) {
    EXPECT_EQ(replay->records[2].objects[i].id, r3.objects[i].id);
    EXPECT_EQ(replay->records[2].objects[i].elements.size(),
              r3.objects[i].elements.size());
  }
  std::remove(path.c_str());
}

TEST(WalFormatTest, MissingFileIsEmptyLog) {
  auto replay =
      serve::WriteAheadLog::Replay(TempPath("wal_never_created.wal"), BaseReplayInput());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->records.empty());
  EXPECT_FALSE(replay->torn_tail);
}

TEST(WalFormatTest, ForeignFileIsInvalidArgument) {
  const std::string path = TempPath("wal_foreign.wal");
  WriteFile(path, "definitely not a K-Join WAL, but comfortably past 8 bytes");
  const auto replay = serve::WriteAheadLog::Replay(path, BaseReplayInput());
  EXPECT_FALSE(replay.ok());
  EXPECT_TRUE(IsInvalidArgument(replay.status())) << replay.status().ToString();
  // Open must refuse it too, untouched, rather than appending after garbage.
  const auto wal = serve::WriteAheadLog::Open(path);
  EXPECT_FALSE(wal.ok());
  EXPECT_TRUE(IsInvalidArgument(wal.status())) << wal.status().ToString();
  std::remove(path.c_str());
}

// ------------------------------------------------------- crash matrix

// Writes a small log and records the file size after every append, so
// the crash tests below know every record boundary exactly.
struct BoundedLog {
  std::string path;
  std::string bytes;               // full intact file
  std::vector<int64_t> boundaries;  // size after each append
};

BoundedLog MakeBoundedLog(const std::string& name, int records) {
  BoundedLog log;
  log.path = TempPath(name);
  auto wal = serve::WriteAheadLog::Open(log.path);
  KJOIN_CHECK(wal.ok()) << wal.status();
  for (int i = 0; i < records; ++i) {
    serve::WalRecord record;
    record.sequence = i + 1;
    record.objects = MakeInserts(1 + i % 2, static_cast<int32_t>(kRecords + i * 2));
    if (i == 1) record.deletes = {3, 9};
    KJOIN_CHECK((*wal)->Append(record).ok());
    log.boundaries.push_back((*wal)->size_bytes());
  }
  wal->reset();
  log.bytes = ReadFile(log.path);
  KJOIN_CHECK(static_cast<int64_t>(log.bytes.size()) == log.boundaries.back());
  return log;
}

// The central crash property: truncate the log at EVERY byte length and
// replay — recovery keeps exactly the records whose frames are intact
// (the last acked batch with a complete frame) and flags the torn tail.
TEST(WalCrashTest, TruncationSweepKeepsExactlyTheIntactPrefix) {
  BoundedLog log = MakeBoundedLog("wal_trunc_sweep.wal", 4);
  const auto header = static_cast<int64_t>(serve::kWalHeaderBytes);
  for (int64_t cut = 0; cut <= static_cast<int64_t>(log.bytes.size()); ++cut) {
    WriteFile(log.path, log.bytes.substr(0, static_cast<size_t>(cut)));
    const auto replay = serve::WriteAheadLog::Replay(log.path, BaseReplayInput());
    ASSERT_TRUE(replay.ok()) << "cut=" << cut << ": " << replay.status().ToString();

    size_t expected = 0;
    int64_t valid = header;
    for (const int64_t boundary : log.boundaries) {
      if (boundary <= cut) {
        ++expected;
        valid = boundary;
      }
    }
    if (cut < header) valid = 0;  // even the header is gone
    ASSERT_EQ(replay->records.size(), expected) << "cut=" << cut;
    for (size_t i = 0; i < expected; ++i) {
      ASSERT_EQ(replay->records[i].sequence, static_cast<int64_t>(i) + 1)
          << "cut=" << cut;
    }
    EXPECT_EQ(static_cast<int64_t>(replay->valid_bytes), valid) << "cut=" << cut;
    EXPECT_EQ(replay->torn_tail, valid < cut) << "cut=" << cut;
  }
  std::remove(log.path.c_str());
}

// Companion property: flip every single byte of the record region (frame
// headers and payloads alike) — the CRC must catch it, replay keeps the
// records before the flipped one and reports the tail torn.
TEST(WalCrashTest, BitFlipSweepDropsFromTheFlippedRecordOn) {
  BoundedLog log = MakeBoundedLog("wal_flip_sweep.wal", 4);
  const auto header = static_cast<int64_t>(serve::kWalHeaderBytes);
  for (int64_t at = header; at < static_cast<int64_t>(log.bytes.size()); ++at) {
    std::string corrupt = log.bytes;
    corrupt[static_cast<size_t>(at)] ^= 0x41;
    WriteFile(log.path, corrupt);
    const auto replay = serve::WriteAheadLog::Replay(log.path, BaseReplayInput());

    // Which record owns the flipped byte: the first boundary past `at`.
    size_t flipped = 0;
    while (log.boundaries[flipped] <= at) ++flipped;

    // A flip in a frame's size field can masquerade as a shorter, CRC-
    // valid prefix only if the CRC also matched — impossible for a
    // single-byte flip. It CAN make a record look truncated or oversized;
    // both stop the scan at the flipped record.
    ASSERT_TRUE(replay.ok()) << "at=" << at << ": " << replay.status().ToString();
    ASSERT_EQ(replay->records.size(), flipped) << "at=" << at;
    for (size_t i = 0; i < flipped; ++i) {
      ASSERT_EQ(replay->records[i].sequence, static_cast<int64_t>(i) + 1);
    }
    EXPECT_TRUE(replay->torn_tail) << "at=" << at;
  }
  std::remove(log.path.c_str());
}

// Open() truncates a torn tail so new appends extend the intact prefix —
// and the rewritten log replays cleanly.
TEST(WalCrashTest, OpenTruncatesTornTailAndAppendsContinue) {
  BoundedLog log = MakeBoundedLog("wal_reopen.wal", 3);
  // Tear mid-way through the last record.
  const int64_t cut = (log.boundaries[1] + log.boundaries[2]) / 2;
  WriteFile(log.path, log.bytes.substr(0, static_cast<size_t>(cut)));

  auto wal = serve::WriteAheadLog::Open(log.path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ((*wal)->size_bytes(), log.boundaries[1]);  // tail dropped
  serve::WalRecord record;
  record.sequence = 3;  // re-acked after the torn record was lost
  record.objects = MakeInserts(1, static_cast<int32_t>(kRecords + 50));
  ASSERT_TRUE((*wal)->Append(record).ok());
  wal->reset();

  const auto replay = serve::WriteAheadLog::Replay(log.path, BaseReplayInput());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records[2].sequence, 3);
  EXPECT_FALSE(replay->torn_tail);
  std::remove(log.path.c_str());
}

// ------------------------------------------------------- semantics

TEST(WalSemanticsTest, SequenceGapIsDataLoss) {
  BoundedLog log = MakeBoundedLog("wal_gap.wal", 3);
  // Splice record 2 out: [header, r1][r3].
  const std::string spliced =
      log.bytes.substr(0, static_cast<size_t>(log.boundaries[0])) +
      log.bytes.substr(static_cast<size_t>(log.boundaries[1]));
  WriteFile(log.path, spliced);
  const auto replay = serve::WriteAheadLog::Replay(log.path, BaseReplayInput());
  ASSERT_FALSE(replay.ok());
  EXPECT_TRUE(IsDataLoss(replay.status())) << replay.status().ToString();
  std::remove(log.path.c_str());
}

TEST(WalSemanticsTest, LogBehindTheSnapshotIsDataLoss) {
  BoundedLog log = MakeBoundedLog("wal_behind.wal", 2);
  // The snapshot says durable_seq = 0 but the log starts at sequence 2:
  // records were truncated beyond what the snapshot covers.
  const std::string tail_only =
      log.bytes.substr(0, serve::kWalHeaderBytes) +
      log.bytes.substr(static_cast<size_t>(log.boundaries[0]));
  WriteFile(log.path, tail_only);
  const auto replay = serve::WriteAheadLog::Replay(log.path, BaseReplayInput());
  ASSERT_FALSE(replay.ok());
  EXPECT_TRUE(IsDataLoss(replay.status())) << replay.status().ToString();
  std::remove(log.path.c_str());
}

TEST(WalSemanticsTest, ReplaySkipsRecordsTheSnapshotCovers) {
  BoundedLog log = MakeBoundedLog("wal_skip.wal", 3);
  serve::WalReplayInput input = BaseReplayInput();
  input.min_sequence_exclusive = 2;
  // Records 1-2 inserted 3 objects (1 + 2); the snapshot covers them.
  input.num_objects = kRecords + 3;
  const auto replay = serve::WriteAheadLog::Replay(log.path, input);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].sequence, 3);
  std::remove(log.path.c_str());
}

TEST(WalSemanticsTest, TruncateDropsCoveredRecordsOnly) {
  BoundedLog log = MakeBoundedLog("wal_truncate.wal", 3);
  auto wal = serve::WriteAheadLog::Open(log.path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE((*wal)->Truncate(2).ok());
  EXPECT_LT((*wal)->size_bytes(), log.boundaries[2]);
  wal->reset();

  serve::WalReplayInput input = BaseReplayInput();
  input.min_sequence_exclusive = 2;
  input.num_objects = kRecords + 3;
  const auto replay = serve::WriteAheadLog::Replay(log.path, input);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].sequence, 3);
  std::remove(log.path.c_str());
}

TEST(WalSemanticsTest, TokenTableDivergenceIsRejected) {
  const std::string path = TempPath("wal_tok_diverge.wal");
  auto wal = serve::WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  serve::WalRecord record;
  record.sequence = 1;
  // Claims to extend a 3-entry table; the snapshot's table is far bigger.
  record.token_base = 3;
  record.token_suffix = {"diverged"};
  ASSERT_TRUE((*wal)->Append(record).ok());
  wal->reset();
  const auto replay = serve::WriteAheadLog::Replay(path, BaseReplayInput());
  ASSERT_FALSE(replay.ok());
  EXPECT_TRUE(IsDataLoss(replay.status())) << replay.status().ToString();
  std::remove(path.c_str());
}

// ------------------------------------------------------- fault points

// An injected append or fsync failure must surface as a clean error on
// the mutating call, leave the served state untouched, and leave NO
// trace in the log — a batch the caller was told failed must not
// resurrect on recovery.
TEST(WalFaultTest, FailedAppendAcksNothingAndLeavesNoTrace) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault points compiled out";
  for (const char* point : {"serve/wal_append", "serve/wal_fsync"}) {
    const std::string snap = TempPath(std::string("wal_fault_") +
                                      (std::strchr(point, 'f') ? "fsync" : "append") +
                                      ".snap");
    const std::string wal = snap + ".wal";
    std::remove(wal.c_str());
    auto manager = MakeManager(nullptr);
    ASSERT_TRUE(manager->SaveSnapshot(snap).ok());
    ASSERT_TRUE(manager->AttachWal(wal).ok());
    ASSERT_TRUE(manager->InsertBatch(MakeInserts(2, kRecords)).ok());
    manager->Flush();
    const std::string before = StateBytes(*manager);
    const int64_t wal_before = manager->wal_size_bytes();

    {
      fault::Scope scope;
      fault::Enable(point);
      const Status failed = manager->InsertBatch(MakeInserts(3, kRecords + 2));
      ASSERT_FALSE(failed.ok()) << point;
      EXPECT_TRUE(IsDataLoss(failed)) << point << ": " << failed.ToString();
    }
    manager->Flush();
    // Nothing was acked: state and log both exactly as before the fault.
    EXPECT_EQ(StateBytes(*manager), before) << point;
    EXPECT_EQ(manager->wal_size_bytes(), wal_before) << point;

    // The log still appends fine, and recovery shows only acked batches.
    ASSERT_TRUE(manager->InsertBatch(MakeInserts(1, kRecords + 2)).ok());
    manager->Flush();
    const std::string after = StateBytes(*manager);
    manager.reset();
    auto recovered = serve::IndexManager::Recover(snap, wal, nullptr);
    ASSERT_TRUE(recovered.ok()) << point << ": " << recovered.status().ToString();
    EXPECT_EQ(StateBytes(**recovered), after) << point;
    std::remove(snap.c_str());
    std::remove(wal.c_str());
  }
}

// ------------------------------------------------------- recovery

// The acceptance property: snapshot, mutate through every write API,
// crash without a final snapshot, Recover() — the recovered epoch
// serializes to byte-identical state and answers every query identically.
TEST(WalRecoveryTest, KillAndReplayReachesByteIdenticalState) {
  const std::string snap = TempPath("wal_e2e.snap");
  const std::string wal = TempPath("wal_e2e.wal");
  auto manager = MakeManager(nullptr);
  ASSERT_TRUE(manager->SaveSnapshot(snap).ok());
  ASSERT_TRUE(manager->AttachWal(wal).ok());

  ObjectBuilder* builder = Stack().prepared.builder.get();
  ASSERT_TRUE(
      manager->InsertBatch(MakeInserts(6, kRecords), builder->TokenTable()).ok());
  ASSERT_TRUE(manager->DeleteObjects({2, 5}).ok());
  const Object replacement =
      builder->Build(9000, {"walwal", "replayed", "e2e_unique_token"});
  ASSERT_TRUE(manager->UpdateObject(7, replacement, builder->TokenTable()).ok());
  ASSERT_TRUE(manager->InsertBatch(MakeInserts(3, kRecords + 7)).ok());
  manager->Flush();

  const auto live = manager->Acquire();
  EXPECT_EQ(live->durable_seq, 4);
  EXPECT_GT(live->index->delta_depth(), 0);  // published as deltas, not rebuilds
  const std::string live_bytes = StateBytes(*manager);
  const std::vector<Object> queries = MakeQueries(24);
  manager.reset();  // crash: no final snapshot, the WAL is the only record

  auto recovered = serve::IndexManager::Recover(snap, wal, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const auto rec = (*recovered)->Acquire();
  EXPECT_EQ(rec->durable_seq, 4);
  EXPECT_EQ(rec->tokens, live->tokens);
  EXPECT_EQ(rec->index->num_indexed(), live->index->num_indexed());
  EXPECT_EQ(rec->index->num_live(), live->index->num_live());
  EXPECT_EQ(StateBytes(**recovered), live_bytes);
  for (const Object& query : queries) {
    EXPECT_EQ(SearchAll(*rec->index, query), SearchAll(*live->index, query));
    EXPECT_EQ(TopK(*rec->index, query, 3, 0.6),
              TopK(*live->index, query, 3, 0.6));
  }
  // The deleted objects stay deleted and the replacement is live.
  EXPECT_TRUE(rec->index->deleted(2));
  EXPECT_TRUE(rec->index->deleted(7));
  EXPECT_FALSE(rec->index->deleted(kRecords + 6));  // the update's new slot
  std::remove(snap.c_str());
  std::remove(wal.c_str());
}

// A tokens-only update (interned tokens, no objects yet) must publish
// the table without copying or re-layering the index — and must be as
// durable as any other batch.
TEST(WalRecoveryTest, TokensOnlyUpdateSharesIndexAndSurvivesReplay) {
  const std::string snap = TempPath("wal_tokens_only.snap");
  const std::string wal = TempPath("wal_tokens_only.wal");
  auto manager = MakeManager(nullptr);
  ASSERT_TRUE(manager->SaveSnapshot(snap).ok());
  ASSERT_TRUE(manager->AttachWal(wal).ok());

  const auto before = manager->Acquire();
  std::vector<std::string> extended = before->tokens;
  extended.push_back("tokens_only_zz_1");
  extended.push_back("tokens_only_zz_2");
  ASSERT_TRUE(manager->InsertBatch({}, extended).ok());
  manager->Flush();

  const auto after = manager->Acquire();
  EXPECT_EQ(after->tokens, extended);
  EXPECT_EQ(after->version, before->version + 1);
  EXPECT_EQ(after->durable_seq, 1);
  // The index was shared, not copied: same object, depth unchanged.
  EXPECT_EQ(after->index.get(), before->index.get());

  manager.reset();
  auto recovered = serve::IndexManager::Recover(snap, wal, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->Acquire()->tokens, extended);
  EXPECT_EQ((*recovered)->Acquire()->durable_seq, 1);
  std::remove(snap.c_str());
  std::remove(wal.c_str());
}

TEST(WalRecoveryTest, SaveSnapshotTruncatesTheWalAndRecoveryStillWorks) {
  const std::string snap = TempPath("wal_truncating.snap");
  const std::string wal = TempPath("wal_truncating.wal");
  auto manager = MakeManager(nullptr);
  ASSERT_TRUE(manager->SaveSnapshot(snap).ok());
  ASSERT_TRUE(manager->AttachWal(wal).ok());
  ASSERT_TRUE(manager->InsertBatch(MakeInserts(4, kRecords)).ok());
  ASSERT_TRUE(manager->InsertBatch(MakeInserts(2, kRecords + 4)).ok());
  manager->Flush();
  const int64_t grown = manager->wal_size_bytes();
  EXPECT_GT(grown, static_cast<int64_t>(serve::kWalHeaderBytes));

  // The new snapshot covers both records; the log shrinks to its header.
  ASSERT_TRUE(manager->SaveSnapshot(snap).ok());
  EXPECT_EQ(manager->wal_size_bytes(), static_cast<int64_t>(serve::kWalHeaderBytes));

  // Mutations after the snapshot land at the right sequence and replay
  // against it cleanly.
  ASSERT_TRUE(manager->DeleteObjects({1}).ok());
  manager->Flush();
  const std::string live_bytes = StateBytes(*manager);
  manager.reset();
  auto recovered = serve::IndexManager::Recover(snap, wal, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(StateBytes(**recovered), live_bytes);
  std::remove(snap.c_str());
  std::remove(wal.c_str());
}

// Satellite: snapshots taken WHILE writers are acking batches are each a
// consistent cut, and snapshot+WAL always recovers to the final state.
// Runs under the tsan preset.
TEST(WalRecoveryTest, ConcurrentInsertsAndSnapshotsRecoverIdentically) {
  const std::string snap = TempPath("wal_concurrent.snap");
  const std::string wal = TempPath("wal_concurrent.wal");
  ThreadPool pool(2);
  auto manager = MakeManager(&pool);
  ASSERT_TRUE(manager->SaveSnapshot(snap).ok());
  ASSERT_TRUE(manager->AttachWal(wal).ok());

  constexpr int kBatches = 12;
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int b = 0; b < kBatches; ++b) {
      if (!manager->InsertBatch(MakeInserts(2, kRecords + b * 2)).ok()) {
        failures.fetch_add(1);
      }
      if (b % 4 == 1 && !manager->DeleteObjects({b}).ok()) failures.fetch_add(1);
    }
  });
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(manager->SaveSnapshot(snap).ok());
  }
  writer.join();
  ASSERT_EQ(failures.load(), 0);
  manager->Flush();
  // One more snapshot cycle after the dust settles, then a final batch so
  // recovery exercises snapshot + tail records together.
  ASSERT_TRUE(manager->SaveSnapshot(snap).ok());
  ASSERT_TRUE(manager->InsertBatch(MakeInserts(1, kRecords + kBatches * 2)).ok());
  manager->Flush();
  const std::string live_bytes = StateBytes(*manager);
  manager.reset();

  auto recovered = serve::IndexManager::Recover(snap, wal, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(StateBytes(**recovered), live_bytes);
  std::remove(snap.c_str());
  std::remove(wal.c_str());
}

// ------------------------------------------------------- compaction

// Delta chains past max_delta_layers are folded into a flat base by the
// rebuild loop; answers are identical before and after, and readers keep
// their old epoch.
TEST(CompactionTest, DeepChainFoldsToFlatBaseWithIdenticalAnswers) {
  MetricsRegistry metrics;
  serve::IndexManagerOptions options;
  options.max_delta_layers = 2;
  auto manager = MakeManager(nullptr, &metrics, options);

  // Build up a reference of expected answers from an uncompacted twin.
  serve::IndexManagerOptions lazy;
  lazy.max_delta_layers = 1000;  // never compacts
  auto twin = MakeManager(nullptr, nullptr, lazy);

  for (int b = 0; b < 5; ++b) {
    std::vector<Object> batch = MakeInserts(2, static_cast<int32_t>(kRecords + b * 2));
    ASSERT_TRUE(manager->InsertBatch(batch).ok());
    ASSERT_TRUE(twin->InsertBatch(std::move(batch)).ok());
    if (b == 2) {
      const std::vector<int32_t> doomed = {4, static_cast<int32_t>(kRecords) + 1};
      ASSERT_TRUE(manager->DeleteObjects(doomed).ok());
      ASSERT_TRUE(twin->DeleteObjects(doomed).ok());
    }
  }
  manager->Flush();
  twin->Flush();

  const auto compacted = manager->Acquire();
  const auto chained = twin->Acquire();
  EXPECT_LE(compacted->index->delta_depth(), options.max_delta_layers);
  EXPECT_GT(chained->index->delta_depth(), options.max_delta_layers);
  EXPECT_GE(metrics.counter("manager.compactions")->value(), 1);
  EXPECT_EQ(compacted->index->num_indexed(), chained->index->num_indexed());
  EXPECT_EQ(compacted->index->num_live(), chained->index->num_live());
  for (const Object& query : MakeQueries(16)) {
    EXPECT_EQ(SearchAll(*compacted->index, query), SearchAll(*chained->index, query));
  }
}

}  // namespace
}  // namespace kjoin
