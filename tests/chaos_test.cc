// Self-healing serving-tier suite (docs/robustness.md, "Failure modes
// and degraded operation"): snapshot generations with failover recovery
// (corrupt newest generation -> quarantine + older generation + WAL
// replay), degraded read-only mode (trip on sustained WAL failure,
// background probe auto-recovery), and the randomized chaos harness —
// seeded fault schedules over interleaved insert/search/save/kill
// cycles, asserting the recovered state is byte-identical to the acked
// prefix. Trial count comes from
// KJOIN_CHAOS_TRIALS (scripts/check.sh --chaos runs hundreds under the
// asan and tsan presets, where fault points are compiled in).

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
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
#include "serve/snapshot_store.h"
#include "serve/wal.h"

namespace kjoin {
namespace {

// ------------------------------------------------------- shared fixture

// Small on purpose: a chaos trial builds managers and loads snapshots
// many times over; the properties under test are structural, not
// scale-sensitive.
constexpr int64_t kRecords = 60;

struct ChaosStack {
  Dataset dataset;
  std::shared_ptr<const Hierarchy> hierarchy;
  PreparedObjects prepared;
  KJoinOptions options;
};

ChaosStack& Stack() {
  static ChaosStack* stack = [] {
    auto* s = new ChaosStack();
    BenchmarkData data = MakePoiBenchmark(kRecords, /*seed=*/13);
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

std::unique_ptr<serve::IndexManager> MakeManager(
    ThreadPool* pool, MetricsRegistry* metrics = nullptr,
    serve::IndexManagerOptions options = {}) {
  ChaosStack& stack = Stack();
  return std::make_unique<serve::IndexManager>(
      stack.hierarchy, stack.options, stack.prepared.objects,
      stack.prepared.builder->TokenTable(), stack.dataset.synonyms, pool, metrics,
      options);
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

Object MakeQuery(uint64_t salt) {
  const Dataset& dataset = Stack().dataset;
  std::vector<std::string> tokens =
      dataset.records[(salt * 97) % dataset.records.size()].tokens;
  if (tokens.size() > 1 && salt % 2 == 1) tokens.pop_back();
  return Stack().prepared.builder->Build(-1, tokens);
}

// The current epoch serialized — identical states serialize to
// identical bytes (postings sorted, delta chains flattened), so this is
// the chaos harness's equality witness.
std::string StateBytes(const serve::IndexManager& manager) {
  const auto epoch = manager.Acquire();
  serve::SnapshotInput input;
  input.index = epoch->index.get();
  input.tokens = epoch->tokens;
  input.synonyms = epoch->synonyms;
  input.durable_seq = epoch->durable_seq;
  return serve::SerializeIndexSnapshot(input);
}

// ----------------------------------------------------- fs test helpers

void RemoveTree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      std::remove((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
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

bool FileExists(const std::string& path) { return ::access(path.c_str(), F_OK) == 0; }

// Flips one byte mid-file: every region is covered by a checksum (file
// header check, table CRC, or a section CRC), so the loader must reject
// the generation no matter where the flip lands.
void CorruptFile(const std::string& path, uint64_t salt) {
  std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 0u);
  const size_t at = bytes.size() / 3 + salt % (bytes.size() - bytes.size() / 3);
  bytes[at] = static_cast<char>(bytes[at] ^ 0x5A);
  WriteFile(path, bytes);
}

// Simulates a crash mid-append: garbage past the intact prefix is the
// only tear a real crash can produce (Append fsyncs before acking), and
// replay must drop it silently.
void AppendGarbage(const std::string& path, uint64_t salt) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr) << path;
  const size_t n = 1 + salt % 48;
  for (size_t i = 0; i < n; ++i) {
    const char b = static_cast<char>((salt >> (i % 8)) * 131 + i);
    std::fwrite(&b, 1, 1, f);
  }
  std::fclose(f);
}

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

serve::SnapshotInput EpochInput(const serve::IndexEpoch& epoch) {
  serve::SnapshotInput input;
  input.index = epoch.index.get();
  input.tokens = epoch.tokens;
  input.synonyms = epoch.synonyms;
  input.durable_seq = epoch.durable_seq;
  return input;
}

// --------------------------------------------------- snapshot store

TEST(SnapshotStoreTest, PublishRetainsPrunesAndReportsFloor) {
  const std::string dir = testing::TempDir() + "/kjoin_store_retain";
  RemoveTree(dir);
  MetricsRegistry metrics;
  serve::SnapshotStoreOptions options;
  options.retain = 3;
  auto store = serve::SnapshotStore::Open(dir, options, &metrics);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  auto manager = MakeManager(nullptr);
  const auto epoch = manager->Acquire();
  for (int64_t seq = 1; seq <= 5; ++seq) {
    serve::SnapshotInput input = EpochInput(*epoch);
    input.durable_seq = seq;
    auto published = (*store)->Publish(input);
    ASSERT_TRUE(published.ok()) << published.status().ToString();
    EXPECT_EQ(published->generation, seq);
    // The floor tracks the oldest *retained* generation's sequence —
    // truncating further would strand a failover target.
    EXPECT_EQ(published->wal_truncate_floor, std::max<int64_t>(1, seq - options.retain + 1));
  }

  const std::vector<serve::SnapshotGeneration> gens = (*store)->List();
  ASSERT_EQ(gens.size(), 3u);
  EXPECT_EQ(gens.front().generation, 3);
  EXPECT_EQ(gens.back().generation, 5);
  EXPECT_EQ(metrics.counter("store.publishes")->value(), 5);
  EXPECT_EQ(metrics.counter("store.pruned")->value(), 2);

  // The manifest is advisory but should describe the retained window.
  const std::string manifest = ReadFile(dir + "/MANIFEST");
  EXPECT_NE(manifest.find("gen-000000000005.kjsn"), std::string::npos);
  EXPECT_NE(manifest.find("durable_seq=5"), std::string::npos);
  EXPECT_EQ(manifest.find("gen-000000000002.kjsn"), std::string::npos);

  // Generation numbers survive reopen and never repeat.
  auto reopened = serve::SnapshotStore::Open(dir, options, &metrics);
  ASSERT_TRUE(reopened.ok());
  auto next = (*reopened)->Publish(EpochInput(*epoch));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->generation, 6);
  // The reopened store has not loaded the pre-existing generations, so
  // it cannot prove a truncation floor and must report "keep all".
  EXPECT_EQ(next->wal_truncate_floor, 0);
}

TEST(SnapshotStoreTest, RecoverFailsOverPastCorruptNewestAndQuarantines) {
  const std::string dir = testing::TempDir() + "/kjoin_store_failover";
  RemoveTree(dir);
  MetricsRegistry metrics;
  auto store = serve::SnapshotStore::Open(dir, {}, &metrics);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  auto manager = MakeManager(nullptr);
  const auto epoch = manager->Acquire();
  for (int64_t seq = 1; seq <= 3; ++seq) {
    serve::SnapshotInput input = EpochInput(*epoch);
    input.durable_seq = seq;
    ASSERT_TRUE((*store)->Publish(input).ok());
  }
  const std::vector<serve::SnapshotGeneration> gens = (*store)->List();
  ASSERT_EQ(gens.size(), 3u);
  CorruptFile(gens.back().path, /*salt=*/7);

  auto recovered = (*store)->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->generation, 2);
  EXPECT_EQ(recovered->loaded.durable_seq, 2);
  EXPECT_EQ(recovered->quarantined, 1);
  EXPECT_EQ(metrics.counter("store.quarantined")->value(), 1);
  // The corrupt file was renamed aside, not deleted: kept for forensics,
  // never scanned again.
  EXPECT_FALSE(FileExists(gens.back().path));
  EXPECT_TRUE(FileExists(gens.back().path + ".quarantine"));
  ASSERT_EQ((*store)->List().size(), 2u);
}

TEST(SnapshotStoreTest, NoLoadableGenerationIsNotFound) {
  const std::string dir = testing::TempDir() + "/kjoin_store_empty";
  RemoveTree(dir);
  auto store = serve::SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(IsNotFound((*store)->Recover().status()));

  // One generation, corrupted: quarantined, then the same verdict.
  auto manager = MakeManager(nullptr);
  ASSERT_TRUE(manager->SaveSnapshot(store->get()).ok());
  const std::vector<serve::SnapshotGeneration> gens = (*store)->List();
  ASSERT_EQ(gens.size(), 1u);
  CorruptFile(gens.front().path, /*salt=*/11);
  const Status recovered = (*store)->Recover().status();
  EXPECT_TRUE(IsNotFound(recovered)) << recovered.ToString();
  EXPECT_TRUE((*store)->List().empty());
}

// End-to-end failover: the newest generation is corrupted after a kill;
// recovery must land on the older generation and replay the WAL records
// past *its* sequence — reaching the exact acked state.
TEST(SnapshotStoreTest, RecoverFromStoreFailsOverAndReplaysWal) {
  const std::string dir = testing::TempDir() + "/kjoin_store_e2e";
  RemoveTree(dir);
  auto store = serve::SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const std::string wal_path = dir + "/wal";

  std::vector<std::vector<Object>> acked;
  {
    auto manager = MakeManager(nullptr);
    ASSERT_TRUE(manager->AttachWal(wal_path).ok());
    ASSERT_TRUE(manager->SaveSnapshot(store->get()).ok());  // gen 1, seq 0
    acked.push_back(MakeInserts(3, kRecords));
    ASSERT_TRUE(manager->InsertBatch(acked.back()).ok());
    manager->Flush();
    ASSERT_TRUE(manager->SaveSnapshot(store->get()).ok());  // gen 2, seq 1
    acked.push_back(MakeInserts(2, kRecords + 3));
    ASSERT_TRUE(manager->InsertBatch(acked.back()).ok());  // only in the WAL
    manager->Flush();
  }
  const std::vector<serve::SnapshotGeneration> gens = (*store)->List();
  ASSERT_EQ(gens.size(), 2u);
  CorruptFile(gens.back().path, /*salt=*/23);

  auto recovered =
      serve::IndexManager::RecoverFromStore(store->get(), wal_path, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  auto reference = MakeManager(nullptr);
  for (const std::vector<Object>& batch : acked) {
    ASSERT_TRUE(reference->InsertBatch(batch).ok());
  }
  reference->Flush();
  EXPECT_EQ(StateBytes(**recovered), StateBytes(*reference));
  EXPECT_EQ((*recovered)->Acquire()->durable_seq, 2);
}

// ------------------------------------------- durable publish failures

// ENOSPC/EIO on the publish path (injected short write, failed
// directory fsync): no partial generation may ever become visible, and
// whatever was published before stays loadable.
TEST(PublishFaultTest, FailedPublishLeavesNoPartialGeneration) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const std::string dir = testing::TempDir() + "/kjoin_store_enospc";
  RemoveTree(dir);
  auto store = serve::SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto manager = MakeManager(nullptr);
  ASSERT_TRUE(manager->SaveSnapshot(store->get()).ok());

  fault::Scope scope;
  for (const char* point : {"serve/write", "serve/dir_fsync"}) {
    fault::Enable(point);
    const Status published = manager->SaveSnapshot(store->get());
    EXPECT_TRUE(IsDataLoss(published)) << point << ": " << published.ToString();
    fault::DisarmAll();
    // Exactly the pre-fault generation remains, still loadable.
    ASSERT_EQ((*store)->List().size(), 1u) << point;
    auto recovered = (*store)->Recover();
    ASSERT_TRUE(recovered.ok()) << point << ": " << recovered.status().ToString();
    EXPECT_EQ(recovered->quarantined, 0) << point;
  }
  // Cleared faults: publishing works again.
  EXPECT_TRUE(manager->SaveSnapshot(store->get()).ok());
}

TEST(PublishFaultTest, DirFsyncFaultFailsSingleSnapshotCleanly) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const std::string path = testing::TempDir() + "/kjoin_dirfsync.kjsn";
  std::remove(path.c_str());
  auto manager = MakeManager(nullptr);

  fault::Scope scope;
  fault::Enable("serve/dir_fsync");
  EXPECT_TRUE(IsDataLoss(manager->SaveSnapshot(path)));
  fault::DisarmAll();
  // Treated as a failed publish: nothing under the final name.
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));

  ASSERT_TRUE(manager->SaveSnapshot(path).ok());
  EXPECT_TRUE(serve::LoadIndexSnapshot(path).ok());
}

// --------------------------------------------- degraded read-only mode

TEST(ReadOnlyModeTest, TripsOnSustainedWalFailureAndAutoRecovers) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const std::string wal_path = testing::TempDir() + "/kjoin_readonly.wal";
  std::remove(wal_path.c_str());

  MetricsRegistry metrics;
  serve::IndexManagerOptions options;
  options.wal_failure_trip_threshold = 2;
  options.wal_probe_interval_seconds = 0.002;
  auto manager = MakeManager(nullptr, &metrics, options);
  ASSERT_TRUE(manager->AttachWal(wal_path).ok());

  std::vector<Object> acked = MakeInserts(2, kRecords);
  ASSERT_TRUE(manager->InsertBatch(acked).ok());
  manager->Flush();
  const std::string state_before = StateBytes(*manager);

  fault::Scope scope;
  fault::Enable("serve/wal_append");  // every append fails, as a full disk would
  for (int i = 0; i < options.wal_failure_trip_threshold; ++i) {
    const Status failed = manager->InsertBatch(MakeInserts(1, kRecords + 2));
    EXPECT_TRUE(IsDataLoss(failed)) << failed.ToString();
  }
  serve::ManagerHealth health = manager->HealthSnapshot();
  EXPECT_EQ(health.state, serve::HealthState::kDegradedReadOnly);
  EXPECT_EQ(health.read_only_trips, 1);
  EXPECT_EQ(metrics.counter("manager.read_only_trips")->value(), 1);
  EXPECT_EQ(metrics.gauge("manager.health_state")->value(), 1);

  // Degraded: writes are rejected up front with kUnavailable and a
  // machine-readable retry hint; reads keep serving the acked state.
  const Status rejected = manager->InsertBatch(MakeInserts(1, kRecords + 2));
  EXPECT_TRUE(IsUnavailable(rejected)) << rejected.ToString();
  EXPECT_NE(rejected.message().find("retry_after_ms="), std::string::npos)
      << rejected.ToString();
  EXPECT_EQ(StateBytes(*manager), state_before);

  // The probe keeps failing while the schedule is armed (it shares the
  // append path's fault points), so the manager must stay degraded.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(manager->HealthSnapshot().state, serve::HealthState::kDegradedReadOnly);
  EXPECT_GT(metrics.counter("manager.wal_probe_failures")->value(), 0);

  // Clear the fault: the probe heals the manager without any writer's
  // help, and the next real append completes the recovery.
  fault::DisarmAll();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (manager->HealthSnapshot().state == serve::HealthState::kDegradedReadOnly &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(manager->HealthSnapshot().state, serve::HealthState::kRecovering);
  EXPECT_EQ(metrics.counter("manager.recoveries")->value(), 1);

  std::vector<Object> late = MakeInserts(1, kRecords + 2);
  ASSERT_TRUE(manager->InsertBatch(late).ok());
  manager->Flush();
  EXPECT_EQ(manager->HealthSnapshot().state, serve::HealthState::kServing);
  EXPECT_EQ(metrics.gauge("manager.health_state")->value(), 0);

  // Round-trip: recovery after the episode sees exactly the acked
  // batches — the failed and rejected writes left no trace.
  manager.reset();
  auto reference = MakeManager(nullptr);
  ASSERT_TRUE(reference->InsertBatch(acked).ok());
  ASSERT_TRUE(reference->InsertBatch(late).ok());
  reference->Flush();
  auto recovered = MakeManager(nullptr);
  ASSERT_TRUE(recovered->AttachWal(wal_path).ok());
  EXPECT_EQ(StateBytes(*recovered), StateBytes(*reference));
}

// ------------------------------------------------- fault schedules

TEST(FaultScheduleTest, ColonSyntaxAndEnvArming) {
  fault::Scope scope;
  ASSERT_TRUE(fault::EnableFromSpec("a/b:0.5,c/d:1x2,e/f").ok());
  std::vector<fault::FaultPointStats> points = fault::ArmedPoints();
  ASSERT_EQ(points.size(), 3u);
  fault::DisarmAll();

  ::setenv("KJOIN_FAULT_SCHEDULE", "serve/wal_append:0.25,serve/write:1x3", 1);
  ::setenv("KJOIN_FAULT_SEED", "1234", 1);
  ASSERT_TRUE(fault::EnableFromEnv().ok());
  points = fault::ArmedPoints();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].name, "serve/wal_append");
  EXPECT_EQ(points[1].name, "serve/write");
  fault::DisarmAll();

  ::setenv("KJOIN_FAULT_SEED", "not-a-number", 1);
  EXPECT_TRUE(IsInvalidArgument(fault::EnableFromEnv()));
  ::unsetenv("KJOIN_FAULT_SCHEDULE");
  ::unsetenv("KJOIN_FAULT_SEED");
  // Unset variables are a no-op, not an error.
  EXPECT_TRUE(fault::EnableFromEnv().ok());
  EXPECT_TRUE(fault::ArmedPoints().empty());
}

// --------------------------------------------------- the chaos harness

// One randomized trial: a serving stack with a snapshot store and WAL
// takes a seeded schedule of interleaved mutations, searches, snapshot
// publishes and injected fault storms, then "dies"; the on-disk state is
// further damaged in crash-shaped ways (torn WAL tail, corrupt newest
// generation) and recovered. The recovered state must be byte-identical
// to replaying exactly the acked operations — nothing acked is lost,
// nothing unacked resurrects — and no read may ever crash.
void RunChaosTrial(uint64_t trial) {
  uint64_t rng = trial * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  const std::string dir = testing::TempDir() + "/kjoin_chaos_" + std::to_string(trial);
  RemoveTree(dir);
  MetricsRegistry metrics;
  serve::SnapshotStoreOptions store_options;
  store_options.retain = 2;
  auto store_or = serve::SnapshotStore::Open(dir, store_options, &metrics);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  serve::SnapshotStore* store = store_or->get();
  const std::string wal_path = dir + "/wal";

  serve::IndexManagerOptions options;
  options.max_delta_layers = 2;
  options.wal_failure_trip_threshold = 2;
  options.wal_probe_interval_seconds = 0.001;

  fault::Scope scope;
  struct Op {
    std::vector<Object> objects;
    std::vector<int32_t> deletes;
  };
  std::vector<Op> acked;
  int64_t logical = kRecords;
  int64_t next_id = kRecords;
  {
    auto manager = MakeManager(nullptr, &metrics, options);
    ASSERT_TRUE(manager->AttachWal(wal_path).ok());
    ASSERT_TRUE(manager->SaveSnapshot(store).ok());  // generation 1: the base state

    const int num_ops = 10 + static_cast<int>(SplitMix(&rng) % 10);
    for (int op = 0; op < num_ops; ++op) {
      const uint64_t dice = SplitMix(&rng) % 100;
      if (dice < 12) {
        if (fault::Enabled()) {
          // A seeded fault storm over the whole durable surface. The
          // schedule string goes through EnableFromSpec, the same path
          // KJOIN_FAULT_SCHEDULE takes.
          fault::SetSeed(SplitMix(&rng));
          ASSERT_TRUE(fault::EnableFromSpec("serve/wal_append:0.5,serve/wal_fsync:0.4,"
                                            "serve/write:0.5,serve/dir_fsync:0.3")
                          .ok());
        }
      } else if (dice < 24) {
        fault::DisarmAll();  // the storm passes
      } else if (dice < 55) {
        Op candidate;
        candidate.objects = MakeInserts(1 + static_cast<int>(SplitMix(&rng) % 3), next_id);
        const Status inserted = manager->InsertBatch(candidate.objects);
        if (inserted.ok()) {
          next_id += static_cast<int64_t>(candidate.objects.size());
          logical += static_cast<int64_t>(candidate.objects.size());
          acked.push_back(std::move(candidate));
        } else {
          // Only controlled rejections are legal: a failed append
          // (kDataLoss) or degraded mode (kUnavailable).
          ASSERT_TRUE(IsDataLoss(inserted) || IsUnavailable(inserted))
              << inserted.ToString();
        }
      } else if (dice < 68) {
        Op candidate;
        candidate.deletes.push_back(static_cast<int32_t>(SplitMix(&rng) % logical));
        if (manager->DeleteObjects(candidate.deletes).ok()) {
          acked.push_back(std::move(candidate));
        }
      } else if (dice < 88) {
        // Reads must never crash or error structurally, fault storm or
        // not — at worst they trip their deadline.
        const auto epoch = manager->Acquire();
        JoinControl control;
        control.deadline_seconds = 0.05;
        std::vector<SearchHit> hits;
        SearchStats stats;
        const Status searched =
            epoch->index->SearchTopK(MakeQuery(SplitMix(&rng)), 0, epoch->index->options().tau,
                                     control, &hits, &stats);
        ASSERT_TRUE(searched.ok() || IsDeadlineExceeded(searched)) << searched.ToString();
      } else {
        // Publishing may fail under the storm; it must never corrupt.
        (void)manager->SaveSnapshot(store);
      }
    }
    fault::DisarmAll();
    manager->Flush();
    // The manager dies here; only the disk survives into recovery.
  }

  // Crash-shaped damage: a torn unacked WAL tail, and (when an older
  // generation exists to fail over to) a corrupt newest generation.
  if (SplitMix(&rng) % 2 == 0) AppendGarbage(wal_path, SplitMix(&rng));
  const std::vector<serve::SnapshotGeneration> gens = store->List();
  ASSERT_FALSE(gens.empty());
  if (gens.size() >= 2 && SplitMix(&rng) % 2 == 0) {
    CorruptFile(gens.back().path, SplitMix(&rng));
  }

  auto recovered =
      serve::IndexManager::RecoverFromStore(store, wal_path, nullptr, &metrics, options);
  ASSERT_TRUE(recovered.ok()) << "trial " << trial << ": " << recovered.status().ToString();

  auto reference = MakeManager(nullptr);
  for (const Op& op : acked) {
    if (!op.objects.empty()) {
      ASSERT_TRUE(reference->InsertBatch(op.objects).ok());
    }
    if (!op.deletes.empty()) {
      ASSERT_TRUE(reference->DeleteObjects(op.deletes).ok());
    }
  }
  reference->Flush();
  ASSERT_EQ(StateBytes(**recovered), StateBytes(*reference))
      << "trial " << trial << " diverged from its acked prefix ("
      << acked.size() << " acked ops)";

  // Recovered stacks must serve immediately.
  const auto epoch = (*recovered)->Acquire();
  JoinControl control;
  std::vector<SearchHit> hits;
  SearchStats stats;
  ASSERT_TRUE(epoch->index
                  ->SearchTopK(MakeQuery(trial), 0, epoch->index->options().tau, control,
                               &hits, &stats)
                  .ok());

  recovered->reset();
  RemoveTree(dir);
}

TEST(ChaosTest, RandomizedKillAndRecoverTrials) {
  int trials = 25;
  if (const char* env = std::getenv("KJOIN_CHAOS_TRIALS")) {
    trials = std::max(1, std::atoi(env));
  }
  for (int trial = 0; trial < trials; ++trial) {
    RunChaosTrial(static_cast<uint64_t>(trial));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace kjoin
