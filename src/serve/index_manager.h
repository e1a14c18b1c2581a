#ifndef KJOIN_SERVE_INDEX_MANAGER_H_
#define KJOIN_SERVE_INDEX_MANAGER_H_

// The live index behind a serving process: RCU-style epoch swapping,
// delta-epoch publication, and WAL-backed durability.
//
// Readers call Acquire() — a pointer copy under a micro critical
// section — and search the returned epoch for as long as they hold the
// shared_ptr; they never wait on an update being applied. Writers batch
// mutations through InsertBatch / DeleteObjects / UpdateObject: the
// manager layers them into a *delta index* over the current epoch on the
// background pool (the base's objects and postings are shared, not
// copied — publishing costs O(batch), see core/kjoin_index.h) and
// atomically swaps the finished epoch in. A reader therefore always sees
// a fully built index — either the old epoch or the new one, never a
// half-updated structure — and stale epochs are freed by the last
// shared_ptr that drops them. Once the delta chain grows past
// IndexManagerOptions::max_delta_layers, the rebuild loop folds it into
// a new flat base and publishes that the same way — compaction never
// blocks Acquire() (see docs/serving.md for the full semantics).
//
// Durability: with AttachWal() (or Recover()), every mutation batch is
// appended to a CRC-framed write-ahead log and fsynced *before* the call
// returns OK — an acked batch survives a crash. Recovery = load the last
// snapshot + replay the WAL records past its durable sequence;
// SaveSnapshot() drops the records a new snapshot covers (serve/wal.h).
// The store-backed variants (SaveSnapshot(SnapshotStore*),
// RecoverFromStore) keep the last N generations and fail over past a
// corrupt one (serve/snapshot_store.h).
//
// Self-healing: when the log itself goes bad (sustained append/fsync
// failures — full disk, dying device), the manager trips into degraded
// read-only mode instead of failing every caller into the broken write
// path: reads keep serving the last published epoch untouched, writes
// return kUnavailable with a retry-after hint, and a background probe
// re-tests the log and restores write service automatically (see
// HealthState below and docs/robustness.md).
//
//   IndexManager manager(std::move(loaded), &pool, &metrics);
//   KJOIN_RETURN_IF_ERROR(manager.AttachWal("/data/kjoin.wal"));
//   auto epoch = manager.Acquire();            // reader, never blocks
//   epoch->index->SearchTopK(query, k, tau, control, &hits);
//   manager.InsertBatch(std::move(objects));   // writer, durable + async
//   manager.Flush();                           // barrier: all applied

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/kjoin_index.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "serve/wal.h"

namespace kjoin::serve {

// One immutable published generation of the serving stack. Everything a
// query needs travels together so a reader's view is consistent even
// while newer epochs are published.
struct IndexEpoch {
  int64_t version = 0;
  // Sequence of the last acked mutation folded into this epoch (0 when
  // the stack never had mutations). Snapshots saved from the epoch carry
  // it so recovery knows where WAL replay starts.
  int64_t durable_seq = 0;
  std::shared_ptr<const Hierarchy> hierarchy;
  std::vector<std::string> tokens;
  std::vector<std::pair<std::string, std::string>> synonyms;
  std::shared_ptr<const KJoinIndex> index;
};

struct IndexManagerOptions {
  // Delta chain depth past which the rebuild loop folds the chain into a
  // new flat base epoch. Deeper chains make probes touch more posting
  // maps; shallower ones compact (O(index)) more often.
  int max_delta_layers = 4;
  // Consecutive WAL append/fsync failures that trip degraded read-only
  // mode (see HealthState below). 1 trips on the first failure; higher
  // values ride out isolated transients without degrading.
  int wal_failure_trip_threshold = 3;
  // How often the background probe re-tests a failed log while degraded.
  double wal_probe_interval_seconds = 0.25;
};

// Retry hint for writes rejected while degraded: one probe interval —
// the soonest the state can possibly have changed — and at least 1 ms.
int64_t RetryHintMs(const IndexManagerOptions& options);

// The manager's write-availability state machine. Reads are unaffected
// by every state: Acquire() keeps returning the last published epoch.
//
//   kServing --[trip_threshold consecutive WAL failures]--> kDegradedReadOnly
//   kDegradedReadOnly --[background WriteAheadLog::Probe() succeeds]--> kRecovering
//   kRecovering --[first real append succeeds]--> kServing
//   kRecovering --[failures reach the threshold again]--> kDegradedReadOnly
//
// While degraded, mutations are rejected *before* touching the log with
// kUnavailable (message carries a machine-readable retry_after_ms=
// hint); the probe loop owns the only writes to the sick log, so a
// flapping disk cannot ack a batch it then loses.
enum class HealthState {
  kServing = 0,
  kDegradedReadOnly = 1,
  kRecovering = 2,
};

// Point-in-time health (IndexManager::HealthSnapshot()); the same
// transitions are published as metrics (manager.health_state gauge,
// manager.read_only_trips / manager.recoveries counters).
struct ManagerHealth {
  HealthState state = HealthState::kServing;
  int consecutive_wal_failures = 0;
  int64_t read_only_trips = 0;
  int64_t recoveries = 0;
};

class IndexManager {
 public:
  // Adopts a snapshot-loaded stack as epoch 1. `pool` (not owned, may be
  // null) runs background rebuilds; with a null or single-lane pool the
  // rebuild runs inline on the mutating caller instead — same results,
  // no hidden queue that nothing drains. `metrics` (not owned, may be
  // null) receives the manager.* counters and histograms listed in
  // docs/serving.md.
  IndexManager(LoadedIndex initial, ThreadPool* pool, MetricsRegistry* metrics = nullptr,
               IndexManagerOptions options = {});

  // Builds epoch 1 from parts (the from-text cold-start path).
  IndexManager(std::shared_ptr<const Hierarchy> hierarchy, KJoinOptions options,
               std::vector<Object> objects, std::vector<std::string> tokens,
               std::vector<std::pair<std::string, std::string>> synonyms, ThreadPool* pool,
               MetricsRegistry* metrics = nullptr, IndexManagerOptions manager_options = {});

  // Blocks until no rebuild is in flight (pending mutations are applied
  // first), so a scheduled task never outlives the manager.
  ~IndexManager();

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  // Replays `path` (records newer than the current epoch's durable_seq;
  // a missing file is an empty log) and then appends every future
  // mutation there before acking it. Call once, before concurrent
  // traffic — replay publishes epochs synchronously on the calling
  // thread. `fsync` off trades durability for append speed (benches).
  // Fails with kDataLoss/kInvalidArgument when the log cannot extend the
  // current state (sequence gap, token-table divergence); the manager
  // keeps serving its pre-call state in that case.
  Status AttachWal(const std::string& path, bool fsync = true);

  // LoadFrom + AttachWal: the standard crash-recovery entry point.
  static StatusOr<std::unique_ptr<IndexManager>> Recover(const std::string& snapshot_path,
                                                         const std::string& wal_path,
                                                         ThreadPool* pool,
                                                         MetricsRegistry* metrics = nullptr,
                                                         IndexManagerOptions options = {});

  // Store-backed recovery with automatic failover: loads the newest
  // generation that validates (corrupt newer ones are quarantined, see
  // serve/snapshot_store.h) and replays the WAL past its durable
  // sequence. Fails only when no generation is loadable or the log
  // semantically diverges from every loadable one.
  static StatusOr<std::unique_ptr<IndexManager>> RecoverFromStore(
      SnapshotStore* store, const std::string& wal_path, ThreadPool* pool,
      MetricsRegistry* metrics = nullptr, IndexManagerOptions options = {});

  // The current epoch: a shared_ptr copy under epoch_mu_ (held for a
  // handful of instructions — rebuilds happen entirely outside it). The
  // epoch stays valid while the returned pointer is held, regardless of
  // how many swaps happen meanwhile.
  std::shared_ptr<const IndexEpoch> Acquire() const;

  // Queues `objects` for insertion and kicks a background rebuild; they
  // become searchable when the next epoch is published (Flush() to
  // wait). Objects must be token-id-compatible with the current epoch;
  // when the batch introduced new interned tokens, pass the builder's
  // full updated TokenTable() so the published epoch (and snapshots
  // saved from it) stays self-describing. The table is validated as an
  // append-only extension: a table that shrinks or rewrites an existing
  // id is rejected with kInvalidArgument and nothing is queued. With a
  // WAL attached, OK means the batch is durable (appended + fsynced).
  Status InsertBatch(std::vector<Object> objects, std::vector<std::string> tokens = {});

  // Tombstones the given chain-global object indexes (the values Search
  // hits report). Out-of-range indexes reject the whole batch with
  // kInvalidArgument; deleting an already-deleted object is a no-op.
  Status DeleteObjects(std::vector<int32_t> indexes);

  // Atomically (within one published epoch) tombstones `index` and
  // inserts `replacement`, which receives a fresh object index. `tokens`
  // as for InsertBatch.
  Status UpdateObject(int32_t index, Object replacement,
                      std::vector<std::string> tokens = {});

  // Barrier: returns once every mutation acked before the call is
  // searchable via Acquire().
  void Flush();

  int64_t version() const { return Acquire()->version; }
  // Inserts acked but not yet picked up by a rebuild (approximate — a
  // batch being applied no longer counts).
  int64_t pending_inserts() const;
  // Bytes in the attached WAL (0 when none): header + intact records.
  int64_t wal_size_bytes() const;

  // Current write-availability state; reads never degrade (see
  // HealthState). Writes while degraded return kUnavailable.
  ManagerHealth HealthSnapshot() const;

  // Serializes the current epoch (snapshot.h format, flattened) and then
  // drops the WAL records the snapshot now covers. A failed WAL
  // truncation is logged, not fatal — replay skips covered records.
  Status SaveSnapshot(const std::string& path);

  // Publishes the current epoch as the store's next generation, then
  // truncates the WAL only up to the store's reported floor (the oldest
  // *retained* generation's durable sequence), so failover to an older
  // generation still finds the records it needs to replay.
  Status SaveSnapshot(SnapshotStore* store);

  // Loads `path` and wraps it in a manager (no WAL; see Recover).
  static StatusOr<std::unique_ptr<IndexManager>> LoadFrom(const std::string& path,
                                                          ThreadPool* pool,
                                                          MetricsRegistry* metrics = nullptr);

 private:
  // One acked mutation batch queued for the rebuild loop. Deletes apply
  // before inserts; `tokens` (when non-empty) is the full validated
  // table after the batch.
  struct MutationBatch {
    int64_t sequence = 0;
    std::vector<int32_t> deletes;
    std::vector<Object> objects;
    std::vector<std::string> tokens;
  };

  void PublishInitial(std::shared_ptr<const IndexEpoch> epoch);
  // Validates, WAL-appends (the ack point), queues, and kicks the
  // rebuild loop.
  Status ApplyMutation(MutationBatch batch);
  // Drains acked batches, one delta-epoch publish per drain (plus a
  // compaction epoch when the chain got deep), until none remain; then
  // clears rebuild_in_flight_.
  void RebuildLoop();
  // Layers `batches` into one delta over the current epoch and publishes
  // it. Single-writer: only RebuildLoop and pre-concurrency recovery
  // call this.
  void ApplyBatches(std::vector<MutationBatch> batches);
  // Publishes a flattened epoch when the delta chain is past
  // max_delta_layers.
  void MaybeCompact();
  // Logged-but-non-fatal WAL truncation after a snapshot landed.
  void TruncateWalAfterSnapshot(int64_t up_to_sequence);
  // State transitions, all under mu_. TripReadOnlyLocked also lazily
  // starts the probe thread.
  void TripReadOnlyLocked();
  void SetHealthLocked(HealthState next);
  // Long-lived while degraded episodes exist: waits on probe_cv_ until
  // degraded (or shutdown), then re-tests the log every
  // wal_probe_interval_seconds until it heals.
  void ProbeLoop();

  ThreadPool* pool_;
  MetricsRegistry* metrics_;
  IndexManagerOptions manager_options_;
  // Not std::atomic<shared_ptr>: libstdc++ implements that as an
  // embedded spinlock whose load() path unlocks with relaxed ordering,
  // which ThreadSanitizer rejects as a data race on the stored pointer.
  // A plain mutex costs the same handful of instructions and is provably
  // race-free; the mutex only ever guards the pointer copy/swap, never a
  // rebuild, so readers still never wait on writers' real work.
  mutable std::mutex epoch_mu_;
  std::shared_ptr<const IndexEpoch> epoch_;     // guarded by epoch_mu_

  mutable std::mutex mu_;
  std::condition_variable idle_;                // signalled when a rebuild finishes
  std::vector<MutationBatch> pending_;          // guarded by mu_; acked, not yet applied
  bool rebuild_in_flight_ = false;              // guarded by mu_
  // Write-path bookkeeping, all guarded by mu_. latest_tokens_ is the
  // table after the last *acked* batch (the epoch may lag it while a
  // rebuild is in flight) — incoming tables are validated against it so
  // two racing token-carrying batches cannot silently shrink the table.
  std::vector<std::string> latest_tokens_;
  int64_t logical_size_ = 0;                    // num_indexed() incl. acked pending inserts
  int64_t last_acked_seq_ = 0;
  std::unique_ptr<WriteAheadLog> wal_;          // null until AttachWal

  // Degraded-mode state machine, all guarded by mu_. The probe thread
  // starts lazily on the first trip and lives until the destructor.
  HealthState health_ = HealthState::kServing;
  int consecutive_wal_failures_ = 0;
  int64_t read_only_trips_ = 0;
  int64_t health_recoveries_ = 0;
  bool shutdown_ = false;
  std::condition_variable probe_cv_;            // degraded-or-shutdown signal
  std::thread probe_thread_;
};

}  // namespace kjoin::serve

#endif  // KJOIN_SERVE_INDEX_MANAGER_H_
