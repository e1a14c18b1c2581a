#include "serve/index_manager.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "serve/status_detail.h"
#include "serve/wire_format.h"

namespace kjoin::serve {
namespace {

// Posting entries a layer holds (its own lists only) — the payload a
// publish actually materialized, reported as manager.rebuild_bytes.
int64_t PostingBytes(const KJoinIndex& index) {
  return index.posting_entries() * static_cast<int64_t>(sizeof(int32_t));
}

}  // namespace

int64_t RetryHintMs(const IndexManagerOptions& options) {
  return std::max<int64_t>(1, static_cast<int64_t>(options.wal_probe_interval_seconds * 1e3));
}

IndexManager::IndexManager(LoadedIndex initial, ThreadPool* pool, MetricsRegistry* metrics,
                           IndexManagerOptions options)
    : pool_(pool), metrics_(metrics), manager_options_(options) {
  KJOIN_CHECK(initial.index != nullptr) << "IndexManager needs a loaded index";
  KJOIN_CHECK(manager_options_.max_delta_layers >= 0)
      << "max_delta_layers must be non-negative";
  auto epoch = std::make_shared<IndexEpoch>();
  epoch->version = 1;
  epoch->durable_seq = initial.durable_seq;
  epoch->hierarchy = std::move(initial.hierarchy);
  epoch->tokens = std::move(initial.tokens);
  epoch->synonyms = std::move(initial.synonyms);
  epoch->index = std::shared_ptr<const KJoinIndex>(std::move(initial.index));
  latest_tokens_ = epoch->tokens;
  logical_size_ = epoch->index->num_indexed();
  last_acked_seq_ = epoch->durable_seq;
  PublishInitial(std::move(epoch));
}

IndexManager::IndexManager(std::shared_ptr<const Hierarchy> hierarchy, KJoinOptions options,
                           std::vector<Object> objects, std::vector<std::string> tokens,
                           std::vector<std::pair<std::string, std::string>> synonyms,
                           ThreadPool* pool, MetricsRegistry* metrics,
                           IndexManagerOptions manager_options)
    : pool_(pool), metrics_(metrics), manager_options_(manager_options) {
  KJOIN_CHECK(hierarchy != nullptr) << "IndexManager needs a hierarchy";
  KJOIN_CHECK(manager_options_.max_delta_layers >= 0)
      << "max_delta_layers must be non-negative";
  auto epoch = std::make_shared<IndexEpoch>();
  epoch->version = 1;
  epoch->index =
      std::make_shared<const KJoinIndex>(*hierarchy, options, std::move(objects));
  epoch->hierarchy = std::move(hierarchy);
  epoch->tokens = std::move(tokens);
  epoch->synonyms = std::move(synonyms);
  latest_tokens_ = epoch->tokens;
  logical_size_ = epoch->index->num_indexed();
  PublishInitial(std::move(epoch));
}

IndexManager::~IndexManager() {
  {
    // A rebuild scheduled on the shared pool captures `this`; wait it out.
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [&] { return !rebuild_in_flight_; });
    shutdown_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
}

void IndexManager::PublishInitial(std::shared_ptr<const IndexEpoch> epoch) {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  epoch_ = std::move(epoch);
}

std::shared_ptr<const IndexEpoch> IndexManager::Acquire() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

Status IndexManager::AttachWal(const std::string& path, bool fsync) {
  // Settle in-flight work so replay extends a quiescent epoch.
  Flush();
  {
    std::lock_guard<std::mutex> lock(mu_);
    KJOIN_CHECK(wal_ == nullptr) << "AttachWal called twice";
  }
  const std::shared_ptr<const IndexEpoch> epoch = Acquire();

  WalReplayInput input;
  input.tokens = epoch->tokens;
  input.num_nodes = epoch->hierarchy->num_nodes();
  input.num_objects = epoch->index->num_indexed();
  input.min_sequence_exclusive = epoch->durable_seq;
  KJOIN_ASSIGN_OR_RETURN(WalReplayResult replay, WriteAheadLog::Replay(path, input));

  if (!replay.records.empty()) {
    // Running full token table across replayed records (records carry
    // only the suffix they interned).
    std::vector<std::string> running = epoch->tokens;
    for (WalRecord& record : replay.records) {
      MutationBatch batch;
      batch.sequence = record.sequence;
      batch.deletes = std::move(record.deletes);
      batch.objects = std::move(record.objects);
      if (!record.token_suffix.empty()) {
        running.insert(running.end(), std::make_move_iterator(record.token_suffix.begin()),
                       std::make_move_iterator(record.token_suffix.end()));
        batch.tokens = running;
      }
      // One delta publish per record reproduces the pre-crash epoch
      // cadence (and exercises compaction exactly as live traffic did).
      std::vector<MutationBatch> one;
      one.push_back(std::move(batch));
      ApplyBatches(std::move(one));
      MaybeCompact();
    }
    const std::shared_ptr<const IndexEpoch> replayed = Acquire();
    std::lock_guard<std::mutex> lock(mu_);
    last_acked_seq_ = replayed->durable_seq;
    latest_tokens_ = replayed->tokens;
    logical_size_ = replayed->index->num_indexed();
    KJOIN_LOG(INFO) << "WAL replay applied " << replay.records.size()
                    << " record(s) from " << path << ", durable_seq now "
                    << replayed->durable_seq;
  }
  if (replay.torn_tail) {
    KJOIN_LOG(WARNING) << "WAL " << path << " had a torn tail past byte "
                       << replay.valid_bytes << "; unacked partial record dropped";
    if (metrics_ != nullptr) metrics_->counter("manager.wal_torn_tail")->Increment();
  }

  // Open truncates any torn tail, so future appends extend intact bytes.
  WriteAheadLog::Options wal_options;
  wal_options.fsync = fsync;
  KJOIN_ASSIGN_OR_RETURN(std::unique_ptr<WriteAheadLog> wal,
                         WriteAheadLog::Open(path, wal_options));
  std::lock_guard<std::mutex> lock(mu_);
  wal_ = std::move(wal);
  return OkStatus();
}

StatusOr<std::unique_ptr<IndexManager>> IndexManager::Recover(const std::string& snapshot_path,
                                                              const std::string& wal_path,
                                                              ThreadPool* pool,
                                                              MetricsRegistry* metrics,
                                                              IndexManagerOptions options) {
  KJOIN_ASSIGN_OR_RETURN(LoadedIndex loaded, LoadIndexSnapshot(snapshot_path, metrics));
  auto manager = std::make_unique<IndexManager>(std::move(loaded), pool, metrics, options);
  KJOIN_RETURN_IF_ERROR(manager->AttachWal(wal_path));
  return manager;
}

StatusOr<std::unique_ptr<IndexManager>> IndexManager::RecoverFromStore(
    SnapshotStore* store, const std::string& wal_path, ThreadPool* pool,
    MetricsRegistry* metrics, IndexManagerOptions options) {
  KJOIN_ASSIGN_OR_RETURN(RecoverResult recovered, store->Recover());
  if (recovered.quarantined > 0) {
    KJOIN_LOG(WARNING) << "recovery failed over to generation " << recovered.generation
                       << " after quarantining " << recovered.quarantined
                       << " corrupt newer generation(s)";
  }
  auto manager =
      std::make_unique<IndexManager>(std::move(recovered.loaded), pool, metrics, options);
  // Replay starts at the recovered generation's durable sequence; the
  // WAL still holds those records because truncation respects the
  // store's oldest-retained floor (SaveSnapshot(SnapshotStore*)).
  KJOIN_RETURN_IF_ERROR(manager->AttachWal(wal_path));
  return manager;
}

Status IndexManager::InsertBatch(std::vector<Object> objects, std::vector<std::string> tokens) {
  MutationBatch batch;
  batch.objects = std::move(objects);
  batch.tokens = std::move(tokens);
  return ApplyMutation(std::move(batch));
}

Status IndexManager::DeleteObjects(std::vector<int32_t> indexes) {
  MutationBatch batch;
  batch.deletes = std::move(indexes);
  return ApplyMutation(std::move(batch));
}

Status IndexManager::UpdateObject(int32_t index, Object replacement,
                                  std::vector<std::string> tokens) {
  MutationBatch batch;
  batch.deletes.push_back(index);
  batch.objects.push_back(std::move(replacement));
  batch.tokens = std::move(tokens);
  return ApplyMutation(std::move(batch));
}

Status IndexManager::ApplyMutation(MutationBatch batch) {
  if (batch.objects.empty() && batch.deletes.empty() && batch.tokens.empty()) {
    return OkStatus();
  }
  bool start_rebuild = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (health_ == HealthState::kDegradedReadOnly) {
      // Reject before touching the sick log: the probe loop owns the
      // only writes to it until it heals (see HealthState).
      if (metrics_ != nullptr) metrics_->counter("manager.writes_rejected")->Increment();
      return UnavailableError(
          "index is read-only after " + std::to_string(consecutive_wal_failures_) +
          " consecutive WAL failure(s); " + RetryAfterField(RetryHintMs(manager_options_)));
    }
    // Validate against the last *acked* state, not the published epoch —
    // a racing batch's tokens may be acked but not yet swapped in.
    if (!batch.tokens.empty()) {
      KJOIN_RETURN_IF_ERROR(
          ValidateTokenExtension(latest_tokens_, batch.tokens, "IndexManager"));
    }
    for (int32_t index : batch.deletes) {
      if (index < 0 || index >= logical_size_) {
        return InvalidArgumentError("delete of object " + std::to_string(index) +
                                    " outside the indexed collection of " +
                                    std::to_string(logical_size_));
      }
    }
    if (wal_ != nullptr) {
      // The durability ack point: the record is framed, appended and
      // fsynced before the batch is queued. Failure means nothing was
      // acked — the caller may retry, recovery shows no trace.
      WalRecord record;
      record.sequence = last_acked_seq_ + 1;
      record.deletes = std::move(batch.deletes);
      record.objects = std::move(batch.objects);
      if (batch.tokens.size() > latest_tokens_.size()) {
        record.token_base = static_cast<int64_t>(latest_tokens_.size());
        record.token_suffix.assign(batch.tokens.begin() + latest_tokens_.size(),
                                   batch.tokens.end());
      }
      const int64_t before = wal_->size_bytes();
      const Status appended = wal_->Append(record);
      batch.deletes = std::move(record.deletes);
      batch.objects = std::move(record.objects);
      if (!appended.ok()) {
        if (++consecutive_wal_failures_ >= manager_options_.wal_failure_trip_threshold) {
          TripReadOnlyLocked();
        }
        return appended;
      }
      consecutive_wal_failures_ = 0;
      if (health_ == HealthState::kRecovering) {
        // A real durable append is the proof the probe only hinted at.
        SetHealthLocked(HealthState::kServing);
        KJOIN_LOG(INFO) << "WAL append succeeded after recovery probe; write service restored";
      }
      if (metrics_ != nullptr) {
        metrics_->counter("manager.wal_appends")->Increment();
        metrics_->counter("manager.wal_bytes")->Increment(wal_->size_bytes() - before);
      }
    }
    batch.sequence = ++last_acked_seq_;
    if (!batch.tokens.empty()) latest_tokens_ = batch.tokens;
    logical_size_ += static_cast<int64_t>(batch.objects.size());
    pending_.push_back(std::move(batch));
    if (!rebuild_in_flight_) {
      rebuild_in_flight_ = true;
      start_rebuild = true;
    }
  }
  if (!start_rebuild) return OkStatus();  // the in-flight rebuild loop picks it up
  if (pool_ != nullptr && pool_->num_threads() > 1) {
    pool_->Schedule([this] { RebuildLoop(); });
  } else {
    // No background lane exists to drain a scheduled task, so apply
    // synchronously rather than parking the batch in a dead queue.
    RebuildLoop();
  }
  return OkStatus();
}

void IndexManager::RebuildLoop() {
  for (;;) {
    std::vector<MutationBatch> drained;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.empty()) {
        rebuild_in_flight_ = false;
        idle_.notify_all();
        return;
      }
      drained = std::move(pending_);
      pending_.clear();
    }
    ApplyBatches(std::move(drained));
    MaybeCompact();
  }
}

void IndexManager::ApplyBatches(std::vector<MutationBatch> batches) {
  KJOIN_CHECK(!batches.empty());
  WallTimer timer;
  const std::shared_ptr<const IndexEpoch> current = Acquire();

  int64_t inserted = 0;
  int64_t deleted = 0;
  std::vector<Object> objects;
  std::vector<int32_t> deletes;
  for (MutationBatch& batch : batches) {
    std::move(batch.objects.begin(), batch.objects.end(), std::back_inserter(objects));
    deletes.insert(deletes.end(), batch.deletes.begin(), batch.deletes.end());
  }

  std::shared_ptr<const KJoinIndex> next_index;
  int64_t published_bytes = 0;
  if (!objects.empty() || !deletes.empty()) {
    // Delta layer over the published index: the base's objects and
    // postings are shared, not copied, so this costs O(drained batches).
    inserted = static_cast<int64_t>(objects.size());
    auto delta = std::make_shared<const KJoinIndex>(current->index, std::move(objects), deletes);
    // Repeated and already-deleted indexes tombstone nothing, so the
    // live-count difference counts exactly the objects this drain hid.
    deleted = current->index->num_live() + inserted - delta->num_live();
    published_bytes = PostingBytes(*delta);
    next_index = std::move(delta);
  } else {
    // Tokens-only update: share the index outright, no layer needed.
    next_index = current->index;
  }

  std::vector<std::string> tokens_update;
  for (MutationBatch& batch : batches) {
    if (!batch.tokens.empty()) tokens_update = std::move(batch.tokens);
  }

  auto next = std::make_shared<IndexEpoch>();
  next->version = current->version + 1;
  next->durable_seq = batches.back().sequence;
  next->hierarchy = current->hierarchy;
  next->tokens = tokens_update.empty() ? current->tokens : std::move(tokens_update);
  next->synonyms = current->synonyms;
  next->index = std::move(next_index);
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch_ = std::move(next);
  }

  if (metrics_ != nullptr) {
    metrics_->counter("manager.swaps")->Increment();
    metrics_->counter("manager.inserts")->Increment(inserted);
    metrics_->counter("manager.deletes")->Increment(deleted);
    metrics_->counter("manager.delta_publishes")->Increment();
    metrics_->counter("manager.rebuild_bytes")->Increment(published_bytes);
    metrics_->histogram("manager.rebuild_seconds")->Observe(timer.ElapsedSeconds());
  }
}

void IndexManager::MaybeCompact() {
  const std::shared_ptr<const IndexEpoch> current = Acquire();
  if (current->index->delta_depth() <= manager_options_.max_delta_layers) return;

  WallTimer timer;
  // Flatten is read-only on the published chain, so concurrent searches
  // keep running against it while the flat replacement is built.
  std::vector<Object> objects;
  KJoinIndex::RestoredParts parts;
  current->index->Flatten(&objects, &parts);
  auto flat = std::make_shared<KJoinIndex>(*current->hierarchy, current->index->options(),
                                           std::move(objects), std::move(parts));
  const int64_t folded_bytes = PostingBytes(*flat);

  auto next = std::make_shared<IndexEpoch>();
  next->version = current->version + 1;
  next->durable_seq = current->durable_seq;
  next->hierarchy = current->hierarchy;
  next->tokens = current->tokens;
  next->synonyms = current->synonyms;
  next->index = std::move(flat);
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch_ = std::move(next);
  }

  if (metrics_ != nullptr) {
    metrics_->counter("manager.swaps")->Increment();
    metrics_->counter("manager.compactions")->Increment();
    metrics_->counter("manager.rebuild_bytes")->Increment(folded_bytes);
    metrics_->histogram("manager.compaction_seconds")->Observe(timer.ElapsedSeconds());
  }
}

void IndexManager::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [&] { return pending_.empty() && !rebuild_in_flight_; });
}

int64_t IndexManager::pending_inserts() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const MutationBatch& batch : pending_) {
    total += static_cast<int64_t>(batch.objects.size());
  }
  return total;
}

int64_t IndexManager::wal_size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_ != nullptr ? wal_->size_bytes() : 0;
}

ManagerHealth IndexManager::HealthSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  ManagerHealth health;
  health.state = health_;
  health.consecutive_wal_failures = consecutive_wal_failures_;
  health.read_only_trips = read_only_trips_;
  health.recoveries = health_recoveries_;
  return health;
}

void IndexManager::SetHealthLocked(HealthState next) {
  health_ = next;
  if (metrics_ != nullptr) {
    metrics_->gauge("manager.health_state")->Set(static_cast<int64_t>(next));
  }
}

void IndexManager::TripReadOnlyLocked() {
  if (health_ == HealthState::kDegradedReadOnly) return;
  SetHealthLocked(HealthState::kDegradedReadOnly);
  ++read_only_trips_;
  if (metrics_ != nullptr) metrics_->counter("manager.read_only_trips")->Increment();
  KJOIN_LOG(ERROR) << "tripping degraded read-only mode after "
                   << consecutive_wal_failures_
                   << " consecutive WAL failure(s); reads keep serving, a "
                   << "background probe watches the log";
  if (!probe_thread_.joinable()) {
    probe_thread_ = std::thread([this] { ProbeLoop(); });
  }
  probe_cv_.notify_all();
}

void IndexManager::ProbeLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto interval = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(manager_options_.wal_probe_interval_seconds));
  for (;;) {
    probe_cv_.wait(lock, [&] {
      return shutdown_ || health_ == HealthState::kDegradedReadOnly;
    });
    if (shutdown_) return;
    // Degraded: re-test the log until it heals. Probing under mu_ is
    // deliberate — writes are rejected fast while degraded, so the lock
    // is uncontended, and it keeps the probe's fd use serialized with
    // Truncate's fd swap.
    while (!shutdown_ && health_ == HealthState::kDegradedReadOnly) {
      const Status probed = wal_->Probe();
      if (metrics_ != nullptr) metrics_->counter("manager.wal_probes")->Increment();
      if (probed.ok()) {
        consecutive_wal_failures_ = 0;
        ++health_recoveries_;
        SetHealthLocked(HealthState::kRecovering);
        if (metrics_ != nullptr) metrics_->counter("manager.recoveries")->Increment();
        KJOIN_LOG(INFO) << "WAL probe succeeded; accepting writes again (recovering)";
        break;
      }
      if (metrics_ != nullptr) metrics_->counter("manager.wal_probe_failures")->Increment();
      probe_cv_.wait_for(lock, interval, [&] { return shutdown_; });
    }
    if (shutdown_) return;
  }
}

void IndexManager::TruncateWalAfterSnapshot(int64_t up_to_sequence) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr || up_to_sequence <= 0) return;
  // Records the snapshot covers are dead weight; dropping them bounds
  // replay time. Failure is benign — replay skips covered sequences.
  const Status truncated = wal_->Truncate(up_to_sequence);
  if (!truncated.ok()) {
    KJOIN_LOG(WARNING) << "WAL truncation after snapshot failed (non-fatal): "
                       << truncated;
  } else if (metrics_ != nullptr) {
    metrics_->counter("manager.wal_truncations")->Increment();
  }
}

Status IndexManager::SaveSnapshot(const std::string& path) {
  const std::shared_ptr<const IndexEpoch> epoch = Acquire();
  SnapshotInput input;
  input.index = epoch->index.get();
  input.tokens = epoch->tokens;
  input.synonyms = epoch->synonyms;
  input.durable_seq = epoch->durable_seq;
  KJOIN_RETURN_IF_ERROR(SaveIndexSnapshot(input, path));
  TruncateWalAfterSnapshot(epoch->durable_seq);
  return OkStatus();
}

Status IndexManager::SaveSnapshot(SnapshotStore* store) {
  const std::shared_ptr<const IndexEpoch> epoch = Acquire();
  SnapshotInput input;
  input.index = epoch->index.get();
  input.tokens = epoch->tokens;
  input.synonyms = epoch->synonyms;
  input.durable_seq = epoch->durable_seq;
  KJOIN_ASSIGN_OR_RETURN(const PublishResult published, store->Publish(input));
  // The store's floor, not this epoch's durable_seq: an older retained
  // generation must still find its replay records after a failover.
  TruncateWalAfterSnapshot(published.wal_truncate_floor);
  return OkStatus();
}

StatusOr<std::unique_ptr<IndexManager>> IndexManager::LoadFrom(const std::string& path,
                                                               ThreadPool* pool,
                                                               MetricsRegistry* metrics) {
  KJOIN_ASSIGN_OR_RETURN(LoadedIndex loaded, LoadIndexSnapshot(path, metrics));
  return std::make_unique<IndexManager>(std::move(loaded), pool, metrics);
}

}  // namespace kjoin::serve
