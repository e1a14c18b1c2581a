#include "serve/sharded_index_manager.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "serve/status_detail.h"

namespace kjoin::serve {

ShardedIndexManager::ShardedIndexManager(
    std::shared_ptr<const Hierarchy> hierarchy, KJoinOptions options,
    std::vector<Object> objects, std::vector<std::string> tokens,
    std::vector<std::pair<std::string, std::string>> synonyms, int num_shards,
    ThreadPool* pool, MetricsRegistry* metrics, IndexManagerOptions manager_options)
    : metrics_(metrics), retry_hint_ms_(RetryHintMs(manager_options)) {
  KJOIN_CHECK(num_shards >= 1) << "ShardedIndexManager needs at least one shard";
  const int64_t n = static_cast<int64_t>(objects.size());
  std::vector<std::vector<Object>> parts(static_cast<size_t>(num_shards));
  std::vector<std::vector<int32_t>> globals(static_cast<size_t>(num_shards));
  for (int64_t g = 0; g < n; ++g) {
    const auto s = static_cast<size_t>(ShardOf(g, num_shards));
    parts[s].push_back(std::move(objects[static_cast<size_t>(g)]));
    globals[s].push_back(static_cast<int32_t>(g));
  }
  shards_.reserve(static_cast<size_t>(num_shards));
  to_global_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<IndexManager>(
        hierarchy, options, std::move(parts[static_cast<size_t>(s)]), tokens, synonyms,
        pool, /*metrics=*/nullptr, manager_options));
    to_global_.push_back(
        std::make_shared<const std::vector<int32_t>>(std::move(globals[static_cast<size_t>(s)])));
  }
  next_global_ = n;
  if (metrics_ != nullptr) {
    metrics_->gauge("sharded.num_shards")->Set(num_shards);
    metrics_->gauge("sharded.num_objects")->Set(n);
  }
}

std::shared_ptr<const std::vector<int32_t>> ShardedIndexManager::GlobalIndexes(int s) const {
  std::lock_guard<std::mutex> lock(mu_);
  return to_global_[static_cast<size_t>(s)];
}

Status ShardedIndexManager::AttachWal(const std::string& path_prefix, bool fsync) {
  for (int s = 0; s < num_shards(); ++s) {
    KJOIN_RETURN_IF_ERROR(
        shards_[static_cast<size_t>(s)]->AttachWal(
            path_prefix + ".shard-" + std::to_string(s), fsync));
  }
  // Replay may have grown the shards past what the constructor placed.
  // Reconstruct the global numbering from the counts alone: re-run the
  // placement function over g = 0..M-1 and require it to land exactly
  // the recovered count on every shard.
  std::vector<int64_t> sizes(static_cast<size_t>(num_shards()));
  int64_t total = 0;
  for (int s = 0; s < num_shards(); ++s) {
    shards_[static_cast<size_t>(s)]->Flush();
    sizes[static_cast<size_t>(s)] =
        shards_[static_cast<size_t>(s)]->Acquire()->index->num_indexed();
    total += sizes[static_cast<size_t>(s)];
  }
  std::vector<std::vector<int32_t>> globals(static_cast<size_t>(num_shards()));
  for (int s = 0; s < num_shards(); ++s) {
    globals[static_cast<size_t>(s)].reserve(static_cast<size_t>(sizes[static_cast<size_t>(s)]));
  }
  for (int64_t g = 0; g < total; ++g) {
    globals[static_cast<size_t>(ShardOf(g, num_shards()))].push_back(static_cast<int32_t>(g));
  }
  for (int s = 0; s < num_shards(); ++s) {
    if (static_cast<int64_t>(globals[static_cast<size_t>(s)].size()) !=
        sizes[static_cast<size_t>(s)]) {
      return DataLossError(
          "sharded WAL set is not reconstructible: shard " + std::to_string(s) + " holds " +
          std::to_string(sizes[static_cast<size_t>(s)]) + " objects but the placement " +
          "function assigns it " + std::to_string(globals[static_cast<size_t>(s)].size()) +
          " of " + std::to_string(total) + " — a mutation batch landed on only part of " +
          "the shard set (see docs/serving.md); recover from a snapshot");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (int s = 0; s < num_shards(); ++s) {
    to_global_[static_cast<size_t>(s)] = std::make_shared<const std::vector<int32_t>>(
        std::move(globals[static_cast<size_t>(s)]));
  }
  next_global_ = total;
  if (metrics_ != nullptr) metrics_->gauge("sharded.num_objects")->Set(total);
  return OkStatus();
}

Status ShardedIndexManager::InsertBatch(std::vector<Object> objects,
                                        std::vector<std::string> tokens) {
  // Up-front health gate: a batch that lands on only some shards breaks
  // the count-based numbering reconstruction (see AttachWal), so refuse
  // the whole batch while any shard is degraded read-only. A kRecovering
  // shard is writable on purpose — its manager only returns to kServing
  // once a real append is acked, and that append has to come through
  // here.
  for (int s = 0; s < num_shards(); ++s) {
    const ManagerHealth health = shards_[static_cast<size_t>(s)]->HealthSnapshot();
    if (health.state == HealthState::kDegradedReadOnly) {
      return UnavailableError("sharded insert rejected: shard " + std::to_string(s) +
                              " is degraded read-only; " + RetryAfterField(retry_hint_ms_));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t n = static_cast<int64_t>(objects.size());
  std::vector<std::vector<Object>> parts(static_cast<size_t>(num_shards()));
  std::vector<std::vector<int32_t>> added(static_cast<size_t>(num_shards()));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t g = next_global_ + i;
    const auto s = static_cast<size_t>(ShardOf(g, num_shards()));
    parts[s].push_back(std::move(objects[static_cast<size_t>(i)]));
    added[s].push_back(static_cast<int32_t>(g));
  }
  // Extend the mappings BEFORE handing anything to a shard: with an
  // inline rebuild (null / single-lane pool) the shard publishes the new
  // epoch inside InsertBatch, and a concurrent gatherer that acquires
  // that epoch must already find the mapping covering it. The mapping
  // being a superset of the published state is always safe — a local
  // index the shard never accepted simply never appears in a hit.
  for (int s = 0; s < num_shards(); ++s) {
    if (added[static_cast<size_t>(s)].empty()) continue;
    const std::vector<int32_t>& old = *to_global_[static_cast<size_t>(s)];
    auto next = std::make_shared<std::vector<int32_t>>();
    next->reserve(old.size() + added[static_cast<size_t>(s)].size());
    next->insert(next->end(), old.begin(), old.end());
    next->insert(next->end(), added[static_cast<size_t>(s)].begin(),
                 added[static_cast<size_t>(s)].end());
    to_global_[static_cast<size_t>(s)] = std::move(next);
  }
  Status result = OkStatus();
  for (int s = 0; s < num_shards(); ++s) {
    // Token extensions go to every shard — a shard skipped here would
    // reject a later batch that references the new ids.
    Status status = shards_[static_cast<size_t>(s)]->InsertBatch(
        std::move(parts[static_cast<size_t>(s)]), tokens);
    // On failure keep the first error but finish the fan-out: shards
    // that do accept their part stay consistent with their own WALs.
    // Reads stay correct (see above), but the WAL set as a whole may now
    // fail reconstruction on recovery (documented limitation).
    if (result.ok() && !status.ok()) result = status;
  }
  next_global_ += n;
  if (metrics_ != nullptr) {
    metrics_->gauge("sharded.num_objects")->Set(next_global_);
    if (!result.ok()) metrics_->counter("sharded.partial_insert_failures")->Increment();
  }
  return result;
}

Status ShardedIndexManager::DeleteObjects(std::vector<int32_t> global_indexes) {
  std::vector<std::vector<int32_t>> per_shard(static_cast<size_t>(num_shards()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int32_t g : global_indexes) {
      if (g < 0 || g >= next_global_) {
        return InvalidArgumentError("DeleteObjects: global index " + std::to_string(g) +
                                    " out of range [0, " + std::to_string(next_global_) + ")");
      }
      const int s = ShardOf(g, num_shards());
      const std::vector<int32_t>& table = *to_global_[static_cast<size_t>(s)];
      const auto it = std::lower_bound(table.begin(), table.end(), g);
      if (it == table.end() || *it != g) {
        // Assigned to the shard by the placement function but never
        // accepted by it (a past partial insert failure).
        return InvalidArgumentError("DeleteObjects: global index " + std::to_string(g) +
                                    " is not present on its shard " + std::to_string(s));
      }
      per_shard[static_cast<size_t>(s)].push_back(
          static_cast<int32_t>(it - table.begin()));
    }
  }
  Status result = OkStatus();
  for (int s = 0; s < num_shards(); ++s) {
    if (per_shard[static_cast<size_t>(s)].empty()) continue;
    Status status = shards_[static_cast<size_t>(s)]->DeleteObjects(
        std::move(per_shard[static_cast<size_t>(s)]));
    if (result.ok() && !status.ok()) result = status;
  }
  return result;
}

void ShardedIndexManager::Flush() {
  for (auto& shard : shards_) shard->Flush();
}

int64_t ShardedIndexManager::num_objects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_global_;
}

ManagerHealth ShardedIndexManager::HealthSnapshot() const {
  ManagerHealth worst;
  for (const auto& shard : shards_) {
    const ManagerHealth health = shard->HealthSnapshot();
    // Degraded dominates recovering dominates serving.
    if (health.state == HealthState::kDegradedReadOnly ||
        (health.state == HealthState::kRecovering &&
         worst.state == HealthState::kServing)) {
      worst.state = health.state;
    }
    worst.consecutive_wal_failures =
        std::max(worst.consecutive_wal_failures, health.consecutive_wal_failures);
    worst.read_only_trips += health.read_only_trips;
    worst.recoveries += health.recoveries;
  }
  return worst;
}

}  // namespace kjoin::serve
