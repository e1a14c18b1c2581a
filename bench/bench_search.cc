// Extension bench (not a paper figure): KJoinIndex similarity-search
// throughput vs threshold, plus the serving stack — snapshot-load vs
// text-parse+rebuild cold start, concurrent QPS through the one-shard
// router with latency percentiles, the cost of the router's metrics
// (alternating A/B reps), the durable write path (acked insert latency with
// WAL fsync, delta-publish bytes vs a full postings copy, compaction
// pauses), and search throughput as a function of delta-chain depth
// against a compacted twin, the sharded scatter-gather path, and the
// network front end (the same router behind a loopback KJNP socket at
// 1/8/64 connections vs in-process, answers bit-identical). With --out
// the serving sections are written as a JSON report that
// scripts/run_bench.sh merges into the PR bench file
// (scripts/compare_bench.py tracks the speedup, per-client QPS, delta
// publish bytes, per-depth QPS + identity flags, and the network rows'
// qps_vs_inprocess floor).
//
//   ./bench_search [--n 20000] [--queries 2000]
//                  [--serve_n 4000] [--serve_queries 240] [--out serving.json]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/kjoin_index.h"
#include "data/dataset_io.h"
#include "hierarchy/hierarchy_io.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/index_manager.h"
#include "serve/shard_router.h"
#include "serve/snapshot.h"

namespace {

using kjoin::bench::Fmt;
using kjoin::bench::PrintRow;

std::string JsonBool(bool b) { return b ? "true" : "false"; }

// Sample-exact nearest-rank percentile, shared with the metrics export
// (common/metrics.h).
using kjoin::PercentileOfSorted;

struct ConcurrentRow {
  int clients = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool results_identical = false;
};

struct DeltaRow {
  int depth = 0;
  double delta_qps = 0.0;
  double flat_qps = 0.0;
  double overhead_pct = 0.0;
  bool results_identical = false;
};

// Every hit at or above the index's own tau (a threshold search).
std::vector<kjoin::SearchHit> SearchAll(const kjoin::KJoinIndex& index,
                                        const kjoin::Object& query) {
  std::vector<kjoin::SearchHit> hits;
  (void)index.SearchTopK(query, 0, index.options().tau, kjoin::JoinControl{}, &hits);
  return hits;
}

int64_t PostingEntryBytes(const kjoin::KJoinIndex& index) {
  return index.posting_entries() * static_cast<int64_t>(sizeof(int32_t));
}

}  // namespace

int main(int argc, char** argv) {
  kjoin::FlagSet flags("bench_search");
  int64_t* n = flags.Int("n", 20000, "indexed records (threshold sweep)");
  int64_t* num_queries = flags.Int("queries", 2000, "queries to run (threshold sweep)");
  int64_t* serve_n = flags.Int("serve_n", 4000, "indexed records (serving sections)");
  int64_t* serve_queries = flags.Int("serve_queries", 240, "queries per client count");
  std::string* out = flags.String("out", "", "write the serving sections as JSON here");
  if (!flags.Parse(argc, argv)) return 1;

  const kjoin::BenchmarkData data = kjoin::MakePoiBenchmark(*n);
  const kjoin::PreparedObjects prepared =
      kjoin::BuildObjects(data.hierarchy, data.dataset, /*multi_mapping=*/false);

  kjoin::bench::PrintHeader("Similarity search (POI, n=" + std::to_string(*n) + ", " +
                            std::to_string(*num_queries) + " queries)");
  PrintRow({"tau", "build-s", "qps", "avg-cand", "avg-hits"}, 12);
  for (double tau : {0.6, 0.7, 0.8, 0.9}) {
    kjoin::KJoinOptions options;
    options.delta = 0.8;
    options.tau = tau;
    kjoin::WallTimer build_timer;
    const kjoin::KJoinIndex index(data.hierarchy, options, prepared.objects);
    const double build_seconds = build_timer.ElapsedSeconds();

    kjoin::WallTimer query_timer;
    int64_t total_candidates = 0;
    int64_t total_hits = 0;
    std::vector<kjoin::SearchHit> hits;
    for (int64_t q = 0; q < *num_queries; ++q) {
      const kjoin::Object& query = prepared.objects[(q * 131) % prepared.objects.size()];
      kjoin::SearchStats stats;
      (void)index.SearchTopK(query, 0, tau, kjoin::JoinControl{}, &hits, &stats);
      total_hits += static_cast<int64_t>(hits.size());
      total_candidates += stats.candidates;
    }
    const double seconds = query_timer.ElapsedSeconds();
    PrintRow({Fmt(tau, 2), Fmt(build_seconds, 2),
              Fmt(*num_queries / std::max(seconds, 1e-9), 0),
              Fmt(static_cast<double>(total_candidates) / *num_queries, 1),
              Fmt(static_cast<double>(total_hits) / *num_queries, 2)},
             12);
  }

  // ---- serving: cold start, snapshot-load vs text-parse+rebuild --------
  // Both paths start from the serialized artifacts a server would ship:
  // the text hierarchy/dataset files versus one binary snapshot.
  kjoin::bench::PrintHeader("Serving cold start (n=" + std::to_string(*serve_n) + ")");
  const kjoin::BenchmarkData serve_data = kjoin::MakePoiBenchmark(*serve_n, /*seed=*/51);
  const std::string tree_text = kjoin::SerializeHierarchy(serve_data.hierarchy);
  const std::string data_text = kjoin::SerializeDataset(serve_data.dataset);
  kjoin::KJoinOptions serve_options;
  serve_options.delta = 0.8;
  serve_options.tau = 0.6;
  serve_options.plus_mode = true;

  kjoin::WallTimer rebuild_timer;
  auto parsed_tree = kjoin::ParseHierarchy(tree_text, "bench");
  auto parsed_data = kjoin::ParseDataset(data_text, "bench");
  if (!parsed_tree.ok() || !parsed_data.ok()) {
    std::fprintf(stderr, "cold-start parse failed\n");
    return 1;
  }
  const kjoin::PreparedObjects rebuilt =
      kjoin::BuildObjects(*parsed_tree, *parsed_data, /*multi_mapping=*/true, 0.8);
  const kjoin::KJoinIndex rebuilt_index(*parsed_tree, serve_options, rebuilt.objects);
  const double rebuild_seconds = rebuild_timer.ElapsedSeconds();

  const std::string snapshot_path = "/tmp/bench_search_serving.snap";
  kjoin::serve::SnapshotInput input;
  input.index = &rebuilt_index;
  input.tokens = rebuilt.builder->TokenTable();
  input.synonyms = parsed_data->synonyms;
  if (!kjoin::serve::SaveIndexSnapshot(input, snapshot_path).ok()) {
    std::fprintf(stderr, "snapshot save failed\n");
    return 1;
  }
  kjoin::WallTimer load_timer;
  auto loaded = kjoin::serve::LoadIndexSnapshot(snapshot_path);
  const double load_seconds = load_timer.ElapsedSeconds();
  if (!loaded.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const uint64_t snapshot_bytes = loaded->file_bytes;
  const double snapshot_speedup = rebuild_seconds / std::max(load_seconds, 1e-9);
  PrintRow({"path", "seconds"}, 24);
  PrintRow({"text-parse+rebuild", Fmt(rebuild_seconds, 3)}, 24);
  PrintRow({"snapshot-load", Fmt(load_seconds, 3)}, 24);
  std::printf("snapshot: %llu bytes, load speedup %.1fx\n",
              static_cast<unsigned long long>(snapshot_bytes), snapshot_speedup);

  // ---- serving: concurrent QPS over the loaded snapshot ----------------
  kjoin::bench::PrintHeader("Concurrent one-shard router QPS (" +
                            std::to_string(*serve_queries) + " queries per client count)");
  kjoin::serve::QueryPipeline pipeline = kjoin::serve::MakeQueryPipeline(*loaded);
  kjoin::ThreadPool pool(2);
  kjoin::serve::IndexManager manager(std::move(*loaded), &pool);
  kjoin::serve::LocalShard local(&manager);
  kjoin::serve::ShardRouter one_shard({&local}, &pool);

  std::vector<kjoin::serve::QueryRequest> requests(*serve_queries);
  for (int64_t q = 0; q < *serve_queries; ++q) {
    std::vector<std::string> tokens =
        serve_data.dataset.records[(q * 97) % *serve_n].tokens;
    if (tokens.size() > 1) tokens.pop_back();
    requests[q].query = pipeline.builder->Build(-1, tokens);
    requests[q].top_k = 3;
  }
  // Serial baseline: concurrency must never change answers.
  std::vector<std::vector<kjoin::SearchHit>> baseline(requests.size());
  for (size_t q = 0; q < requests.size(); ++q) baseline[q] = one_shard.Search(requests[q]).hits;

  PrintRow({"clients", "qps", "p50-ms", "p99-ms", "identical"}, 12);
  std::vector<ConcurrentRow> concurrent_rows;
  for (int clients : {1, 2, 8}) {
    std::vector<std::vector<double>> latencies(clients);
    std::atomic<int> mismatches{0};
    kjoin::WallTimer wall;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        latencies[c].reserve(requests.size() / clients + 1);
        for (size_t q = c; q < requests.size(); q += clients) {
          const kjoin::serve::QueryResponse response = one_shard.Search(requests[q]);
          latencies[c].push_back(response.seconds);
          if (!response.status.ok() || response.hits != baseline[q]) mismatches.fetch_add(1);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double seconds = wall.ElapsedSeconds();

    std::vector<double> all;
    for (const auto& per_client : latencies) all.insert(all.end(), per_client.begin(), per_client.end());
    std::sort(all.begin(), all.end());
    ConcurrentRow row;
    row.clients = clients;
    row.qps = static_cast<double>(all.size()) / std::max(seconds, 1e-9);
    row.p50_ms = PercentileOfSorted(all, 0.50) * 1e3;
    row.p99_ms = PercentileOfSorted(all, 0.99) * 1e3;
    row.results_identical = mismatches.load() == 0;
    concurrent_rows.push_back(row);
    PrintRow({std::to_string(clients), Fmt(row.qps, 0), Fmt(row.p50_ms, 3), Fmt(row.p99_ms, 3),
              JsonBool(row.results_identical)},
             12);
  }
  std::remove(snapshot_path.c_str());

  // ---- serving: instrumentation overhead -----------------------------
  // A/B over the same manager and queries: a one-shard router without
  // metrics vs one with its metrics registry and a health poll per rep.
  // Reps alternate sides, and which side goes first, so drift (caches,
  // frequency scaling) lands on both; the overhead must stay under 1% at
  // steady state (compare_bench.py gates it).
  kjoin::bench::PrintHeader("Instrumentation overhead (alternating A/B reps)");
  kjoin::serve::ShardRouter plain_router({&local}, &pool);
  kjoin::MetricsRegistry instrumented_metrics;
  kjoin::serve::ShardRouter instrumented_router({&local}, &pool, {}, &instrumented_metrics);
  constexpr int kInstrumentationReps = 8;
  double plain_seconds = 0.0;
  double instrumented_seconds = 0.0;
  for (int rep = 0; rep < kInstrumentationReps; ++rep) {
    for (int turn = 0; turn < 2; ++turn) {
      const int side = (rep + turn) % 2;
      kjoin::serve::ShardRouter& side_router = side == 0 ? plain_router : instrumented_router;
      kjoin::WallTimer timer;
      if (side == 1) (void)manager.HealthSnapshot();  // the monitoring poll
      for (const kjoin::serve::QueryRequest& request : requests) {
        if (!side_router.Search(request).status.ok()) {
          std::fprintf(stderr, "query failed in instrumentation bench\n");
          return 1;
        }
      }
      (side == 0 ? plain_seconds : instrumented_seconds) += timer.ElapsedSeconds();
    }
  }
  const double instrumentation_queries =
      static_cast<double>(kInstrumentationReps) * static_cast<double>(requests.size());
  const double plain_qps = instrumentation_queries / std::max(plain_seconds, 1e-9);
  const double instrumented_qps = instrumentation_queries / std::max(instrumented_seconds, 1e-9);
  const double instrumentation_overhead_pct =
      (plain_qps / std::max(instrumented_qps, 1e-9) - 1.0) * 100.0;
  PrintRow({"router", "qps"}, 24);
  PrintRow({"no metrics", Fmt(plain_qps, 0)}, 24);
  PrintRow({"metrics + health", Fmt(instrumented_qps, 0)}, 24);
  std::printf("instrumentation overhead: %.2f%%\n", instrumentation_overhead_pct);

  // ---- serving: durable write path (WAL fsync on the ack path) ---------
  // One shared base stack for the write-path and delta-depth sections.
  kjoin::bench::PrintHeader("Durable write path (WAL fsync per acked batch)");
  kjoin::BenchmarkData wp_data = kjoin::MakePoiBenchmark(*serve_n, /*seed=*/51);
  auto wp_hierarchy = std::make_shared<const kjoin::Hierarchy>(std::move(wp_data.hierarchy));
  const kjoin::PreparedObjects wp_prepared =
      kjoin::BuildObjects(*wp_hierarchy, wp_data.dataset, /*multi_mapping=*/true, 0.8);
  constexpr int kWriteBatches = 64;
  constexpr int kObjectsPerBatch = 8;
  auto make_write_batch = [&](int b) {
    std::vector<kjoin::Object> batch;
    batch.reserve(kObjectsPerBatch);
    for (int i = 0; i < kObjectsPerBatch; ++i) {
      const int64_t id = b * kObjectsPerBatch + i;
      batch.push_back(wp_prepared.builder->Build(static_cast<int32_t>(*serve_n + id),
                                                 wp_data.dataset.records[id % *serve_n].tokens));
    }
    return batch;
  };
  // Writers run inline (no pool): the acked latency includes the WAL
  // append + fsync AND the epoch publish, i.e. the full ack path. The
  // first run never compacts, isolating the delta-publish cost; the
  // second run uses the default compaction threshold so the periodic
  // fold shows up in its tail latency.
  auto run_write_path = [&](kjoin::serve::IndexManagerOptions manager_options,
                            const std::string& wal_path, kjoin::MetricsRegistry* registry,
                            std::vector<double>* out_ms) {
    auto manager = std::make_unique<kjoin::serve::IndexManager>(
        wp_hierarchy, serve_options, wp_prepared.objects, wp_prepared.builder->TokenTable(),
        wp_data.dataset.synonyms, /*pool=*/nullptr, registry, manager_options);
    std::remove(wal_path.c_str());
    if (!manager->AttachWal(wal_path).ok()) {
      std::fprintf(stderr, "WAL attach failed: %s\n", wal_path.c_str());
      std::exit(1);
    }
    for (int b = 0; b < kWriteBatches; ++b) {
      kjoin::WallTimer acked;
      if (!manager->InsertBatch(make_write_batch(b)).ok()) {
        std::fprintf(stderr, "insert rejected in write-path bench\n");
        std::exit(1);
      }
      out_ms->push_back(acked.ElapsedSeconds() * 1e3);
    }
    manager->Flush();
    std::sort(out_ms->begin(), out_ms->end());
    return manager;
  };

  kjoin::serve::IndexManagerOptions no_compaction;
  no_compaction.max_delta_layers = 1 << 20;
  kjoin::MetricsRegistry delta_metrics;
  std::vector<double> delta_acked_ms;
  auto delta_writer =
      run_write_path(no_compaction, "/tmp/bench_search_delta.wal", &delta_metrics, &delta_acked_ms);
  kjoin::MetricsRegistry compact_metrics;
  std::vector<double> compact_acked_ms;
  auto compact_writer =
      run_write_path({}, "/tmp/bench_search_compact.wal", &compact_metrics, &compact_acked_ms);

  const int64_t base_postings_bytes = [&] {
    const kjoin::KJoinIndex base(*wp_hierarchy, serve_options, wp_prepared.objects);
    return PostingEntryBytes(base);
  }();
  const int64_t delta_publishes = delta_metrics.counter("manager.delta_publishes")->value();
  const double delta_publish_bytes_avg =
      static_cast<double>(delta_metrics.counter("manager.rebuild_bytes")->value()) /
      std::max<int64_t>(delta_publishes, 1);
  const double full_copy_ratio = delta_publish_bytes_avg / std::max<int64_t>(base_postings_bytes, 1);
  const int64_t compactions = compact_metrics.counter("manager.compactions")->value();
  const double compaction_pause_ms_avg =
      compact_metrics.histogram("manager.compaction_seconds")->sum() * 1e3 /
      std::max<int64_t>(compactions, 1);
  const double acked_p50_ms = PercentileOfSorted(delta_acked_ms, 0.50);
  const double acked_p99_ms = PercentileOfSorted(delta_acked_ms, 0.99);
  const double compacted_p99_ms = PercentileOfSorted(compact_acked_ms, 0.99);
  const int64_t wal_bytes = delta_writer->wal_size_bytes();

  PrintRow({"metric", "value"}, 28);
  PrintRow({"acked-p50-ms", Fmt(acked_p50_ms, 3)}, 28);
  PrintRow({"acked-p99-ms", Fmt(acked_p99_ms, 3)}, 28);
  PrintRow({"acked-p99-ms (compacting)", Fmt(compacted_p99_ms, 3)}, 28);
  PrintRow({"delta-publish-bytes", Fmt(delta_publish_bytes_avg, 0)}, 28);
  PrintRow({"base-postings-bytes", Fmt(static_cast<double>(base_postings_bytes), 0)}, 28);
  PrintRow({"compaction-pause-ms", Fmt(compaction_pause_ms_avg, 3)}, 28);
  std::printf("%lld acked batches, %lld WAL bytes; a delta publish writes %.2f%% of a "
              "full postings copy (%lld compactions in the compacting run)\n",
              static_cast<long long>(kWriteBatches), static_cast<long long>(wal_bytes),
              full_copy_ratio * 100.0, static_cast<long long>(compactions));
  delta_writer.reset();
  compact_writer.reset();
  std::remove("/tmp/bench_search_delta.wal");
  std::remove("/tmp/bench_search_compact.wal");

  // ---- serving: search QPS vs delta-chain depth ------------------------
  // A growing delta chain vs a twin that compacts after every publish:
  // same objects, same queries — the QPS gap is the chain's merge cost
  // and the identity flag proves depth never changes answers.
  kjoin::bench::PrintHeader("Search QPS vs delta depth (vs compacted twin)");
  kjoin::serve::IndexManagerOptions always_compact;
  always_compact.max_delta_layers = 0;
  kjoin::serve::IndexManager chained(wp_hierarchy, serve_options, wp_prepared.objects,
                                     wp_prepared.builder->TokenTable(),
                                     wp_data.dataset.synonyms, /*pool=*/nullptr, nullptr,
                                     no_compaction);
  kjoin::serve::IndexManager flattened(wp_hierarchy, serve_options, wp_prepared.objects,
                                       wp_prepared.builder->TokenTable(),
                                       wp_data.dataset.synonyms, /*pool=*/nullptr, nullptr,
                                       always_compact);
  const int64_t depth_reps = std::max<int64_t>(1, 960 / static_cast<int64_t>(requests.size()));
  auto measure_qps = [&](kjoin::serve::IndexManager& manager) {
    const auto epoch = manager.Acquire();
    kjoin::WallTimer timer;
    int64_t measured = 0;
    for (int64_t rep = 0; rep < depth_reps; ++rep) {
      for (const kjoin::serve::QueryRequest& request : requests) {
        measured += static_cast<int64_t>(SearchAll(*epoch->index, request.query).size());
      }
    }
    (void)measured;
    return static_cast<double>(depth_reps * requests.size()) /
           std::max(timer.ElapsedSeconds(), 1e-9);
  };
  auto answers_identical = [&] {
    const auto chained_epoch = chained.Acquire();
    const auto flat_epoch = flattened.Acquire();
    for (const kjoin::serve::QueryRequest& request : requests) {
      if (SearchAll(*chained_epoch->index, request.query) !=
          SearchAll(*flat_epoch->index, request.query)) {
        return false;
      }
    }
    return true;
  };

  PrintRow({"depth", "delta-qps", "flat-qps", "overhead-%", "identical"}, 12);
  std::vector<DeltaRow> delta_rows;
  int inserted_batches = 0;
  for (int depth : {0, 1, 4, 16}) {
    for (; inserted_batches < depth; ++inserted_batches) {
      std::vector<kjoin::Object> batch = make_write_batch(inserted_batches);
      if (!chained.InsertBatch(batch).ok() ||
          !flattened.InsertBatch(std::move(batch)).ok()) {
        std::fprintf(stderr, "insert rejected in delta-depth bench\n");
        return 1;
      }
    }
    chained.Flush();
    flattened.Flush();
    DeltaRow row;
    row.depth = chained.Acquire()->index->delta_depth();
    row.delta_qps = measure_qps(chained);
    row.flat_qps = measure_qps(flattened);
    row.overhead_pct = (row.flat_qps / std::max(row.delta_qps, 1e-9) - 1.0) * 100.0;
    row.results_identical = answers_identical();
    delta_rows.push_back(row);
    PrintRow({std::to_string(row.depth), Fmt(row.delta_qps, 0), Fmt(row.flat_qps, 0),
              Fmt(row.overhead_pct, 1), JsonBool(row.results_identical)},
             12);
  }

  // ---- serving: sharded scatter-gather top-k ---------------------------
  // Shard-per-core serving vs the single-index path (the router over one
  // unsharded IndexManager), same
  // collection, same top-k queries. QPS and latency at every shard count
  // x client count, with an identity check against the single-index
  // answers (the determinism contract) and the progressive-bound prune
  // counters.
  //
  // The workload is a top-1 lookup at a permissive floor (tau 0.4) — the
  // regime progressive pruning targets: the k-th best similarity sits
  // well above the floor, so the first shard to find the best match
  // collapses every later shard's prefix and lets the length screen drop
  // most of their verifications. As k grows (or the floor rises toward
  // the k-th best) the bound converges to the floor and the sharded path
  // converges to 8x the fixed per-probe cost; docs/serving.md discusses
  // the tradeoff.
  kjoin::bench::PrintHeader("Sharded scatter-gather serving (top-1 lookup, tau 0.4)");
  kjoin::KJoinOptions shard_serve_options;
  shard_serve_options.delta = 0.8;
  shard_serve_options.tau = 0.4;
  shard_serve_options.plus_mode = true;
  std::vector<kjoin::serve::QueryRequest> shard_requests(*serve_queries);
  for (int64_t q = 0; q < *serve_queries; ++q) {
    std::vector<std::string> tokens = wp_data.dataset.records[(q * 97) % *serve_n].tokens;
    if (tokens.size() > 1) tokens.pop_back();
    shard_requests[q].query = wp_prepared.builder->Build(-1, tokens);
    shard_requests[q].top_k = 1;
  }
  kjoin::ThreadPool shard_pool(2);
  kjoin::serve::IndexManager single_manager(
      wp_hierarchy, shard_serve_options, wp_prepared.objects,
      wp_prepared.builder->TokenTable(), wp_data.dataset.synonyms, &shard_pool);
  kjoin::serve::LocalShard single_shard(&single_manager);
  kjoin::serve::ShardRouter single_router({&single_shard}, &shard_pool);
  std::vector<std::vector<kjoin::SearchHit>> shard_baseline(shard_requests.size());
  for (size_t q = 0; q < shard_requests.size(); ++q) {
    shard_baseline[q] = single_router.Search(shard_requests[q]).hits;
  }

  struct ShardRow {
    int shards = 0;
    int clients = 0;
    double qps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    bool results_identical = false;
  };
  auto run_clients = [&](const std::function<kjoin::serve::QueryResponse(
                             const kjoin::serve::QueryRequest&)>& search,
                         int clients, ShardRow* row, kjoin::SearchStats* prune_totals) {
    std::vector<std::vector<double>> latencies(clients);
    std::atomic<int> mismatches{0};
    std::atomic<int64_t> tightenings{0};
    std::atomic<int64_t> pruned_lists{0};
    std::atomic<int64_t> pruned_entries{0};
    std::atomic<int64_t> raised_verifies{0};
    std::atomic<int64_t> skipped_verifies{0};
    kjoin::WallTimer wall;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        latencies[c].reserve(shard_requests.size() / clients + 1);
        for (size_t q = c; q < shard_requests.size(); q += clients) {
          const kjoin::serve::QueryResponse response = search(shard_requests[q]);
          latencies[c].push_back(response.seconds);
          if (!response.status.ok() || response.hits != shard_baseline[q]) {
            mismatches.fetch_add(1);
          }
          tightenings.fetch_add(response.stats.bound_tightenings);
          pruned_lists.fetch_add(response.stats.bound_pruned_lists);
          pruned_entries.fetch_add(response.stats.bound_pruned_entries);
          raised_verifies.fetch_add(response.stats.bound_raised_verifies);
          skipped_verifies.fetch_add(response.stats.bound_skipped_verifies);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double seconds = wall.ElapsedSeconds();
    std::vector<double> all;
    for (const auto& per_client : latencies) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    std::sort(all.begin(), all.end());
    row->clients = clients;
    row->qps = static_cast<double>(all.size()) / std::max(seconds, 1e-9);
    row->p50_ms = PercentileOfSorted(all, 0.50) * 1e3;
    row->p99_ms = PercentileOfSorted(all, 0.99) * 1e3;
    row->results_identical = mismatches.load() == 0;
    if (prune_totals != nullptr) {
      prune_totals->bound_tightenings += tightenings.load();
      prune_totals->bound_pruned_lists += pruned_lists.load();
      prune_totals->bound_pruned_entries += pruned_entries.load();
      prune_totals->bound_raised_verifies += raised_verifies.load();
      prune_totals->bound_skipped_verifies += skipped_verifies.load();
    }
  };

  PrintRow({"shards", "clients", "qps", "p50-ms", "p99-ms", "identical"}, 12);
  std::vector<ShardRow> baseline_rows;
  for (int clients : {1, 8}) {
    ShardRow row;
    row.shards = 0;  // the single-index path
    run_clients([&](const kjoin::serve::QueryRequest& r) { return single_router.Search(r); },
                clients, &row, nullptr);
    baseline_rows.push_back(row);
    PrintRow({"single", std::to_string(clients), Fmt(row.qps, 0), Fmt(row.p50_ms, 3),
              Fmt(row.p99_ms, 3), JsonBool(row.results_identical)},
             12);
  }

  std::vector<ShardRow> shard_rows;
  kjoin::SearchStats prune_totals;
  for (int shards : {1, 2, 4, 8}) {
    kjoin::serve::ShardedIndexManager sharded(
        wp_hierarchy, shard_serve_options, wp_prepared.objects,
        wp_prepared.builder->TokenTable(), wp_data.dataset.synonyms, shards, &shard_pool);
    std::vector<std::unique_ptr<kjoin::serve::LocalShard>> backends;
    std::vector<kjoin::serve::ShardBackend*> backend_ptrs;
    for (int s = 0; s < shards; ++s) {
      backends.push_back(std::make_unique<kjoin::serve::LocalShard>(&sharded, s));
      backend_ptrs.push_back(backends.back().get());
    }
    kjoin::serve::ShardRouter router(backend_ptrs, &shard_pool);
    for (int clients : {1, 8}) {
      ShardRow row;
      row.shards = shards;
      run_clients([&](const kjoin::serve::QueryRequest& r) { return router.Search(r); },
                  clients, &row, &prune_totals);
      shard_rows.push_back(row);
      PrintRow({std::to_string(shards), std::to_string(clients), Fmt(row.qps, 0),
                Fmt(row.p50_ms, 3), Fmt(row.p99_ms, 3), JsonBool(row.results_identical)},
               12);
    }
  }
  const double single_8c_qps = baseline_rows.back().qps;
  const ShardRow& sharded_8x8 = shard_rows.back();
  const double sharded_speedup = sharded_8x8.qps / std::max(single_8c_qps, 1e-9);
  std::printf("8 shards / 8 clients: %.2fx the single-index path; bound tightened %lld "
              "times, pruned %lld posting entries, length-screened %lld "
              "verifications across the runs\n",
              sharded_speedup, static_cast<long long>(prune_totals.bound_tightenings),
              static_cast<long long>(prune_totals.bound_pruned_entries),
              static_cast<long long>(prune_totals.bound_skipped_verifies));

  // ---- serving: network front end (KJNP over loopback) -----------------
  // The same 2-shard collection behind a KJoinServer on a loopback
  // socket versus the identical in-process router. Queries travel as
  // token strings and come back as bit-exact f64 similarities, so every
  // network row must match the in-process answers exactly;
  // compare_bench.py gates qps_vs_inprocess >= 0.5 at 8 connections and
  // fails on any identity flip.
  kjoin::bench::PrintHeader("Network serving (KJNP loopback, 2 shards, top-3)");
  struct NetRow {
    int connections = 0;
    double qps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double qps_vs_inprocess = 0.0;
    bool results_identical = false;
  };
  std::vector<std::vector<std::string>> net_tokens(*serve_queries);
  for (int64_t q = 0; q < *serve_queries; ++q) {
    std::vector<std::string> tokens = wp_data.dataset.records[(q * 97) % *serve_n].tokens;
    if (tokens.size() > 1) tokens.pop_back();
    net_tokens[q] = std::move(tokens);
  }
  kjoin::MetricsRegistry net_metrics;
  kjoin::ThreadPool net_pool(2);
  kjoin::serve::ShardedIndexManager net_sharded(
      wp_hierarchy, serve_options, wp_prepared.objects, wp_prepared.builder->TokenTable(),
      wp_data.dataset.synonyms, /*num_shards=*/2, &net_pool, &net_metrics);
  std::vector<std::unique_ptr<kjoin::serve::LocalShard>> net_backends;
  std::vector<kjoin::serve::ShardBackend*> net_backend_ptrs;
  for (int s = 0; s < 2; ++s) {
    net_backends.push_back(std::make_unique<kjoin::serve::LocalShard>(&net_sharded, s));
    net_backend_ptrs.push_back(net_backends.back().get());
  }
  kjoin::serve::ShardRouter net_router(net_backend_ptrs, &net_pool, {}, &net_metrics);

  // Query objects and the reference answers, built BEFORE the server
  // starts — once it runs, the builder belongs to it.
  std::vector<kjoin::serve::QueryRequest> net_requests(*serve_queries);
  for (int64_t q = 0; q < *serve_queries; ++q) {
    net_requests[q].query = wp_prepared.builder->Build(-1, net_tokens[q]);
    net_requests[q].top_k = 3;
  }
  std::vector<std::vector<kjoin::SearchHit>> net_baseline(net_requests.size());
  for (size_t q = 0; q < net_requests.size(); ++q) {
    net_baseline[q] = net_router.Search(net_requests[q]).hits;
  }

  // In-process reference throughput: 8 threads doing exactly the work
  // one network request costs — build a query object from the token
  // strings, then run the router. The build is the server's own
  // read-only one (BuildQuery against a frozen dictionary), so it takes
  // no lock; leaving the build out would compare the network
  // tokens-in/hits-out contract against a cheaper job.
  double inprocess_qps = 0.0;
  double inprocess_p50_ms = 0.0;
  double inprocess_p99_ms = 0.0;
  {
    constexpr int kInProcessThreads = 8;
    const std::shared_ptr<const kjoin::TokenDictionary> dictionary =
        wp_prepared.builder->Dictionary();
    std::vector<std::vector<double>> latencies(kInProcessThreads);
    kjoin::WallTimer wall;
    std::vector<std::thread> threads;
    threads.reserve(kInProcessThreads);
    for (int c = 0; c < kInProcessThreads; ++c) {
      threads.emplace_back([&, c] {
        for (size_t q = c; q < net_tokens.size(); q += kInProcessThreads) {
          kjoin::WallTimer one;
          kjoin::serve::QueryRequest request;
          request.query = wp_prepared.builder->BuildQuery(-1, net_tokens[q], *dictionary);
          request.top_k = 3;
          (void)net_router.Search(request);
          latencies[c].push_back(one.ElapsedSeconds());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double seconds = wall.ElapsedSeconds();
    std::vector<double> all;
    for (const auto& per_client : latencies) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    std::sort(all.begin(), all.end());
    inprocess_qps = static_cast<double>(all.size()) / std::max(seconds, 1e-9);
    inprocess_p50_ms = PercentileOfSorted(all, 0.50) * 1e3;
    inprocess_p99_ms = PercentileOfSorted(all, 0.99) * 1e3;
  }

  kjoin::net::ServerOptions net_server_options;
  net_server_options.num_loops = 2;
  kjoin::net::KJoinServer net_server(&net_router, &net_sharded, wp_prepared.builder.get(),
                                     &net_metrics, net_server_options);
  if (!net_server.Start().ok()) {
    std::fprintf(stderr, "network bench: server start failed\n");
    return 1;
  }
  PrintRow({"conns", "qps", "p50-ms", "p99-ms", "vs-inproc", "identical"}, 12);
  PrintRow({"in-proc", Fmt(inprocess_qps, 0), Fmt(inprocess_p50_ms, 3),
            Fmt(inprocess_p99_ms, 3), "1.000", "true"},
           12);
  std::vector<NetRow> net_rows;
  for (int connections : {1, 8, 64}) {
    std::vector<std::vector<double>> latencies(connections);
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    kjoin::WallTimer wall;
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        kjoin::net::KJoinClient client;
        if (!client.Connect("127.0.0.1", net_server.port()).ok()) {
          failures.fetch_add(1);
          return;
        }
        for (size_t q = c; q < net_tokens.size(); q += connections) {
          kjoin::WallTimer one;
          kjoin::StatusOr<kjoin::net::NetResponse> got = client.TopK(net_tokens[q], 3);
          latencies[c].push_back(one.ElapsedSeconds());
          if (!got.ok() || got->code != 0) {
            failures.fetch_add(1);
            continue;
          }
          bool identical = got->hits.size() == net_baseline[q].size();
          for (size_t h = 0; identical && h < net_baseline[q].size(); ++h) {
            identical = got->hits[h].object_index == net_baseline[q][h].object_index &&
                        got->hits[h].similarity == net_baseline[q][h].similarity;
          }
          if (!identical) mismatches.fetch_add(1);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double seconds = wall.ElapsedSeconds();
    std::vector<double> all;
    for (const auto& per_client : latencies) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    std::sort(all.begin(), all.end());
    NetRow row;
    row.connections = connections;
    row.qps = static_cast<double>(all.size()) / std::max(seconds, 1e-9);
    row.p50_ms = PercentileOfSorted(all, 0.50) * 1e3;
    row.p99_ms = PercentileOfSorted(all, 0.99) * 1e3;
    row.qps_vs_inprocess = row.qps / std::max(inprocess_qps, 1e-9);
    row.results_identical = mismatches.load() == 0 && failures.load() == 0;
    net_rows.push_back(row);
    PrintRow({std::to_string(connections), Fmt(row.qps, 0), Fmt(row.p50_ms, 3),
              Fmt(row.p99_ms, 3), Fmt(row.qps_vs_inprocess, 3),
              JsonBool(row.results_identical)},
             12);
  }
  net_server.Shutdown();
  std::printf("loopback at 8 connections: %.2fx the in-process router "
              "(%lld frames served, %lld backpressure stalls)\n",
              net_rows[1].qps_vs_inprocess,
              static_cast<long long>(net_metrics.counter("net.frames_written")->value()),
              static_cast<long long>(net_metrics.counter("net.backpressure_stalls")->value()));

  // ---- JSON report (serving sections only; run_bench.sh merges it) -----
  if (!out->empty()) {
    std::FILE* f = std::fopen(out->c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out->c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"serving_cold_start\": {\"n\": %lld, \"rebuild_seconds\": %.4f, "
                 "\"load_seconds\": %.4f, \"snapshot_speedup\": %.2f, "
                 "\"snapshot_bytes\": %llu},\n",
                 static_cast<long long>(*serve_n), rebuild_seconds, load_seconds,
                 snapshot_speedup, static_cast<unsigned long long>(snapshot_bytes));
    std::fprintf(f, "  \"serving_qps\": [");
    for (size_t i = 0; i < concurrent_rows.size(); ++i) {
      const ConcurrentRow& row = concurrent_rows[i];
      std::fprintf(f,
                   "%s\n    {\"clients\": %d, \"qps\": %.1f, \"p50_ms\": %.3f, "
                   "\"p99_ms\": %.3f, \"results_identical\": %s}",
                   i == 0 ? "" : ",", row.clients, row.qps, row.p50_ms, row.p99_ms,
                   JsonBool(row.results_identical).c_str());
    }
    std::fprintf(f, "\n  ],\n");
    std::fprintf(f,
                 "  \"serving_instrumentation\": {\"reps\": %d, \"queries_per_rep\": %zu, "
                 "\"plain_qps\": %.1f, \"instrumented_qps\": %.1f, "
                 "\"overhead_pct\": %.3f},\n",
                 kInstrumentationReps, requests.size(), plain_qps, instrumented_qps,
                 instrumentation_overhead_pct);
    std::fprintf(f,
                 "  \"serving_write_path\": {\"batches\": %d, \"objects_per_batch\": %d, "
                 "\"acked_p50_ms\": %.4f, \"acked_p99_ms\": %.4f, "
                 "\"compacted_p99_ms\": %.4f, \"wal_bytes\": %lld, "
                 "\"delta_publish_bytes_avg\": %.0f, \"base_postings_bytes\": %lld, "
                 "\"full_copy_ratio\": %.5f, \"compactions\": %lld, "
                 "\"compaction_pause_ms_avg\": %.4f},\n",
                 kWriteBatches, kObjectsPerBatch, acked_p50_ms, acked_p99_ms, compacted_p99_ms,
                 static_cast<long long>(wal_bytes), delta_publish_bytes_avg,
                 static_cast<long long>(base_postings_bytes), full_copy_ratio,
                 static_cast<long long>(compactions), compaction_pause_ms_avg);
    std::fprintf(f, "  \"serving_delta_search\": [");
    for (size_t i = 0; i < delta_rows.size(); ++i) {
      const DeltaRow& row = delta_rows[i];
      std::fprintf(f,
                   "%s\n    {\"depth\": %d, \"delta_qps\": %.1f, \"flat_qps\": %.1f, "
                   "\"overhead_pct\": %.2f, \"results_identical\": %s}",
                   i == 0 ? "" : ",", row.depth, row.delta_qps, row.flat_qps, row.overhead_pct,
                   JsonBool(row.results_identical).c_str());
    }
    std::fprintf(f, "\n  ],\n");
    std::fprintf(f, "  \"serving_sharded\": {\n    \"single_index\": [");
    for (size_t i = 0; i < baseline_rows.size(); ++i) {
      const ShardRow& row = baseline_rows[i];
      std::fprintf(f,
                   "%s\n      {\"clients\": %d, \"qps\": %.1f, \"p50_ms\": %.3f, "
                   "\"p99_ms\": %.3f, \"results_identical\": %s}",
                   i == 0 ? "" : ",", row.clients, row.qps, row.p50_ms, row.p99_ms,
                   JsonBool(row.results_identical).c_str());
    }
    std::fprintf(f, "\n    ],\n    \"sharded\": [");
    for (size_t i = 0; i < shard_rows.size(); ++i) {
      const ShardRow& row = shard_rows[i];
      const double vs_single =
          row.qps / std::max(row.clients == 1 ? baseline_rows.front().qps
                                              : baseline_rows.back().qps,
                             1e-9);
      std::fprintf(f,
                   "%s\n      {\"shards\": %d, \"clients\": %d, \"qps\": %.1f, "
                   "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"qps_vs_single\": %.3f, "
                   "\"results_identical\": %s}",
                   i == 0 ? "" : ",", row.shards, row.clients, row.qps, row.p50_ms, row.p99_ms,
                   vs_single, JsonBool(row.results_identical).c_str());
    }
    std::fprintf(f,
                 "\n    ],\n    \"speedup_8shard_8client\": %.3f,\n"
                 "    \"tau_prune\": {\"bound_tightenings\": %lld, "
                 "\"bound_pruned_lists\": %lld, \"bound_pruned_entries\": %lld, "
                 "\"bound_raised_verifies\": %lld, "
                 "\"bound_skipped_verifies\": %lld}\n  },\n",
                 sharded_speedup, static_cast<long long>(prune_totals.bound_tightenings),
                 static_cast<long long>(prune_totals.bound_pruned_lists),
                 static_cast<long long>(prune_totals.bound_pruned_entries),
                 static_cast<long long>(prune_totals.bound_raised_verifies),
                 static_cast<long long>(prune_totals.bound_skipped_verifies));
    std::fprintf(f,
                 "  \"serving_network\": {\n    \"in_process\": {\"threads\": 8, "
                 "\"qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f},\n    \"network\": [",
                 inprocess_qps, inprocess_p50_ms, inprocess_p99_ms);
    for (size_t i = 0; i < net_rows.size(); ++i) {
      const NetRow& row = net_rows[i];
      std::fprintf(f,
                   "%s\n      {\"connections\": %d, \"qps\": %.1f, \"p50_ms\": %.3f, "
                   "\"p99_ms\": %.3f, \"qps_vs_inprocess\": %.3f, "
                   "\"results_identical\": %s}",
                   i == 0 ? "" : ",", row.connections, row.qps, row.p50_ms, row.p99_ms,
                   row.qps_vs_inprocess, JsonBool(row.results_identical).c_str());
    }
    std::fprintf(f, "\n    ]\n  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out->c_str());
  }
  return 0;
}
