// kjoin_server — the serving stack end to end: snapshot cold start, an
// RCU-swapped live index, and concurrent clients with deadlines.
//
//   ./kjoin_server --n 5000 --clients 4 --queries 50 --snapshot poi.snap --wal poi.wal
//
// With --snapshot the index is loaded from the file when it exists
// (skipping tokenization, entity matching, signature generation and the
// LCA build) and built-then-saved when it does not, so the second run
// demonstrates the fast cold start. With --wal every accepted write is
// appended and fsynced before it is acked, and startup replays whatever
// the log holds past the snapshot — kill the process mid-run and the
// next run serves every acked batch (docs/serving.md, "Durability").
// While clients are querying, the main thread inserts a batch of new
// records; the epoch swap is visible only as a version bump in the
// responses. Exits with the metrics registry dumped as JSON.
//
// With --shards N (N > 1) the demo serves the same collection from a
// ShardedIndexManager behind a scatter-gather ShardRouter instead: every
// query fans out to all N shards under one shared progressive top-k
// bound (docs/serving.md, "Sharded serving"). The exit metrics JSON then
// carries the per-shard probe/τ-prune counters (router.shard<i>.*) and
// a sharded.shard<i>.pending_inserts gauge per shard; --wal uses one log
// per shard (<wal>.shard-<i>).
//
// With --listen PORT the same sharded stack goes on the network instead
// (docs/serving.md, "Network protocol"): a KJoinServer accepts KJNP
// frames on PORT (0 = ephemeral, printed at startup) with --loops epoll
// event loops, and the process blocks until SIGTERM/SIGINT, which
// triggers the graceful drain — every request read before the signal
// still gets its response. Pair it with a second process:
//
//   ./kjoin_server --n 5000 --listen 7421 &
//   ./kjoin_server --n 5000 --connect 127.0.0.1:7421
//   kill -TERM %1            # graceful drain
//
// The --connect side rebuilds the identical deterministic dataset (same
// --n, same seed), serves it from an in-process router, and checks every
// network response bit-for-bit against the local one — hit indexes and
// f64 similarities must be identical; the wire adds zero numeric drift.
// It then INSERTs a new record over the network and polls (bounded
// retries) until the insert is searchable, proving the write path and
// epoch publication work end to end. Both --n values must match or the
// identity check fails loudly.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "data/benchmark_suite.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/index_manager.h"
#include "serve/shard_router.h"
#include "serve/snapshot.h"

namespace {

// RequestShutdown is async-signal-safe (one eventfd write), so the
// handler may call it directly.
kjoin::net::KJoinServer* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

// The serving stack both network modes build: the deterministic POI
// dataset sharded behind a scatter-gather router. Declaration order is
// teardown order in reverse, which is what the borrow graph needs.
struct ServingStack {
  kjoin::Dataset dataset;
  std::shared_ptr<const kjoin::Hierarchy> hierarchy;
  kjoin::PreparedObjects prepared;
  std::unique_ptr<kjoin::serve::ShardedIndexManager> sharded;
  std::vector<std::unique_ptr<kjoin::serve::LocalShard>> backends;
  std::unique_ptr<kjoin::serve::ShardRouter> router;
};

ServingStack BuildServingStack(int64_t n, const kjoin::KJoinOptions& options, int shards,
                               double deadline, kjoin::ThreadPool* pool,
                               kjoin::MetricsRegistry* metrics) {
  ServingStack stack;
  kjoin::BenchmarkData data = kjoin::MakePoiBenchmark(n, /*seed=*/51);
  stack.dataset = std::move(data.dataset);
  stack.hierarchy = std::make_shared<const kjoin::Hierarchy>(std::move(data.hierarchy));
  stack.prepared = kjoin::BuildObjects(*stack.hierarchy, stack.dataset,
                                       /*multi_mapping=*/true, options.delta);
  stack.sharded = std::make_unique<kjoin::serve::ShardedIndexManager>(
      stack.hierarchy, options, stack.prepared.objects, stack.prepared.builder->TokenTable(),
      stack.dataset.synonyms, shards, pool, metrics);
  std::vector<kjoin::serve::ShardBackend*> backend_ptrs;
  for (int s = 0; s < shards; ++s) {
    stack.backends.push_back(
        std::make_unique<kjoin::serve::LocalShard>(stack.sharded.get(), s));
    backend_ptrs.push_back(stack.backends.back().get());
  }
  kjoin::serve::ShardRouterOptions router_options;
  router_options.default_deadline_seconds = deadline;
  stack.router = std::make_unique<kjoin::serve::ShardRouter>(backend_ptrs, pool,
                                                             router_options, metrics);
  return stack;
}

std::vector<std::string> QueryTokens(const kjoin::Dataset& dataset, int64_t i) {
  std::vector<std::string> tokens =
      dataset.records[static_cast<size_t>((i * 97) % static_cast<int64_t>(dataset.records.size()))]
          .tokens;
  if (!tokens.empty()) tokens.pop_back();
  return tokens;
}

}  // namespace

int main(int argc, char** argv) {
  kjoin::FlagSet flags("kjoin_server");
  int64_t* n = flags.Int("n", 5000, "indexed POI records");
  double* delta = flags.Double("delta", 0.8, "element similarity threshold");
  double* tau = flags.Double("tau", 0.6, "object similarity threshold");
  int64_t* clients = flags.Int("clients", 4, "concurrent client threads");
  int64_t* queries = flags.Int("queries", 50, "queries per client");
  int64_t* topk = flags.Int("topk", 3, "top-k per query (0 = threshold search)");
  double* deadline = flags.Double("deadline", 0.1, "per-query deadline in seconds (0 = none)");
  int64_t* insert = flags.Int("insert", 200, "records to insert while clients run");
  int64_t* shards = flags.Int("shards", 1, "serve from N hash shards behind a scatter-gather router");
  std::string* snapshot = flags.String("snapshot", "", "snapshot file: load if present, else build and save");
  std::string* wal = flags.String("wal", "", "write-ahead log: replay on start, append every write");
  int64_t* listen = flags.Int("listen", -1, "serve KJNP on this port until SIGTERM (0 = ephemeral)");
  int64_t* loops = flags.Int("loops", 2, "epoll event loops for --listen");
  std::string* connect = flags.String("connect", "", "host:port of a --listen server to exercise");
  if (!flags.Parse(argc, argv)) return 1;
  // Out-of-range values are input errors here, not the library CHECKs
  // they would otherwise trip.
  const char* bad_flag = nullptr;
  if (!(*delta > 0.0 && *delta <= 1.0)) {
    bad_flag = "--delta must be in (0, 1]";
  } else if (!(*tau >= 0.0 && *tau <= 1.0)) {
    bad_flag = "--tau must be in [0, 1]";
  } else if (*loops < 1) {
    bad_flag = "--loops must be >= 1";
  } else if (*n < 1) {
    bad_flag = "--n must be >= 1";
  } else if (*clients < 1) {
    bad_flag = "--clients must be >= 1";
  } else if (*queries < 0) {
    bad_flag = "--queries must be >= 0";
  } else if (*insert < 0) {
    bad_flag = "--insert must be >= 0";
  } else if (*shards < 1) {
    bad_flag = "--shards must be >= 1";
  }
  if (bad_flag != nullptr) {
    std::fprintf(stderr, "%s\n%s", bad_flag, flags.Usage().c_str());
    return 1;
  }

  kjoin::ThreadPool pool(2);  // background lane for epoch rebuilds
  kjoin::MetricsRegistry metrics;

  kjoin::KJoinOptions net_options;
  net_options.delta = *delta;
  net_options.tau = *tau;
  net_options.plus_mode = true;

  // ---- network server (--listen PORT) ----------------------------------
  if (*listen >= 0) {
    kjoin::WallTimer cold;
    const int net_shards = static_cast<int>(*shards > 1 ? *shards : 2);
    ServingStack stack =
        BuildServingStack(*n, net_options, net_shards, *deadline, &pool, &metrics);
    kjoin::net::ServerOptions server_options;
    server_options.port = static_cast<int>(*listen);
    server_options.num_loops = static_cast<int>(*loops);
    kjoin::net::KJoinServer server(stack.router.get(), stack.sharded.get(),
                                   stack.prepared.builder.get(), &metrics, server_options);
    const kjoin::Status started = server.Start();
    if (!started.ok()) {
      std::printf("listen failed: %s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("cold start: %lld objects across %d shards in %.3fs\n",
                static_cast<long long>(*n), net_shards, cold.ElapsedSeconds());
    std::printf("listening on 127.0.0.1:%d (%lld event loops); SIGTERM drains\n",
                server.port(), static_cast<long long>(*loops));
    std::fflush(stdout);
    g_server = &server;
    std::signal(SIGTERM, HandleSignal);
    std::signal(SIGINT, HandleSignal);
    server.Wait();  // blocks until the signal, then drains
    g_server = nullptr;
    if (server.active_connections() != 0) {
      std::printf("drain left %lld connections open\n",
                  static_cast<long long>(server.active_connections()));
      return 1;
    }
    std::printf("drained cleanly: %lld requests served, 0 connections left\n",
                static_cast<long long>(metrics.counter("net.requests")->value()));
    std::printf("\nmetrics: %s\n", metrics.ToJson().c_str());
    return 0;
  }

  // ---- network client (--connect host:port) ----------------------------
  if (!connect->empty()) {
    const size_t colon = connect->rfind(':');
    if (colon == std::string::npos) {
      std::printf("--connect wants host:port, got %s\n", connect->c_str());
      return 1;
    }
    const std::string host = connect->substr(0, colon);
    const int port = std::atoi(connect->c_str() + colon + 1);
    // The identical deterministic stack, served in-process: the network
    // answers must match it bit for bit.
    ServingStack reference = BuildServingStack(
        *n, net_options, *shards > 1 ? static_cast<int>(*shards) : 2, *deadline, &pool, &metrics);
    const int64_t total = *clients * *queries;
    std::atomic<int64_t> ok{0}, non_ok{0}, mismatches{0}, transport_errors{0};
    kjoin::WallTimer serving;
    std::vector<std::thread> client_threads;
    client_threads.reserve(*clients);
    for (int64_t c = 0; c < *clients; ++c) {
      client_threads.emplace_back([&, c] {
        kjoin::net::KJoinClient client;
        if (!client.Connect(host, port).ok()) {
          transport_errors.fetch_add(*queries, std::memory_order_relaxed);
          return;
        }
        for (int64_t q = 0; q < *queries; ++q) {
          const int64_t i = c * *queries + q;
          const std::vector<std::string> tokens = QueryTokens(reference.dataset, i);
          kjoin::StatusOr<kjoin::net::NetResponse> got =
              *topk > 0 ? client.TopK(tokens, static_cast<int32_t>(*topk))
                        : client.Search(tokens);
          if (!got.ok()) {
            transport_errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (got->code != 0) {
            non_ok.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          ok.fetch_add(1, std::memory_order_relaxed);
          kjoin::serve::QueryRequest local;
          local.query = reference.prepared.builder->Build(-1, tokens);
          if (*topk > 0) local.top_k = static_cast<int32_t>(*topk);
          const kjoin::serve::QueryResponse expected = reference.router->Search(local);
          bool identical = expected.status.ok() && got->hits.size() == expected.hits.size();
          for (size_t h = 0; identical && h < expected.hits.size(); ++h) {
            identical = got->hits[h].object_index == expected.hits[h].object_index &&
                        got->hits[h].similarity == expected.hits[h].similarity;
          }
          if (!identical) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : client_threads) t.join();
    std::printf("network: %lld queries over %lld connections in %.3fs — "
                "%lld ok, %lld non-OK, %lld transport errors\n",
                static_cast<long long>(total), static_cast<long long>(*clients),
                serving.ElapsedSeconds(), static_cast<long long>(ok.load()),
                static_cast<long long>(non_ok.load()),
                static_cast<long long>(transport_errors.load()));
    if (mismatches.load() != 0) {
      std::printf("IDENTITY FAILURE: %lld responses differ from the in-process router "
                  "(check that both sides use the same --n)\n",
                  static_cast<long long>(mismatches.load()));
      return 1;
    }
    std::printf("identity: every OK response bit-identical to the in-process router\n");

    // The write path: INSERT over the network, then poll until the epoch
    // carrying it is published and the record answers its own query.
    kjoin::net::KJoinClient writer;
    if (!writer.Connect(host, port).ok()) {
      std::printf("writer connect failed\n");
      return 1;
    }
    const std::vector<std::string>& inserted_tokens = reference.dataset.records[0].tokens;
    kjoin::StatusOr<kjoin::net::NetResponse> acked =
        writer.Insert({{static_cast<int32_t>(*n), inserted_tokens}});
    if (!acked.ok() || acked->code != 0) {
      std::printf("network insert failed: %s\n",
                  acked.ok() ? acked->message.c_str() : acked.status().ToString().c_str());
      return 1;
    }
    const int32_t new_index = static_cast<int32_t>(acked->objects_after_insert - 1);
    bool visible = false;
    for (int attempt = 0; attempt < 200 && !visible; ++attempt) {
      kjoin::StatusOr<kjoin::net::NetResponse> found = writer.Search(inserted_tokens);
      if (found.ok() && found->code == 0) {
        for (const kjoin::SearchHit& hit : found->hits) {
          if (hit.object_index == new_index) visible = true;
        }
      }
      if (!visible) std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    if (!visible) {
      std::printf("inserted record never became searchable\n");
      return 1;
    }
    std::printf("insert: acked as global index %d, searchable over the network\n", new_index);
    kjoin::StatusOr<kjoin::net::NetResponse> health = writer.Health();
    if (health.ok() && health->code == 0) {
      std::printf("server health: %s\n", health->text.c_str());
    }
    return 0;
  }

  // The generated workload doubles as the query source; with a snapshot
  // present only the records (not the index) are rebuilt from it.
  kjoin::BenchmarkData data = kjoin::MakePoiBenchmark(*n, /*seed=*/51);
  kjoin::KJoinOptions options;
  options.delta = *delta;
  options.tau = *tau;
  options.plus_mode = true;

  std::unique_ptr<kjoin::serve::IndexManager> manager;
  kjoin::serve::QueryPipeline pipeline;   // snapshot path
  kjoin::PreparedObjects prepared;        // build path
  kjoin::ObjectBuilder* builder = nullptr;
  auto hierarchy = std::make_shared<const kjoin::Hierarchy>(std::move(data.hierarchy));

  // ---- sharded serving demo (--shards N) -------------------------------
  if (*shards > 1) {
    kjoin::WallTimer shard_cold_start;
    prepared = kjoin::BuildObjects(*hierarchy, data.dataset, /*multi_mapping=*/true, *delta);
    builder = prepared.builder.get();
    kjoin::serve::ShardedIndexManager sharded(
        hierarchy, options, prepared.objects, builder->TokenTable(),
        data.dataset.synonyms, static_cast<int>(*shards), &pool, &metrics);
    std::printf("cold start: built %lld objects across %lld shards in %.3fs\n",
                static_cast<long long>(*n), static_cast<long long>(*shards),
                shard_cold_start.ElapsedSeconds());
    if (!wal->empty()) {
      const kjoin::Status attached = sharded.AttachWal(*wal);
      if (!attached.ok()) {
        std::printf("WAL attach failed: %s\n", attached.ToString().c_str());
        return 1;
      }
      std::printf("WAL attached: one log per shard (%s.shard-<i>), %lld objects after replay\n",
                  wal->c_str(), static_cast<long long>(sharded.num_objects()));
    }

    std::vector<std::unique_ptr<kjoin::serve::LocalShard>> backends;
    std::vector<kjoin::serve::ShardBackend*> backend_ptrs;
    for (int s = 0; s < sharded.num_shards(); ++s) {
      backends.push_back(std::make_unique<kjoin::serve::LocalShard>(&sharded, s));
      backend_ptrs.push_back(backends.back().get());
    }
    kjoin::serve::ShardRouterOptions router_options;
    router_options.default_deadline_seconds = *deadline;
    kjoin::serve::ShardRouter router(backend_ptrs, &pool, router_options, &metrics);

    const int64_t total = *clients * *queries;
    std::vector<kjoin::serve::QueryRequest> requests(total);
    for (int64_t i = 0; i < total; ++i) {
      std::vector<std::string> tokens = data.dataset.records[(i * 97) % *n].tokens;
      if (!tokens.empty()) tokens.pop_back();
      requests[i].query = builder->Build(-1, tokens);
      requests[i].top_k = static_cast<int32_t>(*topk);
    }

    std::atomic<int64_t> ok{0}, tripped{0}, hits{0};
    std::atomic<int64_t> tightenings{0}, pruned_entries{0}, screened{0};
    kjoin::WallTimer serving;
    std::vector<std::thread> client_threads;
    client_threads.reserve(*clients);
    for (int64_t c = 0; c < *clients; ++c) {
      client_threads.emplace_back([&, c] {
        for (int64_t q = 0; q < *queries; ++q) {
          kjoin::serve::QueryResponse response = router.Search(requests[c * *queries + q]);
          if (response.status.ok()) {
            ok.fetch_add(1, std::memory_order_relaxed);
          } else {
            tripped.fetch_add(1, std::memory_order_relaxed);
          }
          hits.fetch_add(static_cast<int64_t>(response.hits.size()),
                         std::memory_order_relaxed);
          tightenings.fetch_add(response.stats.bound_tightenings,
                                std::memory_order_relaxed);
          pruned_entries.fetch_add(response.stats.bound_pruned_entries,
                                   std::memory_order_relaxed);
          screened.fetch_add(response.stats.bound_skipped_verifies,
                             std::memory_order_relaxed);
        }
      });
    }

    // A live update racing the clients: the batch is hash-partitioned
    // across the shards, each shard publishes its own epoch.
    if (*insert > 0) {
      std::vector<kjoin::Object> batch;
      batch.reserve(*insert);
      for (int64_t i = 0; i < *insert; ++i) {
        batch.push_back(builder->Build(static_cast<int32_t>(*n + i),
                                       data.dataset.records[i % *n].tokens));
      }
      const kjoin::Status inserted =
          sharded.InsertBatch(std::move(batch), builder->TokenTable());
      if (!inserted.ok()) {
        std::printf("insert rejected: %s\n", inserted.ToString().c_str());
      }
      sharded.Flush();
    }
    for (std::thread& t : client_threads) t.join();

    std::printf("\nserved %lld queries from %lld clients across %d shards in %.3fs\n",
                static_cast<long long>(total), static_cast<long long>(*clients),
                sharded.num_shards(), serving.ElapsedSeconds());
    std::printf("  ok %lld, deadline/cancel %lld, hits %lld\n",
                static_cast<long long>(ok.load()), static_cast<long long>(tripped.load()),
                static_cast<long long>(hits.load()));
    std::printf("  progressive bound: tightened %lld times, pruned %lld posting entries, "
                "length-screened %lld verifications\n",
                static_cast<long long>(tightenings.load()),
                static_cast<long long>(pruned_entries.load()),
                static_cast<long long>(screened.load()));
    // Per-shard write-queue depth gauges land next to the router's
    // per-shard probe/prune counters in the JSON dump.
    for (int s = 0; s < sharded.num_shards(); ++s) {
      metrics.gauge(kjoin::ShardMetricName("sharded", s, "pending_inserts"))
          ->Set(sharded.shard(s)->pending_inserts());
      std::printf("  shard %d: %lld objects, %lld pending inserts\n", s,
                  static_cast<long long>(sharded.shard(s)->Acquire()->index->num_live()),
                  static_cast<long long>(sharded.shard(s)->pending_inserts()));
    }
    std::printf("\nmetrics: %s\n", metrics.ToJson().c_str());
    return 0;
  }

  kjoin::WallTimer cold_start;
  bool loaded_from_snapshot = false;
  if (!snapshot->empty()) {
    auto loaded = kjoin::serve::LoadIndexSnapshot(*snapshot, &metrics);
    if (loaded.ok()) {
      std::printf("cold start: loaded %s (%llu bytes) in %.3fs\n", snapshot->c_str(),
                  static_cast<unsigned long long>(loaded->file_bytes),
                  cold_start.ElapsedSeconds());
      pipeline = kjoin::serve::MakeQueryPipeline(*loaded);
      builder = pipeline.builder.get();
      hierarchy = loaded->hierarchy;  // serve the snapshot's own hierarchy
      manager = std::make_unique<kjoin::serve::IndexManager>(std::move(*loaded), &pool,
                                                             &metrics);
      loaded_from_snapshot = true;
    } else {
      std::printf("cold start: %s — building instead\n",
                  loaded.status().ToString().c_str());
    }
  }
  if (manager == nullptr) {
    prepared = kjoin::BuildObjects(*hierarchy, data.dataset, /*multi_mapping=*/true, *delta);
    builder = prepared.builder.get();
    manager = std::make_unique<kjoin::serve::IndexManager>(
        hierarchy, options, prepared.objects, prepared.builder->TokenTable(),
        data.dataset.synonyms, &pool, &metrics);
    std::printf("cold start: built %lld objects in %.3fs\n", static_cast<long long>(*n),
                cold_start.ElapsedSeconds());
    if (!snapshot->empty()) {
      const kjoin::Status saved = manager->SaveSnapshot(*snapshot);
      if (saved.ok()) {
        std::printf("saved snapshot to %s (rerun to load it)\n", snapshot->c_str());
      } else {
        std::printf("snapshot save failed: %s\n", saved.ToString().c_str());
      }
    }
  }

  if (!wal->empty()) {
    const kjoin::Status attached = manager->AttachWal(*wal);
    if (!attached.ok()) {
      std::printf("WAL attach failed: %s\n", attached.ToString().c_str());
      return 1;
    }
    std::printf("WAL attached: %s (%lld bytes after replay); epoch %lld, %lld objects\n",
                wal->c_str(), static_cast<long long>(manager->wal_size_bytes()),
                static_cast<long long>(manager->version()),
                static_cast<long long>(manager->Acquire()->index->num_live()));
  }

  // The unsharded front end: the same router over one shard.
  kjoin::serve::LocalShard local(manager.get());
  kjoin::serve::ShardRouterOptions router_options;
  router_options.default_deadline_seconds = *deadline;
  kjoin::serve::ShardRouter router({&local}, &pool, router_options, &metrics);

  // Queries are perturbed copies of indexed records; the builder is not
  // thread-safe, so all query objects are built up front.
  const int64_t total = *clients * *queries;
  std::vector<kjoin::serve::QueryRequest> requests(total);
  for (int64_t i = 0; i < total; ++i) {
    std::vector<std::string> tokens = data.dataset.records[(i * 97) % *n].tokens;
    if (!tokens.empty()) tokens.pop_back();
    requests[i].query = builder->Build(-1, tokens);
    requests[i].top_k = static_cast<int32_t>(*topk);
  }

  std::atomic<int64_t> ok{0}, tripped{0}, hits{0};
  std::atomic<int64_t> max_version{0};
  kjoin::WallTimer serving;
  std::vector<std::thread> client_threads;
  client_threads.reserve(*clients);
  for (int64_t c = 0; c < *clients; ++c) {
    client_threads.emplace_back([&, c] {
      for (int64_t q = 0; q < *queries; ++q) {
        kjoin::serve::QueryResponse response = router.Search(requests[c * *queries + q]);
        if (response.status.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          tripped.fetch_add(1, std::memory_order_relaxed);
        }
        hits.fetch_add(static_cast<int64_t>(response.hits.size()), std::memory_order_relaxed);
        int64_t seen = max_version.load(std::memory_order_relaxed);
        while (response.epoch_version > seen &&
               !max_version.compare_exchange_weak(seen, response.epoch_version)) {
        }
      }
    });
  }

  // A live update racing the clients: new records become searchable at
  // the next epoch, readers never block.
  if (*insert > 0) {
    std::vector<kjoin::Object> batch;
    batch.reserve(*insert);
    for (int64_t i = 0; i < *insert; ++i) {
      batch.push_back(builder->Build(static_cast<int32_t>(*n + i),
                                     data.dataset.records[i % *n].tokens));
    }
    const kjoin::Status inserted =
        manager->InsertBatch(std::move(batch), builder->TokenTable());
    if (!inserted.ok()) {
      std::printf("insert rejected: %s\n", inserted.ToString().c_str());
    }
    manager->Flush();
  }
  for (std::thread& t : client_threads) t.join();

  std::printf("\nserved %lld queries from %lld clients in %.3fs (%s)\n",
              static_cast<long long>(total), static_cast<long long>(*clients),
              serving.ElapsedSeconds(), loaded_from_snapshot ? "snapshot" : "built");
  std::printf("  ok %lld, deadline/cancel %lld, hits %lld\n",
              static_cast<long long>(ok.load()), static_cast<long long>(tripped.load()),
              static_cast<long long>(hits.load()));
  std::printf("  epoch: started at 1, clients saw up to %lld, final %lld\n",
              static_cast<long long>(max_version.load()),
              static_cast<long long>(manager->version()));
  std::printf("\nmetrics: %s\n", metrics.ToJson().c_str());
  return 0;
}
