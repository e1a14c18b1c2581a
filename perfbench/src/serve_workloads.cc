// The two serving workloads. A K-Join+ index over the generated records
// sits in two shards behind KJoinServer (two event loops, a worker pool of
// two), and closed-loop clients send it top-k queries over loopback KJNP,
// one in flight on each of two connections:
//
//  * serve_topk  — read-only.
//  * serve_mixed — the same stack with the WAL attached (fsync on ack) and
//    default compaction, and a third connection sending a fixed number of
//    writes per second of
//    window, paced evenly with at most one in flight (single-record
//    INSERTs of records the index has not seen; every 8th write DELETEs
//    an earlier insert).
//
// The benchmark process hosts both the stack, built from the generated
// files, and the clients; the stack receives only files and KJNP frames.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/kjoin_index.h"
#include "data/benchmark_suite.h"
#include "data/dataset_io.h"
#include "hierarchy/hierarchy_io.h"
#include "hierarchy/lca.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "oracle.h"
#include "serve/index_manager.h"
#include "serve/shard_router.h"
#include "serve/sharded_index_manager.h"
#include "serve/wal.h"
#include "workload.h"

namespace perfbench {
namespace {

using kjoin::StatusOr;
using kjoin::net::KJoinClient;
using kjoin::net::NetRequest;
using kjoin::net::NetResponse;
using kjoin::net::RequestKind;
using kjoin::serve::IndexEpoch;

constexpr double kTau = 0.6;
constexpr int kShards = 2;
constexpr int kLoops = 2;
constexpr int kPoolThreads = 2;
constexpr int32_t kTopK = 3;
constexpr double kTypoRate = 0.2;  // one query in five carries an unseen typo
constexpr int64_t kDeleteEvery = 8;
constexpr double kWarmupSeconds = 0.5;
// A sampled query may have seen any per-shard prefix of the writes
// published while it was in flight; with more combinations than this the
// sample is reported as ambiguous instead of checked.
constexpr int64_t kMaxStates = 4096;

struct Scale {
  int64_t records;        // indexed records
  int64_t extra_records;  // insert material (serve_mixed)
  int64_t queries;        // query pool size
  int max_samples;        // oracle-checked queries per window
  int64_t sample_stride;  // every n-th query is a sample candidate
  int single_queries;     // traced single-request phase
  int single_inserts;
  double traced_seconds;  // each loaded phase of the traced run
  // serve_mixed writes per second of window. A window sends exactly
  // seconds x this many writes, paced evenly, so the index size, delta
  // depth and peak RSS at its end are the same on every run.
  double writes_per_second;
};

Scale ScaleFor(const Options& options, bool mixed) {
  if (options.tiny) return {150, mixed ? 300 : 0, 512, 6, 7, 20, 6, 0.5, 20.0};
  return {600, mixed ? 4000 : 0, 8192, mixed ? 16 : 24, 61, 120, 30, 3.0, 10.0};
}

uint64_t QuerySeed(uint64_t seed) { return 7919 * seed + 17; }
uint64_t WriterSeed(uint64_t seed) { return 104729 * seed + 5; }

kjoin::KJoinOptions IndexOptions() {
  kjoin::KJoinOptions options;
  options.delta = kDelta;
  options.tau = kTau;
  options.plus_mode = true;
  return options;
}

struct Query {
  std::vector<std::string> tokens;
};

// `token` with letters inserted until it is no record token, alias or
// earlier typo: a token the index has never seen.
std::string UnseenTypo(std::string token, std::unordered_set<std::string>* seen,
                       kjoin::Rng* rng) {
  do {
    const auto pos = static_cast<std::ptrdiff_t>(rng->NextUint64(token.size() + 1));
    token.insert(token.begin() + pos, static_cast<char>('a' + rng->NextUint64(26)));
  } while (seen->count(token) > 0);
  seen->insert(token);
  return token;
}

// Each query is a record's tokens minus one; one in five has one token
// replaced by an unseen typo.
std::vector<Query> MakeQueries(const std::vector<kjoin::Record>& records, int64_t count,
                               std::unordered_set<std::string> vocabulary, uint64_t seed) {
  kjoin::Rng rng(seed);
  std::vector<Query> queries;
  queries.reserve(static_cast<size_t>(count));
  while (static_cast<int64_t>(queries.size()) < count) {
    Query query;
    query.tokens = records[static_cast<size_t>(rng.NextUint64(records.size()))].tokens;
    if (query.tokens.size() > 1) {
      query.tokens.erase(query.tokens.begin() +
                         static_cast<std::ptrdiff_t>(rng.NextUint64(query.tokens.size())));
    }
    if (query.tokens.empty()) continue;
    if (rng.NextBool(kTypoRate)) {
      std::string& token =
          query.tokens[static_cast<size_t>(rng.NextUint64(query.tokens.size()))];
      token = UnseenTypo(token, &vocabulary, &rng);
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

// Both directions of one query's KJNP framing, as client and server do
// them: request encode + frame, reassembly + decode, and the same for the
// response carrying `hits`. Returns the seconds taken.
double CodecRoundTrip(const NetRequest& request, const std::vector<kjoin::SearchHit>& hits,
                      int64_t request_id, int64_t* frame_bytes) {
  return TimeSpan(
      "net.codec",
      [&] {
        std::string payload;
        const std::string request_frame =
            kjoin::net::WrapFrame(kjoin::net::EncodeRequestPayload(request));
        kjoin::net::FrameDecoder request_decoder;
        request_decoder.Append(request_frame.data(), request_frame.size());
        const StatusOr<bool> request_ready = request_decoder.Next(&payload);
        NetRequest decoded_request;
        if (!request_ready.ok() || !*request_ready ||
            !kjoin::net::DecodeRequestPayload(payload, &decoded_request).ok()) {
          Die("KJNP request does not round-trip");
        }
        NetResponse response;
        response.id = request.id;
        response.hits = hits;
        const std::string response_frame =
            kjoin::net::WrapFrame(kjoin::net::EncodeResponsePayload(response));
        kjoin::net::FrameDecoder response_decoder;
        response_decoder.Append(response_frame.data(), response_frame.size());
        const StatusOr<bool> response_ready = response_decoder.Next(&payload);
        NetResponse decoded_response;
        if (!response_ready.ok() || !*response_ready ||
            !kjoin::net::DecodeResponsePayload(payload, &decoded_response).ok()) {
          Die("KJNP response does not round-trip");
        }
        *frame_bytes = static_cast<int64_t>(request_frame.size() + response_frame.size());
      },
      request_id);
}

// Acked operations per second: the rate within each whole second of the
// window (replies after its first, over the time to its last), and the
// median of those, so a few seconds in which the host stalled do not move
// it.
double MedianPerSecond(std::vector<int64_t> acked_ns, int64_t start_ns) {
  std::sort(acked_ns.begin(), acked_ns.end());
  std::vector<double> rates;
  size_t first = 0;
  while (first < acked_ns.size()) {
    const int64_t second = (acked_ns[first] - start_ns) / 1000000000;
    size_t last = first;
    while (last + 1 < acked_ns.size() && (acked_ns[last + 1] - start_ns) / 1000000000 == second) {
      ++last;
    }
    if (last > first) {
      rates.push_back(static_cast<double>(last - first) /
                      SecondsBetween(acked_ns[first], acked_ns[last]));
    }
    first = last + 1;
  }
  // The last second is cut short by the window's end.
  if (rates.size() > 1) rates.pop_back();
  return Median(rates);
}

void AddSearchStats(kjoin::SearchStats* total, const kjoin::SearchStats& add) {
  total->candidates += add.candidates;
  total->bound_pruned_entries += add.bound_pruned_entries;
  total->verify.Add(add.verify);
}

// One acked write, in ack order (the single writer keeps one in flight).
struct WriteOp {
  bool insert = false;
  int32_t global_index = -1;
  int32_t record = -1;  // index into the insert material
};

// What the oracle needs of a shard's published epoch: how many objects it
// indexes and how many of them are live. Kept instead of the epoch, so
// the samples do not hold old epochs in memory.
struct EpochCounts {
  int64_t indexed = 0;
  int64_t live = 0;
};

// A query whose answer the oracle checks, with each shard's published
// epoch taken just before the send and just after the reply: the server
// probed every shard at some epoch between the two.
struct QuerySample {
  int64_t query = 0;
  std::vector<EpochCounts> before;
  std::vector<EpochCounts> after;
  bool answered = false;
  std::vector<kjoin::SearchHit> hits;
};

// The serving stack of one setup. Members are declared in construction
// order, so destruction runs clients first and hierarchy last.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    for (auto& client : query_clients) client->Disconnect();
    if (writer != nullptr) writer->Disconnect();
    if (server != nullptr) server->Shutdown();
  }

  std::shared_ptr<const kjoin::Hierarchy> hierarchy;
  kjoin::PreparedObjects prepared;  // the server's matcher and builder
  std::vector<std::pair<std::string, std::string>> synonyms;
  std::vector<std::string> initial_tokens;  // the table the WALs extend
  std::unique_ptr<kjoin::ThreadPool> pool;
  kjoin::MetricsRegistry metrics;
  std::unique_ptr<kjoin::serve::ShardedIndexManager> sharded;
  std::vector<std::unique_ptr<kjoin::serve::LocalShard>> backends;
  std::unique_ptr<kjoin::serve::ShardRouter> router;
  std::unique_ptr<kjoin::net::KJoinServer> server;
  std::vector<std::unique_ptr<KJoinClient>> query_clients;
  std::unique_ptr<KJoinClient> writer;
};

// The oracle's own view of the collection: the indexed objects plus a
// matcher and builder of its own over the same hierarchy and synonyms.
struct OracleSide {
  std::shared_ptr<const kjoin::Hierarchy> hierarchy;
  std::unique_ptr<kjoin::EntityMatcher> matcher;
  std::unique_ptr<kjoin::ObjectBuilder> builder;
  std::unique_ptr<BruteForce> brute;
  std::vector<kjoin::Object> objects;   // global index g < n
  std::vector<kjoin::Object> inserted;  // global index n + i, in insert order

  void Reset() {
    inserted.clear();
    objects.clear();
    brute.reset();
    builder.reset();
    matcher.reset();
    hierarchy.reset();
  }
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const Options& options, bool mixed)
      : options_(options),
        mixed_(mixed),
        scale_(ScaleFor(options, mixed)),
        hierarchy_path_(options.workdir + "/hierarchy.txt"),
        dataset_path_(options.workdir + "/dataset.tsv"),
        wal_prefix_(options.workdir + "/kjoin.wal") {}

  ~ServeWorkload() override {
    stack_.reset();
    oracle_.Reset();
  }

  double Setup() override;
  void Warmup() override { RunLoad(kWarmupSeconds, /*writes=*/false, /*traced=*/false); }
  void Measure(double seconds) override;
  void ReportEndToEnd(Report* report) override;
  void RunTraced(Report* report) override;
  void Check(Report* report) override;

 private:
  struct LoadResult {
    std::vector<double> query_ms;
    std::vector<double> insert_ms;
    std::vector<double> delete_ms;
    std::vector<int64_t> acked_ns;  // when each acked operation's reply arrived
    int64_t start_ns = 0;
    int64_t attempted = 0;
    int64_t failed = 0;
    double seconds = 0.0;
    double write_lag_ms = 0.0;  // how far the writer fell behind its pace
  };
  // Shared by the request chains of one load phase. Query chains run
  // until the deadline has passed and the writer has sent its last write;
  // the writer sends write i no earlier than start + i * write_interval.
  struct LoadState {
    int64_t start_ns = 0;
    int64_t deadline_ns = 0;
    bool traced = false;
    int64_t writes = 0;       // writes this phase sends
    int64_t writes_sent = 0;  // touched only by the writer chain
    int64_t write_interval_ns = 0;
    int64_t write_lag_ns = 0;  // latest send behind its slot; writer chain only
    std::atomic<bool> writer_done{true};
    std::mutex mu;
    std::condition_variable done;
    int active = 0;     // chains still issuing; guarded by mu
    LoadResult result;  // guarded by mu
  };
  struct PendingWrite {
    bool insert = false;
    int32_t global_index = -1;
    int32_t record = -1;
  };

  LoadResult RunLoad(double seconds, bool writes, bool traced);
  void IssueQuery(KJoinClient* client, LoadState* state);
  void IssueWrite(LoadState* state);
  static void EndChain(LoadState* state);
  NetRequest NextWrite(bool allow_delete, PendingWrite* pending);
  bool FinishWrite(const PendingWrite& pending, const StatusOr<NetResponse>& got);
  std::shared_ptr<QuerySample> StartSample(int64_t seq);
  EpochCounts ShardCounts(int shard) const {
    const std::shared_ptr<const IndexEpoch> epoch = stack_->sharded->shard(shard)->Acquire();
    return {epoch->index->num_indexed(), epoch->index->num_live()};
  }
  static std::string WalPath(const std::string& prefix, int shard) {
    return prefix + ".shard-" + std::to_string(shard);
  }
  int64_t WalBytes() const;

  const Options options_;
  const bool mixed_;
  const Scale scale_;
  const std::string hierarchy_path_;
  const std::string dataset_path_;
  const std::string wal_prefix_;

  OracleSide oracle_;
  std::unique_ptr<Stack> stack_;
  std::vector<kjoin::Record> extra_;  // insert material
  std::vector<Query> queries_;
  double parse_s_ = 0.0;
  double lca_build_s_ = 0.0;
  double text_build_s_ = 0.0;

  std::atomic<int64_t> next_query_{0};
  std::atomic<bool> sampling_{false};
  std::mutex samples_mu_;
  std::vector<std::shared_ptr<QuerySample>> samples_;  // guarded by samples_mu_

  // Writer state: touched only by the single writer chain, or by the
  // traced run's sequential writes while no chain runs.
  kjoin::Rng writer_rng_;
  int64_t writes_sent_ = 0;
  int64_t inserts_sent_ = 0;
  int64_t inserts_acked_ = 0;
  std::vector<int32_t> live_inserts_;
  std::vector<WriteOp> ops_;
  int64_t numbering_errors_ = 0;

  LoadResult load_;
};

double ServeWorkload::Setup() {
  stack_.reset();
  oracle_.Reset();
  {
    std::lock_guard<std::mutex> lock(samples_mu_);
    samples_.clear();
  }
  next_query_ = 0;
  writer_rng_ = kjoin::Rng(WriterSeed(options_.seed));
  writes_sent_ = inserts_sent_ = inserts_acked_ = numbering_errors_ = 0;
  live_inserts_.clear();
  ops_.clear();

  const int64_t start = NowNs();
  auto stack = std::make_unique<Stack>();
  {
    ScopedSpan setup_span("e2e.setup");
    TimeSpan("data.generate", [&] {
      const kjoin::Hierarchy hierarchy = MakeHierarchy();
      kjoin::Dataset dataset = std::move(MakeRecords(hierarchy, scale_.records + scale_.extra_records,
                                                     1, RecordSeed(options_.seed))
                                             .front());
      std::unordered_set<std::string> vocabulary;
      for (const kjoin::Record& record : dataset.records) {
        vocabulary.insert(record.tokens.begin(), record.tokens.end());
      }
      for (const auto& [alias, label] : dataset.synonyms) vocabulary.insert(alias);
      extra_.assign(dataset.records.begin() + static_cast<std::ptrdiff_t>(scale_.records),
                    dataset.records.end());
      dataset.records.resize(static_cast<size_t>(scale_.records));
      queries_ = MakeQueries(dataset.records, scale_.queries, std::move(vocabulary),
                             QuerySeed(options_.seed));
      if (!kjoin::WriteHierarchyFile(hierarchy, hierarchy_path_).ok() ||
          !kjoin::WriteDatasetFile(dataset, dataset_path_).ok()) {
        Die("cannot write the generated files to " + options_.workdir);
      }
    });

    kjoin::Dataset dataset;
    parse_s_ = TimeSpan("data.parse", [&] {
      StatusOr<kjoin::Hierarchy> hierarchy = kjoin::ReadHierarchyFile(hierarchy_path_);
      StatusOr<kjoin::Dataset> records = kjoin::ReadDatasetFile(dataset_path_);
      if (!hierarchy.ok() || !records.ok()) Die("cannot read back the generated files");
      stack->hierarchy = std::make_shared<const kjoin::Hierarchy>(std::move(*hierarchy));
      dataset = std::move(*records);
    });
    if (Tracer::enabled()) {
      // Every shard's index builds these tables; timed once on their own
      // (traced runs only, so setup_s is not charged for it).
      lca_build_s_ = TimeSpan("hierarchy.lca_build", [&] {
        const kjoin::LcaIndex lca(*stack->hierarchy);
        (void)lca;
      });
    }
    text_build_s_ = TimeSpan("text.build", [&] {
      stack->prepared =
          kjoin::BuildObjects(*stack->hierarchy, dataset, /*multi_mapping=*/true, kDelta);
    });
    stack->synonyms = dataset.synonyms;
    stack->initial_tokens = stack->prepared.builder->TokenTable();

    TimeSpan("serve.index_build", [&] {
      stack->pool = std::make_unique<kjoin::ThreadPool>(kPoolThreads);
      stack->sharded = std::make_unique<kjoin::serve::ShardedIndexManager>(
          stack->hierarchy, IndexOptions(), stack->prepared.objects, stack->initial_tokens,
          stack->synonyms, kShards, stack->pool.get(), &stack->metrics);
      if (mixed_) {
        for (int s = 0; s < kShards; ++s) {
          std::error_code ignored;
          std::filesystem::remove(WalPath(wal_prefix_, s), ignored);
        }
        const kjoin::Status attached = stack->sharded->AttachWal(wal_prefix_, /*fsync=*/true);
        if (!attached.ok()) Die("WAL attach failed: " + attached.ToString());
      }
      std::vector<kjoin::serve::ShardBackend*> backends;
      for (int s = 0; s < kShards; ++s) {
        stack->backends.push_back(
            std::make_unique<kjoin::serve::LocalShard>(stack->sharded.get(), s));
        backends.push_back(stack->backends.back().get());
      }
      stack->router = std::make_unique<kjoin::serve::ShardRouter>(
          backends, stack->pool.get(), kjoin::serve::ShardRouterOptions{}, &stack->metrics);
    });

    TimeSpan("net.server_start", [&] {
      kjoin::net::ServerOptions server_options;
      server_options.num_loops = kLoops;
      stack->server = std::make_unique<kjoin::net::KJoinServer>(
          stack->router.get(), stack->sharded.get(), stack->prepared.builder.get(),
          &stack->metrics, server_options);
      const kjoin::Status started = stack->server->Start();
      if (!started.ok()) Die("server start failed: " + started.ToString());
      auto connect = [&] {
        auto client = std::make_unique<KJoinClient>();
        const kjoin::Status connected = client->Connect("127.0.0.1", stack->server->port());
        if (!connected.ok()) Die("connect failed: " + connected.ToString());
        return client;
      };
      stack->query_clients.push_back(connect());
      stack->query_clients.push_back(connect());
      if (mixed_) stack->writer = connect();
    });
  }
  const double seconds = SecondsBetween(start, NowNs());

  // The oracle's side, outside the timed setup.
  oracle_.hierarchy = stack->hierarchy;
  kjoin::EntityMatcherOptions matcher_options;
  matcher_options.min_phi = kDelta;
  oracle_.matcher = std::make_unique<kjoin::EntityMatcher>(*oracle_.hierarchy, matcher_options);
  for (const auto& [alias, label] : stack->synonyms) oracle_.matcher->AddSynonym(alias, label);
  oracle_.builder = std::make_unique<kjoin::ObjectBuilder>(*oracle_.matcher, true);
  oracle_.builder->PreloadTokens(stack->initial_tokens);
  oracle_.brute = std::make_unique<BruteForce>(*oracle_.hierarchy, kDelta, kTau, true);
  oracle_.objects = stack->prepared.objects;
  stack_ = std::move(stack);
  return seconds;
}

void ServeWorkload::EndChain(LoadState* state) {
  // Notify under the lock: RunLoad may return (destroying `state`) as
  // soon as it sees active == 0.
  std::lock_guard<std::mutex> lock(state->mu);
  --state->active;
  state->done.notify_all();
}

ServeWorkload::LoadResult ServeWorkload::RunLoad(double seconds, bool writes, bool traced) {
  LoadState state;
  state.traced = traced;
  state.start_ns = NowNs();
  state.deadline_ns = state.start_ns + static_cast<int64_t>(seconds * 1e9);
  if (writes) {
    state.writes = std::max<int64_t>(1, std::llround(seconds * scale_.writes_per_second));
    state.write_interval_ns = (state.deadline_ns - state.start_ns) / state.writes;
    state.writer_done = false;
  }
  // One query in flight per query connection (beside the writer's one on
  // serve_mixed): more requests than the host has CPUs measured its
  // scheduler rather than the server.
  const std::vector<int> slots = {1, 1};
  {
    std::lock_guard<std::mutex> lock(state.mu);
    for (int n : slots) state.active += n;
    if (writes) ++state.active;
  }
  for (size_t c = 0; c < slots.size(); ++c) {
    for (int i = 0; i < slots[c]; ++i) IssueQuery(stack_->query_clients[c].get(), &state);
  }
  if (writes) IssueWrite(&state);
  std::unique_lock<std::mutex> lock(state.mu);
  state.done.wait(lock, [&] { return state.active == 0; });
  state.result.start_ns = state.start_ns;
  state.result.seconds = SecondsBetween(state.start_ns, NowNs());
  state.result.write_lag_ms = static_cast<double>(state.write_lag_ns) * 1e-6;
  return std::move(state.result);
}

std::shared_ptr<QuerySample> ServeWorkload::StartSample(int64_t seq) {
  if (!sampling_.load(std::memory_order_relaxed) || seq % scale_.sample_stride != 0) {
    return nullptr;
  }
  {
    std::lock_guard<std::mutex> lock(samples_mu_);
    if (static_cast<int>(samples_.size()) >= scale_.max_samples) return nullptr;
  }
  auto sample = std::make_shared<QuerySample>();
  sample->query = seq % static_cast<int64_t>(queries_.size());
  for (int s = 0; s < kShards; ++s) sample->before.push_back(ShardCounts(s));
  std::lock_guard<std::mutex> lock(samples_mu_);
  samples_.push_back(sample);
  return sample;
}

void ServeWorkload::IssueQuery(KJoinClient* client, LoadState* state) {
  if (NowNs() >= state->deadline_ns && state->writer_done.load()) {
    EndChain(state);
    return;
  }
  const int64_t seq = next_query_.fetch_add(1, std::memory_order_relaxed);
  const Query& query = queries_[static_cast<size_t>(seq % static_cast<int64_t>(queries_.size()))];
  NetRequest request;
  request.kind = RequestKind::kTopK;
  request.top_k = kTopK;
  request.query_tokens = query.tokens;
  std::shared_ptr<QuerySample> sample = StartSample(seq);
  const int64_t start = NowNs();
  client->CallAsync(std::move(request), [this, client, state, seq, sample,
                                         start](StatusOr<NetResponse> got) {
    const int64_t end = NowNs();
    const bool ok = got.ok() && got->code == 0;
    if (sample != nullptr) {
      for (int s = 0; s < kShards; ++s) sample->after.push_back(ShardCounts(s));
      if (ok) {
        sample->answered = true;
        sample->hits = got->hits;
      }
    }
    if (state->traced) Tracer::Record(Tracer::NewId(), "e2e.query", start, end, 0, seq + 1);
    {
      std::lock_guard<std::mutex> lock(state->mu);
      ++state->result.attempted;
      if (ok) {
        state->result.query_ms.push_back(SecondsBetween(start, end) * 1e3);
        state->result.acked_ns.push_back(end);
      } else {
        ++state->result.failed;
      }
    }
    // A transport error means the connection is gone: end this chain
    // rather than spin on immediate failures.
    if (!got.ok()) {
      EndChain(state);
      return;
    }
    IssueQuery(client, state);
  });
}

NetRequest ServeWorkload::NextWrite(bool allow_delete, PendingWrite* pending) {
  NetRequest request;
  const bool remove = allow_delete && writes_sent_ % kDeleteEvery == kDeleteEvery - 1 &&
                      !live_inserts_.empty();
  ++writes_sent_;
  if (remove) {
    const auto victim = static_cast<size_t>(writer_rng_.NextUint64(live_inserts_.size()));
    pending->insert = false;
    pending->global_index = live_inserts_[victim];
    live_inserts_[victim] = live_inserts_.back();
    live_inserts_.pop_back();
    request.kind = RequestKind::kDelete;
    request.delete_indexes = {pending->global_index};
    return request;
  }
  pending->insert = true;
  pending->record = static_cast<int32_t>(inserts_sent_ % static_cast<int64_t>(extra_.size()));
  kjoin::net::InsertRecord record;
  record.external_id = static_cast<int32_t>(scale_.records + inserts_sent_);
  record.tokens = extra_[static_cast<size_t>(pending->record)].tokens;
  request.kind = RequestKind::kInsert;
  request.inserts.push_back(std::move(record));
  ++inserts_sent_;
  return request;
}

bool ServeWorkload::FinishWrite(const PendingWrite& pending, const StatusOr<NetResponse>& got) {
  if (!got.ok() || got->code != 0) return false;
  if (pending.insert) {
    // One writer, single-record batches: the k-th acked insert must get
    // global index n + k.
    const auto global_index = static_cast<int32_t>(got->objects_after_insert - 1);
    if (global_index != scale_.records + inserts_acked_) ++numbering_errors_;
    ++inserts_acked_;
    ops_.push_back({true, global_index, pending.record});
    live_inserts_.push_back(global_index);
  } else {
    ops_.push_back({false, pending.global_index, -1});
  }
  return true;
}

void ServeWorkload::IssueWrite(LoadState* state) {
  if (state->writes_sent == state->writes) {
    state->writer_done = true;
    EndChain(state);
    return;
  }
  // Pacing waits on this chain's own thread (the writer connection's
  // reader); one write is in flight at most, so nothing else waits on it.
  const int64_t due = state->start_ns + state->writes_sent * state->write_interval_ns;
  const int64_t now = NowNs();
  if (now < due) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
  } else {
    state->write_lag_ns = std::max(state->write_lag_ns, now - due);
  }
  ++state->writes_sent;
  PendingWrite pending;
  NetRequest request = NextWrite(/*allow_delete=*/true, &pending);
  const int64_t start = NowNs();
  stack_->writer->CallAsync(std::move(request), [this, state, pending,
                                                 start](StatusOr<NetResponse> got) {
    const int64_t end = NowNs();
    const bool ok = FinishWrite(pending, got);
    if (state->traced) {
      Tracer::Record(Tracer::NewId(), pending.insert ? "e2e.insert" : "e2e.delete", start, end,
                     0, 0);
    }
    {
      std::lock_guard<std::mutex> lock(state->mu);
      ++state->result.attempted;
      if (!ok) {
        ++state->result.failed;
      } else {
        state->result.acked_ns.push_back(end);
        (pending.insert ? state->result.insert_ms : state->result.delete_ms)
            .push_back(SecondsBetween(start, end) * 1e3);
      }
    }
    if (!got.ok()) {
      // The query chains wait for the writer; release them.
      state->writer_done = true;
      EndChain(state);
      return;
    }
    IssueWrite(state);
  });
}

void ServeWorkload::Measure(double seconds) {
  {
    std::lock_guard<std::mutex> lock(samples_mu_);
    samples_.clear();
  }
  sampling_ = true;
  load_ = RunLoad(seconds, /*writes=*/mixed_, /*traced=*/false);
  sampling_ = false;
}

int64_t ServeWorkload::WalBytes() const {
  int64_t bytes = 0;
  for (int s = 0; s < kShards; ++s) {
    std::error_code error;
    const auto size = std::filesystem::file_size(WalPath(wal_prefix_, s), error);
    if (!error) bytes += static_cast<int64_t>(size);
  }
  return bytes;
}

void ServeWorkload::ReportEndToEnd(Report* report) {
  const LoadResult& load = load_;
  report->AddAttempted(load.attempted);
  report->AddFailed(load.failed);
  // Every acked operation, writes included, so a change that slows writes
  // to speed reads (or the reverse) moves the gated latency.
  std::vector<double> all_ms = load.query_ms;
  all_ms.insert(all_ms.end(), load.insert_ms.begin(), load.insert_ms.end());
  all_ms.insert(all_ms.end(), load.delete_ms.begin(), load.delete_ms.end());
  report->Metric("latency_p50_ms", Median(all_ms), "ms");
  report->Line("latency_p90_ms", Percentile(all_ms, 0.90), "ms");
  report->Line("latency_p99_ms", Percentile(all_ms, 0.99), "ms");
  report->Metric("throughput_per_s", MedianPerSecond(load.acked_ns, load.start_ns), "1/s");
  report->Line("throughput_mean_per_s", Ratio(static_cast<double>(all_ms.size()), load.seconds),
               "1/s");
  report->Line("latency_samples", static_cast<double>(all_ms.size()), "count");
  report->Line("window_s", load.seconds, "s");
  report->Line("query_qps", Ratio(static_cast<double>(load.query_ms.size()), load.seconds), "1/s");
  report->Line("query_p50_ms", Median(load.query_ms), "ms");
  report->Line("query_p99_ms", Percentile(load.query_ms, 0.99), "ms");
  report->Line("query_samples", static_cast<double>(load.query_ms.size()), "count");
  if (mixed_) {
    report->Line("insert_p50_ms", Median(load.insert_ms), "ms");
    report->Line("insert_p95_ms", Percentile(load.insert_ms, 0.95), "ms");
    report->Line("insert_samples", static_cast<double>(load.insert_ms.size()), "count");
    report->Line("delete_samples", static_cast<double>(load.delete_ms.size()), "count");
    report->Line("write_lag_ms", load.write_lag_ms, "ms");
    report->Line("wal_bytes_per_insert",
                 Ratio(static_cast<double>(WalBytes()), static_cast<double>(inserts_acked_)), "B");
  }
}

void ServeWorkload::RunTraced(Report* report) {
  Stack& stack = *stack_;
  Tracer::SetEnabled(false);
  Warmup();
  const LoadResult untraced = RunLoad(scale_.traced_seconds, mixed_, /*traced=*/false);
  Tracer::SetEnabled(true);

  // Delta-chain depth of each shard's published epoch, sampled while the
  // traced window runs; a drop is a compaction.
  std::atomic<bool> stop_sampler{false};
  std::vector<double> depths;
  int64_t compactions = 0;
  std::thread sampler;
  if (mixed_) {
    sampler = std::thread([&] {
      std::vector<int> previous(kShards, 0);
      while (!stop_sampler.load()) {
        for (int s = 0; s < kShards; ++s) {
          const int depth = stack.sharded->shard(s)->Acquire()->index->delta_depth();
          if (depth < previous[static_cast<size_t>(s)]) ++compactions;
          previous[static_cast<size_t>(s)] = depth;
          depths.push_back(depth);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  {
    std::lock_guard<std::mutex> lock(samples_mu_);
    samples_.clear();
  }
  sampling_ = true;
  load_ = RunLoad(scale_.traced_seconds, mixed_, /*traced=*/true);
  sampling_ = false;
  stop_sampler = true;
  if (sampler.joinable()) sampler.join();

  // Every response is in, so the server's builder is idle and can be read
  // from here: copy its table and preload a probe builder with it.
  std::vector<std::string> table;
  std::vector<double> table_us;
  for (int i = 0; i < 5; ++i) {
    table_us.push_back(1e6 * TimeSpan("text.token_table_copy",
                                      [&] { table = stack.prepared.builder->TokenTable(); }));
  }
  const double tokens_added =
      static_cast<double>(table.size()) - static_cast<double>(stack.initial_tokens.size());
  kjoin::ObjectBuilder probe(*oracle_.matcher, /*multi_mapping=*/true);
  probe.PreloadTokens(table);

  // Single requests on an idle stack: the KJNP round trip, then the same
  // query's build, router search, per-shard searches and codec work
  // in-process. Build, router search and codec are measured stages of the
  // round trip; what they leave uncovered is transport (sockets, epoll,
  // thread hops). The loaded p50 minus the idle round trip is the wait.
  std::vector<double> rtt_ms, build_us, router_us, search_us, codec_us, overhead_us, frame_bytes;
  kjoin::SearchStats search_totals;
  int64_t hits_total = 0;
  int64_t tokens_total = 0;
  int64_t mappings_total = 0;
  int64_t attempted = untraced.attempted;
  int64_t failed = untraced.failed;
  KJoinClient& client = *stack.query_clients[0];
  for (int i = 0; i < scale_.single_queries; ++i) {
    const Query& q = queries_[static_cast<size_t>((int64_t{i} * 7919 + 1) %
                                                  static_cast<int64_t>(queries_.size()))];
    const int64_t request_id = (int64_t{1} << 40) | i;
    StatusOr<NetResponse> got = kjoin::UnavailableError("not sent");
    double rtt_s = 0.0;
    {
      ScopedSpan span("e2e.query_single", request_id);
      got = client.TopK(q.tokens, kTopK);
      rtt_s = span.Elapsed();
    }
    ++attempted;
    if (!got.ok() || got->code != 0) ++failed;

    kjoin::Object query;
    const double build_s =
        TimeSpan("text.build_query", [&] { query = probe.Build(0, q.tokens); }, request_id);
    kjoin::serve::QueryRequest request;
    request.query = query;
    request.top_k = kTopK;
    kjoin::serve::QueryResponse response;
    const double router_s = TimeSpan(
        "serve.router_search", [&] { response = stack.router->Search(request); }, request_id);
    AddSearchStats(&search_totals, response.stats);
    hits_total += static_cast<int64_t>(response.hits.size());
    double search_s = 0.0;
    for (int s = 0; s < kShards; ++s) {
      const std::shared_ptr<const IndexEpoch> epoch = stack.sharded->shard(s)->Acquire();
      std::vector<kjoin::SearchHit> hits;
      kjoin::SearchStats stats;
      search_s += TimeSpan(
          "core.search",
          [&] {
            (void)epoch->index->SearchTopK(query, kTopK, kTau, kjoin::JoinControl{}, &hits,
                                           &stats);
          },
          request_id);
    }
    NetRequest wire;
    wire.id = static_cast<uint64_t>(request_id);
    wire.kind = RequestKind::kTopK;
    wire.top_k = kTopK;
    wire.query_tokens = q.tokens;
    int64_t bytes = 0;
    const double codec_s = CodecRoundTrip(wire, response.hits, request_id, &bytes);
    for (const std::string& token : q.tokens) {
      ++tokens_total;
      mappings_total += static_cast<int64_t>(oracle_.matcher->MatchAll(token).size());
    }
    rtt_ms.push_back(rtt_s * 1e3);
    build_us.push_back(build_s * 1e6);
    router_us.push_back(router_s * 1e6);
    search_us.push_back(search_s * 1e6);
    codec_us.push_back(codec_s * 1e6);
    overhead_us.push_back((rtt_s - build_s - router_s) * 1e6);
    frame_bytes.push_back(static_cast<double>(bytes));
  }

  // serve_mixed: single inserts over KJNP, and the server-side steps of
  // each (build, token-table copy, InsertBatch) replayed on a replica
  // stack with its own WAL.
  std::vector<double> insert_rtt_ms, insert_batch_ms;
  int64_t wal_appends = 0;
  if (mixed_) {
    kjoin::serve::ShardedIndexManager replica(stack.hierarchy, IndexOptions(), oracle_.objects,
                                              probe.TokenTable(), stack.synonyms, kShards,
                                              stack.pool.get());
    const std::string replica_prefix = options_.workdir + "/replica.wal";
    for (int s = 0; s < kShards; ++s) {
      std::error_code ignored;
      std::filesystem::remove(WalPath(replica_prefix, s), ignored);
    }
    const kjoin::Status attached = replica.AttachWal(replica_prefix, /*fsync=*/true);
    if (!attached.ok()) Die("replica WAL attach failed: " + attached.ToString());
    for (int j = 0; j < scale_.single_inserts; ++j) {
      PendingWrite pending;
      NetRequest request = NextWrite(/*allow_delete=*/false, &pending);
      const kjoin::net::InsertRecord record = request.inserts.front();
      StatusOr<NetResponse> got = kjoin::UnavailableError("not sent");
      double rtt_s = 0.0;
      {
        ScopedSpan span("e2e.insert_single");
        got = stack.writer->Call(std::move(request));
        rtt_s = span.Elapsed();
      }
      ++attempted;
      if (!FinishWrite(pending, got)) ++failed;
      insert_rtt_ms.push_back(rtt_s * 1e3);

      kjoin::Object object;
      std::vector<std::string> tokens;
      TimeSpan("text.build_insert",
               [&] { object = probe.Build(record.external_id, record.tokens); });
      TimeSpan("text.token_table_copy", [&] { tokens = probe.TokenTable(); });
      std::vector<kjoin::Object> batch;
      batch.push_back(std::move(object));
      kjoin::Status inserted;
      insert_batch_ms.push_back(1e3 * TimeSpan("serve.insert_batch", [&] {
                                  inserted = replica.InsertBatch(std::move(batch),
                                                                 std::move(tokens));
                                }));
      if (!inserted.ok()) Die("replica insert failed: " + inserted.ToString());
    }
    replica.Flush();

    // WAL appends, counted by replaying each shard's log from disk.
    stack.sharded->Flush();
    for (int s = 0; s < kShards; ++s) {
      kjoin::serve::WalReplayInput input;
      input.tokens = stack.initial_tokens;
      input.num_nodes = stack.hierarchy->num_nodes();
      for (int64_t g = 0; g < scale_.records; ++g) {
        if (kjoin::serve::ShardOf(g, kShards) == s) ++input.num_objects;
      }
      const StatusOr<kjoin::serve::WalReplayResult> replay =
          kjoin::serve::WriteAheadLog::Replay(WalPath(wal_prefix_, s), input);
      if (!replay.ok()) {
        report->Mismatch("shard " + std::to_string(s) +
                         " WAL does not replay: " + replay.status().ToString());
      } else {
        wal_appends += static_cast<int64_t>(replay->records.size());
      }
    }
  }
  Tracer::SetEnabled(false);

  const double loaded_p50_ms = Median(load_.query_ms);
  const double untraced_p50_ms = Median(untraced.query_ms);
  const double rtt_p50_ms = Median(rtt_ms);
  const double build_p50_ms = Median(build_us) / 1e3;
  const double router_p50_ms = Median(router_us) / 1e3;
  const double codec_p50_ms = Median(codec_us) / 1e3;
  const double overhead_p50_ms = Median(overhead_us) / 1e3;
  const double contention_ms = loaded_p50_ms - rtt_p50_ms;
  const auto single = static_cast<double>(scale_.single_queries);
  kjoin::Histogram* batch_size = stack.metrics.histogram("router.batch_size");

  LayerReadings layers;
  layers.data_parse_s = parse_s_;
  layers.hierarchy_lca_build_s = lca_build_s_;
  layers.text_build_s = text_build_s_;
  layers.text_build_us_p50 = Median(build_us);
  layers.text_token_table_copy_us = Median(table_us);
  layers.text_mappings_per_token =
      Ratio(static_cast<double>(mappings_total), static_cast<double>(tokens_total));
  layers.text_tokens_added = tokens_added;
  layers.text_build_share = Ratio(build_p50_ms, loaded_p50_ms);
  layers.core_candidate_yield =
      Ratio(static_cast<double>(hits_total), static_cast<double>(search_totals.candidates));
  layers.core_search_share = Ratio(Median(search_us) / 1e3, loaded_p50_ms);
  layers.core_search_candidates_per_query =
      Ratio(static_cast<double>(search_totals.candidates), single);
  layers.core_bound_pruned_entries_per_query =
      Ratio(static_cast<double>(search_totals.bound_pruned_entries), single);
  layers.matching_hungarian_runs = static_cast<double>(search_totals.verify.hungarian_runs);
  layers.matching_resolved_without_hungarian_frac = ResolvedWithoutHungarian(search_totals.verify);
  layers.serve_router_search_share = Ratio(router_p50_ms, loaded_p50_ms);
  layers.serve_batch_size_mean =
      Ratio(batch_size->sum(), static_cast<double>(batch_size->count()));
  layers.serve_shed = static_cast<double>(stack.metrics.counter("router.shed_total")->value());
  layers.serve_contention_wait_share = Ratio(contention_ms, loaded_p50_ms);
  if (mixed_) {
    layers.serve_insert_batch_share = Ratio(Median(insert_batch_ms), Median(insert_rtt_ms));
    layers.serve_wal_bytes = static_cast<double>(WalBytes());
    layers.serve_wal_appends = static_cast<double>(wal_appends);
    layers.serve_compactions = static_cast<double>(compactions);
    layers.serve_delta_depth_mean = Mean(depths);
  }
  layers.net_codec_share = Ratio(codec_p50_ms, loaded_p50_ms);
  layers.net_overhead_share = Ratio(overhead_p50_ms, loaded_p50_ms);
  layers.net_bytes_per_query = Median(frame_bytes);
  layers.net_backpressure_stalls =
      static_cast<double>(stack.metrics.counter("net.backpressure_stalls")->value());
  // Measured stages only, over the idle round trip they are part of.
  layers.trace_coverage = Ratio(build_p50_ms + router_p50_ms + codec_p50_ms, rtt_p50_ms);
  layers.trace_overhead_share = Ratio(loaded_p50_ms - untraced_p50_ms, untraced_p50_ms);

  // The same stages as absolute readings, under the design's names.
  report->Line("query_p50_ms", loaded_p50_ms, "ms");
  report->Line("query_p50_ms.untraced", untraced_p50_ms, "ms");
  report->Line("query_rtt_idle_p50_ms", rtt_p50_ms, "ms");
  report->Line("core.search_us_p50", Median(search_us), "us");
  report->Line("serve.router_search_us_p50", Median(router_us), "us");
  report->Line("serve.contention_wait_ms", contention_ms, "ms");
  report->Line("net.codec_us", Median(codec_us), "us");
  report->Line("net.overhead_us_p50", Median(overhead_us), "us");
  if (mixed_) {
    report->Line("insert_rtt_idle_p50_ms", Median(insert_rtt_ms), "ms");
    report->Line("serve.insert_batch_ms_p50", Median(insert_batch_ms), "ms");
  }
  Report::TraceMeta meta;
  meta.e2e_span = "e2e.query_single";
  meta.untraced_e2e_ms = untraced_p50_ms;
  meta.traced_e2e_ms = loaded_p50_ms;
  meta.stage_spans = {"text.build_query", "serve.router_search", "net.codec"};
  report->SetTraceMeta(std::move(meta));
  report->AddAttempted(attempted + load_.attempted);
  report->AddFailed(failed + load_.failed);
  EmitLayerReadings(layers, report);
}

void ServeWorkload::Check(Report* report) {
  Stack& stack = *stack_;
  std::vector<std::shared_ptr<QuerySample>> samples;
  {
    std::lock_guard<std::mutex> lock(samples_mu_);
    samples = samples_;
  }
  if (options_.perturb) {
    // Self-test: corrupt the benchmark's copy of one answer.
    for (const auto& sample : samples) {
      if (!sample->answered) continue;
      if (sample->hits.empty()) {
        sample->hits.push_back({0, 1.5});
      } else {
        sample->hits.front().similarity += 0.25;
      }
      break;
    }
  }
  if (numbering_errors_ > 0) {
    report->Mismatch(std::to_string(numbering_errors_) +
                     " inserts were acked with an unexpected global index");
    return;
  }

  // The model: the indexed objects plus every acked insert, built by the
  // oracle's own builder.
  const int64_t n = scale_.records;
  int64_t inserts = 0;
  for (const WriteOp& op : ops_) {
    if (!op.insert) continue;
    ++inserts;
    if (static_cast<int64_t>(oracle_.inserted.size()) < inserts) {
      const kjoin::Record& record = extra_[static_cast<size_t>(op.record)];
      oracle_.inserted.push_back(oracle_.builder->Build(record.id, record.tokens));
    }
  }
  auto object_at = [&](int64_t g) -> const kjoin::Object& {
    return g < n ? oracle_.objects[static_cast<size_t>(g)]
                 : oracle_.inserted[static_cast<size_t>(g - n)];
  };

  // Each shard's writes in order, with their shard-local indexes.
  std::vector<std::vector<size_t>> shard_ops(kShards);
  std::vector<int32_t> local(ops_.size(), -1);
  for (int s = 0; s < kShards; ++s) {
    const std::shared_ptr<const std::vector<int32_t>> table = stack.sharded->GlobalIndexes(s);
    for (size_t i = 0; i < ops_.size(); ++i) {
      if (kjoin::serve::ShardOf(ops_[i].global_index, kShards) != s) continue;
      const auto it = std::lower_bound(table->begin(), table->end(), ops_[i].global_index);
      if (it == table->end() || *it != ops_[i].global_index) {
        report->Mismatch("object " + std::to_string(ops_[i].global_index) +
                         " is missing from shard " + std::to_string(s));
        return;
      }
      local[i] = static_cast<int32_t>(it - table->begin());
      shard_ops[static_cast<size_t>(s)].push_back(i);
    }
  }
  // How many of shard s's writes an epoch shows. A shard applies its
  // writes in order and a delete only tombstones a live insert, so the
  // epoch shows the inserts it indexes and its first (indexed - live)
  // deletes.
  auto visible_prefix = [&](size_t s, const EpochCounts& epoch) {
    const std::vector<size_t>& list = shard_ops[s];
    const int64_t tombstones = epoch.indexed - epoch.live;
    int64_t deletes = 0;
    size_t p = 0;
    for (; p < list.size(); ++p) {
      const size_t i = list[p];
      const bool visible = ops_[i].insert ? local[i] < epoch.indexed : ++deletes <= tombstones;
      if (!visible) break;
    }
    return p;
  };

  int64_t checked = 0;
  int64_t ambiguous = 0;
  for (const auto& sample : samples) {
    if (!sample->answered || sample->after.size() != static_cast<size_t>(kShards)) continue;
    std::vector<size_t> lo(kShards), hi(kShards);
    int64_t states = 1;
    size_t ops_seen = 0;  // writes past these cannot matter to the sample
    for (size_t s = 0; s < lo.size(); ++s) {
      lo[s] = visible_prefix(s, sample->before[s]);
      hi[s] = std::max(lo[s], visible_prefix(s, sample->after[s]));
      states *= static_cast<int64_t>(hi[s] - lo[s] + 1);
      if (hi[s] > 0) ops_seen = std::max(ops_seen, shard_ops[s][hi[s] - 1] + 1);
    }
    if (states > kMaxStates) {
      ++ambiguous;
      continue;
    }
    int64_t objects = n;
    for (size_t i = 0; i < ops_seen; ++i) objects += ops_[i].insert ? 1 : 0;

    const kjoin::Object query =
        oracle_.builder->Build(-1, queries_[static_cast<size_t>(sample->query)].tokens);
    std::vector<double> similarity(static_cast<size_t>(objects));
    for (int64_t g = 0; g < objects; ++g) {
      similarity[static_cast<size_t>(g)] = oracle_.brute->Similarity(query, object_at(g));
    }
    // Try every combination of per-shard prefixes between the two epochs.
    std::vector<size_t> prefix = lo;
    bool matched = false;
    std::string why;
    while (true) {
      std::vector<char> live(static_cast<size_t>(objects), 0);
      std::fill(live.begin(), live.begin() + n, 1);
      for (size_t s = 0; s < prefix.size(); ++s) {
        for (size_t p = 0; p < prefix[s]; ++p) {
          const WriteOp& op = ops_[shard_ops[s][p]];
          if (op.global_index < objects) live[static_cast<size_t>(op.global_index)] = op.insert;
        }
      }
      if (TopKMatches(sample->hits, similarity, live, kTopK, kTau, &why)) {
        matched = true;
        break;
      }
      size_t s = 0;
      for (; s < prefix.size(); ++s) {
        if (prefix[s] < hi[s]) {
          ++prefix[s];
          break;
        }
        prefix[s] = lo[s];
      }
      if (s == prefix.size()) break;
    }
    ++checked;
    if (!matched) report->Mismatch("query " + std::to_string(sample->query) + ": " + why);
  }
  report->Line("oracle.queries_checked", static_cast<double>(checked), "count");
  report->Line("oracle.queries_ambiguous", static_cast<double>(ambiguous), "count");
  if (checked == 0) report->Mismatch("no sampled query was answered");

  if (mixed_) {
    // Quiesce, then the object counts must match the model.
    stack.sharded->Flush();
    const int64_t deletes = static_cast<int64_t>(ops_.size()) - inserts;
    int64_t live = 0;
    for (int s = 0; s < kShards; ++s) live += stack.sharded->shard(s)->Acquire()->index->num_live();
    if (stack.sharded->num_objects() != n + inserts) {
      report->Mismatch("the index holds " + std::to_string(stack.sharded->num_objects()) +
                       " objects, the model " + std::to_string(n + inserts));
    }
    if (live != n + inserts - deletes) {
      report->Mismatch(std::to_string(live) + " live objects, the model has " +
                       std::to_string(n + inserts - deletes));
    }
    report->Line("oracle.live_objects", static_cast<double>(live), "count");
  }
}

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(const Options& options, bool mixed) {
  return std::make_unique<ServeWorkload>(options, mixed);
}

}  // namespace perfbench
