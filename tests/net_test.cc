// Network serving tier suite (docs/serving.md, "Network protocol"): the
// KJNP frame format (truncation at every byte boundary, single-bit-flip
// CRC rejection, oversized frames), the structured status detail shared
// by in-process and network callers, the loopback server/client round
// trip (results byte-identical to the in-process router), backpressure,
// slow-loris idle close, graceful drain (every request read before
// SIGTERM gets its response), client recovery after a server dies, and
// the connection-storm chaos case under injected accept/read/write
// faults. Runs under the asan and tsan presets (tests/CMakeLists.txt
// labels).

#include <gtest/gtest.h>

#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
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
#include "data/benchmark_suite.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/shard_router.h"
#include "serve/sharded_index_manager.h"
#include "serve/status_detail.h"
#include "search_helpers.h"

namespace kjoin {
namespace {

using net::FrameDecoder;
using net::KJoinClient;
using net::KJoinServer;
using net::NetRequest;
using net::NetResponse;
using net::RequestKind;
using net::ServerOptions;

// ------------------------------------------------ status detail (serve)

TEST(StatusDetailTest, FormatsAndParses) {
  EXPECT_EQ(serve::RetryAfterField(42), "retry_after_ms=42");
  const Status status =
      UnavailableError("index is read-only; " + serve::RetryAfterField(17));
  const std::optional<int64_t> hint = serve::RetryAfterMs(status);
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, 17);
}

TEST(StatusDetailTest, AbsentAndMalformedAreNullopt) {
  EXPECT_FALSE(serve::RetryAfterMs(OkStatus()).has_value());
  EXPECT_FALSE(serve::RetryAfterMs(UnavailableError("busy, retry later")).has_value());
  EXPECT_FALSE(serve::RetryAfterMs(UnavailableError("retry_after_ms=")).has_value());
  EXPECT_FALSE(serve::RetryAfterMs(UnavailableError("retry_after_ms=soon")).has_value());
  // Overflow is treated as absent, not clamped.
  EXPECT_FALSE(
      serve::RetryAfterMs(UnavailableError("retry_after_ms=99999999999999999999"))
          .has_value());
}

// The degraded read-only write rejection is the response worth retrying:
// its hint is one probe interval, at least 1 ms, and parses back out of
// the message; a deadline trip carries none.
TEST(StatusDetailTest, RetryableCodes) {
  serve::IndexManagerOptions options;
  EXPECT_EQ(serve::RetryHintMs(options), 250);
  options.wal_probe_interval_seconds = 1e-6;
  EXPECT_EQ(serve::RetryHintMs(options), 1);
  const Status rejected = UnavailableError("index is read-only; " +
                                           serve::RetryAfterField(serve::RetryHintMs(options)));
  EXPECT_EQ(serve::RetryAfterMs(rejected), std::optional<int64_t>(1));
  EXPECT_FALSE(serve::RetryAfterMs(DeadlineExceededError("late")).has_value());
}

// ---------------------------------------------------- metrics (common)

TEST(MetricsJsonTest, EscapesNames) {
  EXPECT_EQ(JsonEscape("plain.name"), "plain.name");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");
  MetricsRegistry registry;
  registry.counter("weird\"name")->Increment(3);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"weird\\\"name\":3"), std::string::npos) << json;
}

TEST(MetricsJsonTest, PercentileOfSorted) {
  EXPECT_EQ(PercentileOfSorted({}, 0.5), 0.0);
  const std::vector<double> one = {7.0};
  EXPECT_EQ(PercentileOfSorted(one, 0.0), 7.0);
  EXPECT_EQ(PercentileOfSorted(one, 1.0), 7.0);
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  EXPECT_EQ(PercentileOfSorted(ten, 0.0), 1.0);
  EXPECT_EQ(PercentileOfSorted(ten, 1.0), 10.0);
  EXPECT_EQ(PercentileOfSorted(ten, 0.5), 6.0);  // nearest-rank, rounded
  // Out-of-range quantiles clamp instead of indexing out of bounds.
  EXPECT_EQ(PercentileOfSorted(ten, -1.0), 1.0);
  EXPECT_EQ(PercentileOfSorted(ten, 2.0), 10.0);
}

// -------------------------------------------------------- protocol unit

NetRequest SampleSearch() {
  NetRequest request;
  request.id = 0x1122334455667788ull;
  request.kind = RequestKind::kSearch;
  request.deadline_ms = 250;
  request.min_similarity = 0.75;
  request.query_tokens = {"coffee", "house", "berlin"};
  return request;
}

TEST(ProtocolTest, RequestRoundTripAllKinds) {
  std::vector<NetRequest> requests;
  requests.push_back(SampleSearch());
  {
    NetRequest r = SampleSearch();
    r.kind = RequestKind::kTopK;
    r.top_k = 5;
    requests.push_back(r);
  }
  {
    NetRequest r;
    r.id = 7;
    r.kind = RequestKind::kInsert;
    r.inserts = {{101, {"a", "b"}}, {102, {}}, {103, {"c"}}};
    requests.push_back(r);
  }
  {
    NetRequest r;
    r.id = 8;
    r.kind = RequestKind::kDelete;
    r.delete_indexes = {3, 1, 4, 1, 5};
    requests.push_back(r);
  }
  {
    NetRequest r;
    r.id = 9;
    r.kind = RequestKind::kHealth;
    requests.push_back(r);
  }
  {
    NetRequest r;
    r.id = 10;
    r.kind = RequestKind::kMetrics;
    requests.push_back(r);
  }
  for (const NetRequest& request : requests) {
    NetRequest decoded;
    ASSERT_TRUE(net::DecodeRequestPayload(net::EncodeRequestPayload(request), &decoded).ok());
    EXPECT_EQ(decoded.id, request.id);
    EXPECT_EQ(decoded.kind, request.kind);
    EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
    EXPECT_EQ(decoded.min_similarity, request.min_similarity);
    EXPECT_EQ(decoded.top_k, request.kind == RequestKind::kTopK ? request.top_k : 0);
    EXPECT_EQ(decoded.query_tokens, request.query_tokens);
    ASSERT_EQ(decoded.inserts.size(), request.inserts.size());
    for (size_t i = 0; i < request.inserts.size(); ++i) {
      EXPECT_EQ(decoded.inserts[i].external_id, request.inserts[i].external_id);
      EXPECT_EQ(decoded.inserts[i].tokens, request.inserts[i].tokens);
    }
    EXPECT_EQ(decoded.delete_indexes, request.delete_indexes);
  }
}

TEST(ProtocolTest, ResponseRoundTrip) {
  NetResponse response;
  response.id = 99;
  response.code = static_cast<uint32_t>(StatusCode::kResourceExhausted);
  response.retry_after_ms = 120;
  response.message = "shed";
  response.hits = {{4, 0.875}, {9, 0.5}};
  response.epoch_version = 12;
  response.objects_after_insert = 240;
  response.text = "state=SERVING";
  NetResponse decoded;
  ASSERT_TRUE(net::DecodeResponsePayload(net::EncodeResponsePayload(response), &decoded).ok());
  EXPECT_EQ(decoded.id, response.id);
  EXPECT_EQ(decoded.code, response.code);
  EXPECT_EQ(decoded.retry_after_ms, response.retry_after_ms);
  EXPECT_EQ(decoded.message, response.message);
  ASSERT_EQ(decoded.hits.size(), response.hits.size());
  for (size_t i = 0; i < response.hits.size(); ++i) {
    EXPECT_EQ(decoded.hits[i].object_index, response.hits[i].object_index);
    EXPECT_EQ(decoded.hits[i].similarity, response.hits[i].similarity);
  }
  EXPECT_EQ(decoded.epoch_version, response.epoch_version);
  EXPECT_EQ(decoded.objects_after_insert, response.objects_after_insert);
  EXPECT_EQ(decoded.text, response.text);
}

TEST(ProtocolTest, UnknownKindRejected) {
  NetRequest request = SampleSearch();
  std::string payload = net::EncodeRequestPayload(request);
  payload[8] = 99;  // the kind byte follows the u64 id
  NetRequest decoded;
  const Status status = net::DecodeRequestPayload(payload, &decoded);
  EXPECT_TRUE(IsInvalidArgument(status)) << status.ToString();
}

TEST(ProtocolTest, TruncationAtEveryByteBoundaryNeedsMoreNeverErrors) {
  const std::string frame = net::WrapFrame(net::EncodeRequestPayload(SampleSearch()));
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Append(frame.data(), cut);
    std::string payload;
    StatusOr<bool> got = decoder.Next(&payload);
    ASSERT_TRUE(got.ok()) << "cut at " << cut << ": " << got.status().ToString();
    ASSERT_FALSE(*got) << "cut at " << cut;
    // The rest arrives: exactly one frame completes.
    decoder.Append(frame.data() + cut, frame.size() - cut);
    got = decoder.Next(&payload);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(*got);
    NetRequest decoded;
    ASSERT_TRUE(net::DecodeRequestPayload(payload, &decoded).ok());
    EXPECT_EQ(decoded.id, SampleSearch().id);
  }
}

TEST(ProtocolTest, SingleBitFlipNeverYieldsAFrame) {
  const std::string frame = net::WrapFrame(net::EncodeRequestPayload(SampleSearch()));
  for (size_t at = 0; at < frame.size(); ++at) {
    std::string corrupt = frame;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x10);
    FrameDecoder decoder;
    decoder.Append(corrupt.data(), corrupt.size());
    std::string payload;
    StatusOr<bool> got = decoder.Next(&payload);
    // A flipped size field may leave the decoder waiting for bytes that
    // never come; every other flip must poison. What can never happen
    // is a successfully decoded frame.
    if (got.ok()) {
      EXPECT_FALSE(*got) << "flip at " << at << " produced a frame";
    } else {
      EXPECT_TRUE(IsDataLoss(got.status())) << got.status().ToString();
    }
  }
}

TEST(ProtocolTest, OversizedFrameRejectedBeforeBuffering) {
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  std::string payload(2048, 'x');
  const std::string frame = net::WrapFrame(payload);
  decoder.Append(frame.data(), net::kFrameHeaderBytes);  // header alone suffices
  std::string out;
  StatusOr<bool> got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(IsDataLoss(got.status()));
  EXPECT_TRUE(decoder.poisoned());
}

TEST(ProtocolTest, PipelinedFramesDecodeInOrder) {
  NetRequest first = SampleSearch();
  NetRequest second = SampleSearch();
  second.id = 2;
  std::string stream = net::WrapFrame(net::EncodeRequestPayload(first)) +
                       net::WrapFrame(net::EncodeRequestPayload(second));
  FrameDecoder decoder;
  // Worst case: one byte at a time.
  std::vector<uint64_t> ids;
  for (char c : stream) {
    decoder.Append(&c, 1);
    while (true) {
      std::string payload;
      StatusOr<bool> got = decoder.Next(&payload);
      ASSERT_TRUE(got.ok());
      if (!*got) break;
      NetRequest decoded;
      ASSERT_TRUE(net::DecodeRequestPayload(payload, &decoded).ok());
      ids.push_back(decoded.id);
    }
  }
  EXPECT_EQ(ids, (std::vector<uint64_t>{SampleSearch().id, 2}));
}

TEST(ProtocolTest, ResponseFromStatusLiftsRetryHint) {
  const NetResponse rejected = net::ResponseFromStatus(
      5, UnavailableError("read-only; " + serve::RetryAfterField(90)));
  EXPECT_EQ(rejected.id, 5u);
  EXPECT_EQ(rejected.code, static_cast<uint32_t>(StatusCode::kUnavailable));
  EXPECT_EQ(rejected.retry_after_ms, 90);
  const NetResponse ok = net::ResponseFromStatus(6, OkStatus());
  EXPECT_EQ(ok.code, 0u);
  EXPECT_EQ(ok.retry_after_ms, 0);
}

// ------------------------------------------------- loopback integration

constexpr int64_t kRecords = 120;

struct NetStack {
  Dataset dataset;
  std::shared_ptr<const Hierarchy> hierarchy;
  PreparedObjects prepared;
};

KJoinOptions Options() {
  KJoinOptions options;
  options.delta = 0.8;
  options.tau = 0.6;
  options.plus_mode = true;
  return options;
}

NetStack& Stack() {
  static NetStack* stack = [] {
    auto* s = new NetStack();
    BenchmarkData data = MakePoiBenchmark(kRecords, /*seed=*/41);
    s->dataset = std::move(data.dataset);
    s->hierarchy = std::make_shared<const Hierarchy>(std::move(data.hierarchy));
    s->prepared = BuildObjects(*s->hierarchy, s->dataset,
                               /*multi_mapping=*/true, /*min_phi=*/0.8);
    return s;
  }();
  return *stack;
}

std::vector<std::string> QueryTokens(int q) {
  const Dataset& dataset = Stack().dataset;
  std::vector<std::string> tokens = dataset.records[(q * 97) % dataset.records.size()].tokens;
  if (tokens.size() > 1 && q % 2 == 1) tokens.pop_back();
  return tokens;
}

// Everything one serving test needs, torn down in order.
struct ServerStack {
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<serve::ShardedIndexManager> manager;
  std::vector<std::unique_ptr<serve::LocalShard>> backends;
  // One open gate per shard, which a test can close to hold a query.
  std::vector<std::unique_ptr<test::GatedShard>> gates;
  std::unique_ptr<serve::ShardRouter> router;
  std::unique_ptr<KJoinServer> server;
};

std::unique_ptr<ServerStack> MakeServer(ServerOptions options = {},
                                        const std::string& wal_prefix = "") {
  auto stack = std::make_unique<ServerStack>();
  stack->metrics = std::make_unique<MetricsRegistry>();
  stack->pool = std::make_unique<ThreadPool>(4);
  NetStack& data = Stack();
  stack->manager = std::make_unique<serve::ShardedIndexManager>(
      data.hierarchy, Options(), data.prepared.objects, data.prepared.builder->TokenTable(),
      data.dataset.synonyms, /*num_shards=*/2, stack->pool.get(), stack->metrics.get());
  if (!wal_prefix.empty()) {
    KJOIN_CHECK(stack->manager->AttachWal(wal_prefix, /*fsync=*/false).ok());
  }
  std::vector<serve::ShardBackend*> shards;
  for (int s = 0; s < 2; ++s) {
    stack->backends.push_back(
        std::make_unique<serve::LocalShard>(stack->manager.get(), s));
    stack->gates.push_back(std::make_unique<test::GatedShard>(stack->backends.back().get()));
    shards.push_back(stack->gates.back().get());
  }
  stack->router = std::make_unique<serve::ShardRouter>(std::move(shards), stack->pool.get(),
                                                       serve::ShardRouterOptions{},
                                                       stack->metrics.get());
  stack->server = std::make_unique<KJoinServer>(stack->router.get(), stack->manager.get(),
                                                data.prepared.builder.get(),
                                                stack->metrics.get(), options);
  KJOIN_CHECK(stack->server->Start().ok());
  return stack;
}

// A raw loopback socket for protocol-abuse tests the client refuses to
// produce.
int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  KJOIN_CHECK(fd >= 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  KJOIN_CHECK(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) == 0);
  return fd;
}

bool WaitForPeerClose(int fd, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_seconds));
  char buf[256];
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return true;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// Reads responses from `fd` until `count` arrived, the peer closed, or
// 30 s passed; returns them in arrival order.
std::vector<NetResponse> ReadResponses(int fd, size_t count) {
  FrameDecoder decoder;
  std::vector<NetResponse> responses;
  char buf[16 << 10];
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (responses.size() < count && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.Append(buf, static_cast<size_t>(n));
    std::string payload;
    for (StatusOr<bool> got = decoder.Next(&payload); got.ok() && *got;
         got = decoder.Next(&payload)) {
      NetResponse response;
      if (!net::DecodeResponsePayload(payload, &response).ok()) return responses;
      responses.push_back(std::move(response));
    }
  }
  return responses;
}

// The server's accounting ties out once every response has been read:
// each frame read was answered, and the router ran exactly the
// `search_frames` searches sent over the wire plus the
// `in_process_searches` a test ran on it directly.
void ExpectServerTiesOut(const ServerStack& stack, int64_t search_frames,
                         int64_t in_process_searches = 0) {
  EXPECT_EQ(stack.metrics->counter("net.frames_read")->value(),
            stack.metrics->counter("net.frames_written")->value());
  EXPECT_EQ(stack.metrics->counter("router.queries")->value(),
            search_frames + in_process_searches);
}

TEST(NetServerTest, SearchMatchesInProcessRouterExactly) {
  auto stack = MakeServer();
  KJoinClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack->server->port()).ok());
  for (int q = 0; q < 24; ++q) {
    const std::vector<std::string> tokens = QueryTokens(q);
    // In-process reference through the same router and builder.
    serve::QueryRequest reference;
    reference.query = Stack().prepared.builder->Build(0, tokens);
    if (q % 3 == 0) reference.top_k = 5;
    const serve::QueryResponse expected = stack->router->Search(reference);

    StatusOr<NetResponse> got = q % 3 == 0 ? client.TopK(tokens, 5) : client.Search(tokens);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->code, static_cast<uint32_t>(expected.status.code()));
    ASSERT_EQ(got->hits.size(), expected.hits.size()) << "query " << q;
    for (size_t i = 0; i < expected.hits.size(); ++i) {
      EXPECT_EQ(got->hits[i].object_index, expected.hits[i].object_index);
      // Bitwise: the wire format is a bit-exact f64, and the server ran
      // the identical code path.
      EXPECT_EQ(got->hits[i].similarity, expected.hits[i].similarity);
    }
  }
  ExpectServerTiesOut(*stack, 24, /*in_process_searches=*/24);
}

// Pipelining clients are not shed: three connections each pipeline 32
// searches, 96 in all. A connection's searches run one at a time on its
// loop, and every one of them is answered with the in-process router's
// reply.
TEST(NetServerTest, PipeliningClientsAreNotShed) {
  ServerOptions options;
  options.num_loops = 3;
  auto stack = MakeServer(options);
  constexpr int kConnections = 3;
  constexpr int kPipelined = 32;
  std::vector<serve::QueryResponse> expected;
  std::vector<std::string> bursts(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    for (int q = 0; q < kPipelined; ++q) {
      const int i = c * kPipelined + q;
      NetRequest request;
      request.id = static_cast<uint64_t>(i) + 1;
      request.kind = q % 2 == 0 ? RequestKind::kTopK : RequestKind::kSearch;
      request.top_k = q % 2 == 0 ? 3 : 0;
      request.query_tokens = QueryTokens(i);
      bursts[c] += net::WrapFrame(net::EncodeRequestPayload(request));
      serve::QueryRequest reference;
      reference.query = Stack().prepared.builder->Build(0, request.query_tokens);
      reference.top_k = request.top_k;
      expected.push_back(stack->router->Search(reference));
    }
  }
  std::vector<int> fds;
  for (int c = 0; c < kConnections; ++c) fds.push_back(RawConnect(stack->server->port()));
  for (int c = 0; c < kConnections; ++c) {
    ASSERT_EQ(::send(fds[c], bursts[c].data(), bursts[c].size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bursts[c].size()));
  }
  for (int c = 0; c < kConnections; ++c) {
    const std::vector<NetResponse> responses = ReadResponses(fds[c], kPipelined);
    ::close(fds[c]);
    ASSERT_EQ(responses.size(), static_cast<size_t>(kPipelined)) << "connection " << c;
    for (int q = 0; q < kPipelined; ++q) {
      const int i = c * kPipelined + q;
      const NetResponse& got = responses[static_cast<size_t>(q)];
      EXPECT_EQ(got.id, static_cast<uint64_t>(i) + 1);
      EXPECT_EQ(got.code, 0u) << "request " << i << ": " << got.message;
      EXPECT_EQ(got.hits, expected[static_cast<size_t>(i)].hits) << "request " << i;
    }
  }
  ExpectServerTiesOut(*stack, kConnections * kPipelined,
                      /*in_process_searches=*/kConnections * kPipelined);
}

// Overload is bounded by structure, not by a cap: each loop answers one
// search at a time, so with shard 0's gate closed a 2-loop server holds
// exactly 2 probes there however many connections send a search. Once
// the gate opens every search is answered with the in-process router's
// reply.
TEST(NetServerTest, EachLoopRunsOneSearchAtATime) {
  ServerOptions options;
  options.num_loops = 2;
  auto stack = MakeServer(options);
  constexpr int kConnections = 6;
  std::vector<serve::QueryResponse> expected;
  std::vector<std::string> frames;
  for (int c = 0; c < kConnections; ++c) {
    NetRequest request;
    request.id = static_cast<uint64_t>(c) + 1;
    request.kind = RequestKind::kTopK;
    request.top_k = 3;
    request.query_tokens = QueryTokens(c);
    frames.push_back(net::WrapFrame(net::EncodeRequestPayload(request)));
    serve::QueryRequest reference;
    reference.query = Stack().prepared.builder->Build(0, request.query_tokens);
    reference.top_k = request.top_k;
    expected.push_back(stack->router->Search(reference));
  }
  std::vector<int> fds;
  for (int c = 0; c < kConnections; ++c) fds.push_back(RawConnect(stack->server->port()));
  // No ASSERT while the gate is closed: a held search would never return.
  stack->gates[0]->Close();
  for (int c = 0; c < kConnections; ++c) {
    EXPECT_EQ(::send(fds[c], frames[c].data(), frames[c].size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frames[c].size()));
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stack->gates[0]->held() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int held_at_first = stack->gates[0]->held();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const int held_after_settle = stack->gates[0]->held();
  stack->gates[0]->Open();
  EXPECT_EQ(held_at_first, 2);
  EXPECT_EQ(held_after_settle, 2);
  for (int c = 0; c < kConnections; ++c) {
    const std::vector<NetResponse> responses = ReadResponses(fds[c], 1);
    ::close(fds[c]);
    ASSERT_EQ(responses.size(), 1u) << "connection " << c;
    EXPECT_EQ(responses[0].id, static_cast<uint64_t>(c) + 1);
    EXPECT_EQ(responses[0].code, 0u) << "connection " << c << ": " << responses[0].message;
    EXPECT_EQ(responses[0].hits, expected[static_cast<size_t>(c)].hits) << "connection " << c;
  }
  ExpectServerTiesOut(*stack, kConnections, /*in_process_searches=*/kConnections);
}

// A SEARCH request's floor is applied like a TOPK's: a floor above tau
// returns only the hits at or above it, and a floor below tau is
// rejected with kInvalidArgument for both kinds.
TEST(NetServerTest, SearchFloorAboveTauIsApplied) {
  auto stack = MakeServer();
  KJoinClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack->server->port()).ok());
  constexpr double kFloor = 0.8;  // above tau = 0.6
  int dropped = 0;
  for (int q = 0; q < 24; ++q) {
    const std::vector<std::string> tokens = QueryTokens(q);
    StatusOr<NetResponse> all = client.Search(tokens);
    StatusOr<NetResponse> floored = client.Search(tokens, kFloor);
    ASSERT_TRUE(all.ok() && floored.ok());
    ASSERT_EQ(all->code, 0u) << all->message;
    ASSERT_EQ(floored->code, 0u) << floored->message;
    std::vector<SearchHit> expected;
    for (const SearchHit& hit : all->hits) {
      if (hit.similarity + 1e-9 >= kFloor) expected.push_back(hit);
    }
    dropped += static_cast<int>(all->hits.size() - expected.size());
    EXPECT_EQ(floored->hits, expected) << "query " << q;
  }
  EXPECT_GT(dropped, 0) << "no query had a hit between tau and the floor";

  StatusOr<NetResponse> below = client.Search(QueryTokens(0), 0.3);
  ASSERT_TRUE(below.ok());
  EXPECT_EQ(below->code, static_cast<uint32_t>(StatusCode::kInvalidArgument)) << below->message;
  StatusOr<NetResponse> below_topk = client.TopK(QueryTokens(0), 3, 0.3);
  ASSERT_TRUE(below_topk.ok());
  EXPECT_EQ(below_topk->code, below->code);
}

TEST(NetServerTest, HealthAndMetrics) {
  auto stack = MakeServer();
  KJoinClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack->server->port()).ok());
  StatusOr<NetResponse> health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->code, 0u);
  EXPECT_NE(health->text.find("state=SERVING"), std::string::npos) << health->text;
  EXPECT_NE(health->text.find("objects=" + std::to_string(kRecords)), std::string::npos)
      << health->text;
  StatusOr<NetResponse> metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->code, 0u);
  EXPECT_NE(metrics->text.find("\"net.requests\":"), std::string::npos) << metrics->text;
}

TEST(NetServerTest, InsertDeleteVisibleThroughSearch) {
  auto stack = MakeServer();
  KJoinClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack->server->port()).ok());
  // A record with a distinctive duplicate-free token multiset: itself as
  // the query matches with similarity 1.0.
  const std::vector<std::string> tokens = Stack().dataset.records[3].tokens;
  const int64_t before = stack->manager->num_objects();
  StatusOr<NetResponse> inserted = client.Insert({{9001, tokens}});
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  ASSERT_EQ(inserted->code, 0u) << inserted->message;
  EXPECT_EQ(inserted->objects_after_insert, before + 1);

  // Epoch publication is asynchronous: poll until the new object is
  // searchable.
  const int32_t global_index = static_cast<int32_t>(before);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool visible = false;
  while (!visible && std::chrono::steady_clock::now() < deadline) {
    StatusOr<NetResponse> found = client.Search(tokens);
    ASSERT_TRUE(found.ok());
    for (const SearchHit& hit : found->hits) {
      if (hit.object_index == global_index) visible = true;
    }
    if (!visible) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(visible) << "inserted object never became searchable";

  StatusOr<NetResponse> deleted = client.Delete({global_index});
  ASSERT_TRUE(deleted.ok());
  ASSERT_EQ(deleted->code, 0u) << deleted->message;
  bool gone = false;
  while (!gone && std::chrono::steady_clock::now() < deadline) {
    StatusOr<NetResponse> found = client.Search(tokens);
    ASSERT_TRUE(found.ok());
    gone = true;
    for (const SearchHit& hit : found->hits) {
      if (hit.object_index == global_index) gone = false;
    }
    if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(gone) << "deleted object still searchable";
}

// Query tokens never join the server's state: a storm of 100k distinct
// unseen tokens leaves the token table and every shard's WAL as they
// were, and the next insert's WAL frame carries only its own new token.
TEST(NetServerTest, QueryTokenStormGrowsNoServerState) {
  const std::string prefix = testing::TempDir() + "/net_test_storm.wal";
  for (int s = 0; s < 2; ++s) std::remove((prefix + ".shard-" + std::to_string(s)).c_str());
  auto stack = MakeServer({}, prefix);
  ObjectBuilder* builder = Stack().prepared.builder.get();
  auto wal_bytes = [&] {
    std::vector<int64_t> bytes;
    for (int s = 0; s < 2; ++s) bytes.push_back(stack->manager->shard(s)->wal_size_bytes());
    return bytes;
  };
  const int64_t tokens_before = builder->num_distinct_tokens();
  const std::vector<int64_t> wal_before = wal_bytes();

  KJoinClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack->server->port()).ok());
  constexpr int kQueries = 100;
  constexpr int kTokensPerQuery = 1000;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<std::string> tokens;
    tokens.reserve(kTokensPerQuery);
    for (int t = 0; t < kTokensPerQuery; ++t) {
      tokens.push_back("storm" + std::to_string(q * kTokensPerQuery + t));
    }
    StatusOr<NetResponse> got = q % 2 == 0 ? client.Search(tokens) : client.TopK(tokens, 3);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->code, 0u) << got->message;
    EXPECT_TRUE(got->hits.empty());
  }
  EXPECT_EQ(builder->num_distinct_tokens(), tokens_before);
  EXPECT_EQ(wal_bytes(), wal_before);

  // A token new to this process on every run, so the test repeats
  // (--gtest_repeat) against the shared builder.
  static int run = 0;
  const std::string followup = "stormfollowup" + std::to_string(run++);
  const std::vector<std::string>& table = builder->TokenTable();
  EXPECT_EQ(std::find(table.begin(), table.end(), followup), table.end());
  std::vector<std::string> record = Stack().dataset.records[5].tokens;
  record.push_back(followup);
  StatusOr<NetResponse> inserted = client.Insert({{9100, record}});
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  ASSERT_EQ(inserted->code, 0u) << inserted->message;
  EXPECT_EQ(builder->num_distinct_tokens(), tokens_before + 1);
  const std::vector<int64_t> wal_after = wal_bytes();
  for (int s = 0; s < 2; ++s) {
    // One small record per shard; a frame that shipped the storm's
    // tokens would be over a megabyte.
    EXPECT_GT(wal_after[s], wal_before[s]) << "shard " << s;
    EXPECT_LT(wal_after[s] - wal_before[s], 4096) << "shard " << s;
  }
}

// A write refused by a degraded read-only shard comes back over KJNP as
// kUnavailable with the manager's backoff hint in the retry_after_ms
// wire field.
TEST(NetServerTest, ReadOnlyInsertCarriesRetryAfter) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const std::string prefix = testing::TempDir() + "/net_test_readonly.wal";
  for (int s = 0; s < 2; ++s) std::remove((prefix + ".shard-" + std::to_string(s)).c_str());
  auto stack = MakeServer({}, prefix);
  KJoinClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack->server->port()).ok());
  const std::vector<std::string> record = Stack().dataset.records[7].tokens;
  NetResponse last;
  {
    fault::Scope scope;  // disarms on exit
    fault::Enable("serve/wal_append");  // every append fails, as a full disk would
    // Inserts land on the shards in turn; each failed append counts
    // towards its shard's trip threshold (3 by default), after which
    // the sharded manager refuses the next insert up front.
    for (int attempt = 0; attempt < 12; ++attempt) {
      StatusOr<NetResponse> got = client.Insert({{9200 + attempt, record}});
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      last = *got;
      if (last.code == static_cast<uint32_t>(StatusCode::kUnavailable)) break;
      EXPECT_EQ(last.code, static_cast<uint32_t>(StatusCode::kDataLoss)) << last.message;
    }
  }
  EXPECT_EQ(last.code, static_cast<uint32_t>(StatusCode::kUnavailable)) << last.message;
  EXPECT_GE(last.retry_after_ms, 1) << last.message;
}

TEST(NetServerTest, MalformedPayloadGetsInvalidArgumentResponse) {
  auto stack = MakeServer();
  KJoinClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack->server->port()).ok());
  // A forged kind the decoder rejects — but the frame itself is valid,
  // so the server answers instead of closing.
  NetRequest bogus;
  bogus.kind = static_cast<RequestKind>(99);
  StatusOr<NetResponse> got = client.Call(std::move(bogus));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->code, static_cast<uint32_t>(StatusCode::kInvalidArgument));
  // The connection survived: the next call works.
  StatusOr<NetResponse> health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->code, 0u);
}

TEST(NetServerTest, CorruptStreamClosesConnection) {
  auto stack = MakeServer();
  const int fd = RawConnect(stack->server->port());
  const std::string garbage = "this is definitely not a KJNP frame header....";
  ASSERT_GT(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL), 0);
  EXPECT_TRUE(WaitForPeerClose(fd, 5.0)) << "server kept a poisoned stream open";
  ::close(fd);
  EXPECT_GE(stack->metrics->counter("net.protocol_errors")->value(), 1);
}

TEST(NetServerTest, SlowLorisIdleTimeoutClosesPartialFrame) {
  ServerOptions options;
  options.idle_timeout_seconds = 0.2;
  auto stack = MakeServer(options);
  const int fd = RawConnect(stack->server->port());
  // A valid frame prefix, then silence.
  const std::string frame = net::WrapFrame(net::EncodeRequestPayload(SampleSearch()));
  ASSERT_GT(::send(fd, frame.data(), 10, MSG_NOSIGNAL), 0);
  EXPECT_TRUE(WaitForPeerClose(fd, 5.0)) << "idle sweep never closed the stalled stream";
  ::close(fd);
  EXPECT_GE(stack->metrics->counter("net.idle_closed")->value(), 1);
}

TEST(NetServerTest, BackpressurePausesReadsWithoutLosingResponses) {
  ServerOptions options;
  options.write_buffer_cap_bytes = 2048;  // tiny: stall quickly
  auto stack = MakeServer(options);
  const int fd = RawConnect(stack->server->port());
  // Pipeline many searches without reading a single response: the
  // server's write buffer fills and it stops reading; once we drain,
  // every request must still get its response, in order.
  constexpr int kPipelined = 200;
  std::string burst;
  for (int q = 0; q < kPipelined; ++q) {
    NetRequest request;
    request.id = static_cast<uint64_t>(q) + 1;
    request.kind = RequestKind::kSearch;
    request.query_tokens = QueryTokens(q);
    burst += net::WrapFrame(net::EncodeRequestPayload(request));
  }
  std::thread sender([fd, &burst]() {
    size_t sent = 0;
    while (sent < burst.size()) {
      const ssize_t n =
          ::send(fd, burst.data() + sent, burst.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        if (errno == EINTR) continue;
        // The kernel buffer filled because the server stopped reading —
        // keep pushing; the reader below drains the responses.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      sent += static_cast<size_t>(n);
    }
  });
  const std::vector<NetResponse> responses = ReadResponses(fd, kPipelined);
  sender.join();
  ::close(fd);
  ASSERT_EQ(responses.size(), static_cast<size_t>(kPipelined));
  for (int q = 0; q < kPipelined; ++q) {
    EXPECT_EQ(responses[static_cast<size_t>(q)].id, static_cast<uint64_t>(q) + 1);
  }
  ExpectServerTiesOut(*stack, kPipelined);
}

// A connection that keeps its socket full of searches must not hold its
// loop: the loop handles one recv (64 KiB) of a readable connection per
// turn, so between another connection's HEALTH frame arriving and its
// answer the loop runs at most the searches of two such reads.
TEST(NetServerTest, SearchFloodDoesNotStarveOtherConnections) {
  auto stack = MakeServer();  // one loop serves both connections
  NetRequest search;
  search.kind = RequestKind::kSearch;
  search.query_tokens = QueryTokens(0);
  const std::string frame = net::WrapFrame(net::EncodeRequestPayload(search));
  const int64_t frames_per_read = static_cast<int64_t>((64u << 10) / frame.size()) + 1;
  std::string burst;
  while (burst.size() < (256u << 10)) burst += frame;

  const int flood_fd = RawConnect(stack->server->port());
  std::atomic<bool> stop{false};
  std::thread sender([&] {
    size_t offset = 0;
    while (!stop.load()) {
      const ssize_t n = ::send(flood_fd, burst.data() + offset, burst.size() - offset,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        offset = (offset + static_cast<size_t>(n)) % burst.size();
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) return;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::thread reader([&] {  // keep the replies flowing so reads never stall
    char buf[64 << 10];
    while (!stop.load()) {
      const ssize_t n = ::recv(flood_fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) continue;
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) return;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  // Let the flood get past its first full read, and the second
  // connection be accepted.
  Counter* queries = stack->metrics->counter("router.queries");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (queries->value() < frames_per_read && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int health_fd = RawConnect(stack->server->port());
  while (stack->server->active_connections() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  struct timeval timeout = {10, 0};  // a starved HEALTH fails instead of hanging
  ::setsockopt(health_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  NetRequest health;
  health.id = 7;
  health.kind = RequestKind::kHealth;
  const std::string health_frame = net::WrapFrame(net::EncodeRequestPayload(health));
  const int64_t before = queries->value();
  const bool sent = ::send(health_fd, health_frame.data(), health_frame.size(),
                           MSG_NOSIGNAL) == static_cast<ssize_t>(health_frame.size());
  const std::vector<NetResponse> answer = ReadResponses(health_fd, 1);
  const int64_t searches_meanwhile = queries->value() - before;
  stop.store(true);
  sender.join();
  reader.join();
  ::close(health_fd);
  ::close(flood_fd);

  ASSERT_TRUE(sent);
  ASSERT_EQ(answer.size(), 1u) << "HEALTH went unanswered while another connection flooded";
  EXPECT_EQ(answer[0].id, 7u);
  EXPECT_EQ(answer[0].code, 0u);
  EXPECT_GE(before, frames_per_read) << "the flood never got going";
  // The rest of the read in progress when HEALTH arrived, plus at most
  // one more before the loop reaches it.
  EXPECT_LE(searches_meanwhile, 2 * frames_per_read);
}

// Connections take the loops in turn by arrival: on two loops the first
// and third share loop 0, the second gets loop 1. While the first
// connection's search is held at a closed shard gate, loop 0 is busy, so
// the second connection's HEALTH is answered and the third's is not.
TEST(NetServerTest, ConnectionsTakeTheLoopsInTurn) {
  ServerOptions options;
  options.num_loops = 2;
  auto stack = MakeServer(options);
  std::vector<int> fds;
  for (int c = 0; c < 3; ++c) fds.push_back(RawConnect(stack->server->port()));
  struct timeval timeout = {10, 0};  // an unanswered HEALTH fails instead of hanging
  ::setsockopt(fds[1], SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  auto send_frame = [](int fd, RequestKind kind, uint64_t id) {
    NetRequest request;
    request.id = id;
    request.kind = kind;
    if (kind == RequestKind::kSearch) request.query_tokens = QueryTokens(0);
    const std::string frame = net::WrapFrame(net::EncodeRequestPayload(request));
    return ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(frame.size());
  };

  stack->gates[0]->Close();
  const bool sent_search = send_frame(fds[0], RequestKind::kSearch, 1);
  if (sent_search) stack->gates[0]->WaitUntilHeld();
  const bool sent_second = send_frame(fds[1], RequestKind::kHealth, 2);
  const std::vector<NetResponse> second = ReadResponses(fds[1], 1);
  const bool sent_third = send_frame(fds[2], RequestKind::kHealth, 3);
  struct pollfd third_readable = {fds[2], POLLIN, 0};
  const int third_ready_while_held = ::poll(&third_readable, 1, 200);
  stack->gates[0]->Open();

  ASSERT_TRUE(sent_search && sent_second && sent_third);
  ASSERT_EQ(second.size(), 1u) << "the second connection shares the held loop";
  EXPECT_EQ(second[0].id, 2u);
  EXPECT_EQ(third_ready_while_held, 0) << "the third connection did not land on loop 0";
  const std::vector<NetResponse> first = ReadResponses(fds[0], 1);
  const std::vector<NetResponse> third = ReadResponses(fds[2], 1);
  for (int fd : fds) ::close(fd);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].code, 0u) << first[0].message;
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].id, 3u);
  ExpectServerTiesOut(*stack, 1);
}

TEST(NetServerTest, GracefulDrainAnswersEverythingRead) {
  auto stack = MakeServer();
  KJoinClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack->server->port()).ok());
  constexpr int kInFlight = 32;
  std::vector<std::future<StatusOr<NetResponse>>> futures;
  for (int q = 0; q < kInFlight; ++q) {
    auto promise = std::make_shared<std::promise<StatusOr<NetResponse>>>();
    futures.push_back(promise->get_future());
    NetRequest request;
    request.kind = RequestKind::kSearch;
    request.query_tokens = QueryTokens(q);
    client.CallAsync(std::move(request), [promise](StatusOr<NetResponse> result) {
      promise->set_value(std::move(result));
    });
  }
  // Wait until the server has read and dispatched every request, so the
  // drain below finds them all in flight.
  Counter* requests = stack->metrics->counter("net.requests");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (requests->value() < kInFlight && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(requests->value(), kInFlight);
  // SIGTERM semantics: async trigger, then drain. Every dispatched
  // request must get its real response — zero dropped acked requests.
  stack->server->RequestShutdown();
  stack->server->Wait();
  for (auto& future : futures) {
    StatusOr<NetResponse> result = future.get();
    ASSERT_TRUE(result.ok()) << "acked request dropped: " << result.status().ToString();
  }
  EXPECT_EQ(stack->server->active_connections(), 0);
  ExpectServerTiesOut(*stack, kInFlight);
}

// A Stop() that lands before the loop thread enters Run() must still stop
// the loop: a server shut down right after Start() stops loops whose
// threads may not have reached Run() yet, and joins them. The loop runs
// on its own thread under a bounded wait; if it does not return, a second
// Stop() releases it and the test fails instead of hanging.
TEST(EventLoopTest, StopBeforeRunReturns) {
  net::EventLoop loop;
  loop.Stop();
  std::promise<void> returned;
  std::future<void> done = returned.get_future();
  std::thread thread([&loop, &returned]() {
    loop.Run();
    returned.set_value();
  });
  const bool stopped = done.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  if (!stopped) loop.Stop();
  thread.join();
  EXPECT_TRUE(stopped) << "Run() did not see a Stop() issued before it started";
}

// Start, connect, shut down at once, 100 times over one index stack:
// each shutdown stops event loops whose threads have only just started.
// A shutdown that hangs cannot be released from here, so the cycles run
// on their own thread under a bounded wait that ends the process.
TEST(NetServerTest, ShutdownRightAfterStartReturns) {
  auto stack = MakeServer();
  // The cycles own the builder's token authority one server at a time.
  stack->server->Shutdown();
  stack->server.reset();
  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  std::thread cycles([&stack, &finished]() {
    for (int cycle = 0; cycle < 100; ++cycle) {
      ServerOptions options;
      options.num_loops = 2;
      KJoinServer server(stack->router.get(), stack->manager.get(),
                         Stack().prepared.builder.get(), stack->metrics.get(), options);
      if (!server.Start().ok()) {
        ADD_FAILURE() << "cycle " << cycle << ": Start failed";
        break;
      }
      KJoinClient client;
      EXPECT_TRUE(client.Connect("127.0.0.1", server.port()).ok()) << "cycle " << cycle;
      server.Shutdown();
    }
    finished.set_value();
  });
  if (done.wait_for(std::chrono::seconds(120)) != std::future_status::ready) {
    std::fprintf(stderr, "ShutdownRightAfterStartReturns: a start/shutdown cycle hung\n");
    std::_Exit(1);
  }
  cycles.join();
}

TEST(NetServerTest, ClientRecoversAfterServerDies) {
  auto first = MakeServer();
  KJoinClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", first->server->port()).ok());
  StatusOr<NetResponse> ok = client.Health();
  ASSERT_TRUE(ok.ok());
  first->server->Shutdown();
  // The dead connection surfaces as transport kUnavailable (possibly
  // after one in-flight call drains cleanly).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool saw_failure = false;
  while (!saw_failure && std::chrono::steady_clock::now() < deadline) {
    StatusOr<NetResponse> dead = client.Health();
    if (!dead.ok()) {
      EXPECT_TRUE(IsUnavailable(dead.status())) << dead.status().ToString();
      saw_failure = true;
    }
  }
  EXPECT_TRUE(saw_failure);
  first.reset();
  // A fresh server (new port): the same client reconnects and works.
  auto second = MakeServer();
  client.Disconnect();
  ASSERT_TRUE(client.Connect("127.0.0.1", second->server->port()).ok());
  StatusOr<NetResponse> revived = client.Health();
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ(revived->code, 0u);
}

// --------------------------------------------------------------- chaos

int CountOpenFds() {
  int count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

// Connection storm under injected accept/read/write faults: the event
// loops must neither wedge nor leak fds, and a clean client must work
// once the faults stop.
TEST(NetChaosTest, ConnectionStormWithInjectedFaultsNeverWedges) {
  if (!fault::Enabled()) {
    GTEST_SKIP() << "fault points compiled out (release preset)";
  }
  const int fds_before = CountOpenFds();
  {
    ServerOptions options;
    options.num_loops = 2;
    auto stack = MakeServer(options);
    fault::Scope scope;
    fault::SetSeed(2026);
    fault::Enable("net/accept", 0.2);
    fault::Enable("net/read", 0.05);
    fault::Enable("net/write", 0.05);
    constexpr int kThreads = 8;
    constexpr int kConnectionsPerThread = 6;
    std::atomic<int> successes{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, port = stack->server->port(), &successes]() {
        for (int c = 0; c < kConnectionsPerThread; ++c) {
          KJoinClient client;
          if (!client.Connect("127.0.0.1", port).ok()) continue;
          for (int q = 0; q < 4; ++q) {
            StatusOr<NetResponse> got =
                q % 2 == 0 ? client.Search(QueryTokens(t * 31 + c * 7 + q))
                           : client.Health();
            // Injected faults surface as transport errors; anything the
            // server actually answered must be well-formed.
            if (got.ok()) {
              successes.fetch_add(1);
            } else if (!IsUnavailable(got.status()) && !IsDataLoss(got.status())) {
              ADD_FAILURE() << "unexpected failure: " << got.status().ToString();
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    fault::DisarmAll();
    // The storm is over and the faults are gone: a clean client on a
    // clean connection must succeed — the loops never wedged.
    KJoinClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", stack->server->port()).ok());
    StatusOr<NetResponse> health = client.Health();
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    EXPECT_EQ(health->code, 0u);
    EXPECT_GT(successes.load(), 0);
    stack->server->Shutdown();
    EXPECT_EQ(stack->server->active_connections(), 0);
  }
  // Everything torn down: no fd may have leaked. (Exact equality: the
  // stack owned every socket, epoll, and eventfd it created.)
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int fds_after = CountOpenFds();
  while (fds_after > fds_before && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fds_after = CountOpenFds();
  }
  EXPECT_EQ(fds_after, fds_before);
}

}  // namespace
}  // namespace kjoin
