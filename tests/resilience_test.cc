// Resilience suite (docs/robustness.md): Status plumbing at the
// untrusted-input boundary, join deadlines / cancellation / resource
// guards with a quiescent pool, and the fault-injection harness. Runs
// under the tsan and asan presets as well as release (fault-point tests
// skip themselves when injection is compiled out).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/kjoin.h"
#include "data/benchmark_suite.h"
#include "data/dataset_io.h"
#include "hierarchy/dag.h"
#include "hierarchy/hierarchy_builder.h"
#include "hierarchy/hierarchy_io.h"
#include "text/tokenizer.h"

namespace kjoin {
namespace {

// ------------------------------------------------------------ Status

TEST(StatusTest, OkAndErrorBasics) {
  const Status ok = OkStatus();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_EQ(ok.ToString(), "OK");

  const Status bad = InvalidArgumentError("bad id");
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(IsInvalidArgument(bad));
  EXPECT_EQ(bad.message(), "bad id");
  EXPECT_EQ(bad.ToString(), "INVALID_ARGUMENT: bad id");

  EXPECT_TRUE(IsCancelled(CancelledError("x")));
  EXPECT_TRUE(IsDeadlineExceeded(DeadlineExceededError("x")));
  EXPECT_TRUE(IsNotFound(NotFoundError("x")));
  EXPECT_TRUE(IsResourceExhausted(ResourceExhaustedError("x")));
  EXPECT_TRUE(IsDataLoss(DataLossError("x")));
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded), "DEADLINE_EXCEEDED");
}

TEST(StatusTest, UpdateKeepsFirstError) {
  Status status = OkStatus();
  status.Update(OkStatus());
  EXPECT_TRUE(status.ok());
  status.Update(CancelledError("first"));
  status.Update(InvalidArgumentError("second"));
  EXPECT_TRUE(IsCancelled(status));
  EXPECT_EQ(status.message(), "first");
}

Status ReturnIfErrorTwice(const Status& first, const Status& second, bool* reached_end) {
  KJOIN_RETURN_IF_ERROR(first);
  KJOIN_RETURN_IF_ERROR(second);
  *reached_end = true;
  return OkStatus();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  bool reached = false;
  EXPECT_TRUE(ReturnIfErrorTwice(OkStatus(), OkStatus(), &reached).ok());
  EXPECT_TRUE(reached);

  reached = false;
  const Status propagated =
      ReturnIfErrorTwice(OkStatus(), DataLossError("torn page"), &reached);
  EXPECT_TRUE(IsDataLoss(propagated));
  EXPECT_FALSE(reached);
}

StatusOr<int> DoubleOrFail(StatusOr<int> input) {
  KJOIN_ASSIGN_OR_RETURN(const int value, std::move(input));
  return value * 2;
}

TEST(StatusTest, AssignOrReturnMacro) {
  const StatusOr<int> doubled = DoubleOrFail(21);
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(*doubled, 42);

  const StatusOr<int> failed = DoubleOrFail(ResourceExhaustedError("no ints left"));
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(IsResourceExhausted(failed.status()));
}

TEST(StatusTest, StatusOrMirrorsOptionalAccessors) {
  StatusOr<std::string> value = std::string("payload");
  EXPECT_TRUE(value.has_value());
  EXPECT_TRUE(value.status().ok());
  EXPECT_EQ(*value, "payload");
  EXPECT_EQ(value->size(), 7u);

  const StatusOr<std::string> error = NotFoundError("gone");
  EXPECT_FALSE(error.has_value());
  EXPECT_TRUE(IsNotFound(error.status()));
}

// ------------------------------------------------- untrusted parsers

TEST(ParseHierarchyTest, ErrorsCarrySourceAndLine) {
  const auto arity = ParseHierarchy("0\t-1\tRoot\n1\t0", "tree.txt");
  ASSERT_FALSE(arity.ok());
  EXPECT_TRUE(IsInvalidArgument(arity.status()));
  EXPECT_NE(arity.status().message().find("tree.txt:2:"), std::string::npos)
      << arity.status();

  // Comments and blank lines still count toward line numbers.
  const auto late = ParseHierarchy("# header\n\n0\t-1\tRoot\n1\tx\tA", "taxo.tsv");
  ASSERT_FALSE(late.ok());
  EXPECT_NE(late.status().message().find("taxo.tsv:4:"), std::string::npos)
      << late.status();
}

TEST(ParseHierarchyTest, RejectsMalformedStructures) {
  EXPECT_TRUE(IsInvalidArgument(ParseHierarchy("0\t-1\tRoot\n2\t0\tA").status()));
  EXPECT_TRUE(IsInvalidArgument(ParseHierarchy("0\t0\tRoot").status()));
  EXPECT_TRUE(IsInvalidArgument(ParseHierarchy("0\t-1\tRoot\n1\t2\tA").status()));
  EXPECT_TRUE(IsInvalidArgument(ParseHierarchy("").status()));
  const auto utf8 = ParseHierarchy("0\t-1\t\xFF\xFE", "bin.txt");
  ASSERT_FALSE(utf8.ok());
  EXPECT_NE(utf8.status().message().find("not valid UTF-8"), std::string::npos);
}

TEST(ParseDatasetTest, ErrorsCarryNameAndLine) {
  const auto bad_cluster = ParseDataset("R\tabc\ttok", "mini.tsv");
  ASSERT_FALSE(bad_cluster.ok());
  EXPECT_TRUE(IsInvalidArgument(bad_cluster.status()));
  EXPECT_NE(bad_cluster.status().message().find("mini.tsv:1:"), std::string::npos)
      << bad_cluster.status();

  const auto overflow = ParseDataset("R\t99999999999999\ttok", "mini.tsv");
  ASSERT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().message().find("bad cluster"), std::string::npos);

  const auto utf8 = ParseDataset("R\t1\tok\t\xC0\x80", "mini.tsv");
  ASSERT_FALSE(utf8.ok());
  EXPECT_NE(utf8.status().message().find("not valid UTF-8"), std::string::npos);

  EXPECT_TRUE(IsInvalidArgument(ParseDataset("X\t1\ta").status()));
  EXPECT_TRUE(IsInvalidArgument(ParseDataset("S\tonly-two").status()));
}

TEST(DatasetIoTest, MissingFilesAreNotFoundNotFatal) {
  EXPECT_TRUE(IsNotFound(ReadHierarchyFile("/nonexistent/dir/tree.txt").status()));
  EXPECT_TRUE(IsNotFound(ReadDatasetFile("/nonexistent/dir/data.tsv").status()));
  const Hierarchy tree = MakePoiBenchmark(30).hierarchy;
  EXPECT_TRUE(IsNotFound(WriteHierarchyFile(tree, "/nonexistent/dir/tree.txt")));
}

TEST(DagTest, TryAddEdgeReportsBadEdges) {
  Dag dag("root");
  const int32_t a = dag.AddNode("a");
  EXPECT_TRUE(IsInvalidArgument(dag.TryAddEdge(0, 99)));
  EXPECT_TRUE(IsInvalidArgument(dag.TryAddEdge(-1, a)));
  EXPECT_TRUE(IsInvalidArgument(dag.TryAddEdge(a, a)));
  EXPECT_TRUE(dag.TryAddEdge(0, a).ok());
  EXPECT_TRUE(dag.TryAddEdge(0, a).ok());  // duplicate edge is a no-op
}

TEST(DagTest, ConvertReportsCycleOrphanAndOverflowCodes) {
  Dag cyclic("root");
  const int32_t a = cyclic.AddNode("a");
  const int32_t b = cyclic.AddNode("b");
  cyclic.AddEdge(0, a);
  cyclic.AddEdge(a, b);
  cyclic.AddEdge(b, a);
  const auto cycle = ConvertDagToTree(cyclic);
  ASSERT_FALSE(cycle.ok());
  EXPECT_TRUE(IsInvalidArgument(cycle.status()));
  EXPECT_NE(cycle.status().message().find("cycle"), std::string::npos) << cycle.status();

  Dag orphaned("root");
  orphaned.AddNode("island");
  const auto orphan = ConvertDagToTree(orphaned);
  ASSERT_FALSE(orphan.ok());
  EXPECT_TRUE(IsInvalidArgument(orphan.status()));
  EXPECT_NE(orphan.status().message().find("unreachable"), std::string::npos);

  // A diamond ladder doubles the unfolded tree per level; 40 levels
  // overflow any sane bound long before memory does.
  Dag ladder("root");
  int32_t top = 0;
  for (int level = 0; level < 40; ++level) {
    const int32_t left = ladder.AddNode("l");
    const int32_t right = ladder.AddNode("r");
    const int32_t join = ladder.AddNode("j");
    ladder.AddEdge(top, left);
    ladder.AddEdge(top, right);
    ladder.AddEdge(left, join);
    ladder.AddEdge(right, join);
    top = join;
  }
  const auto blown = ConvertDagToTree(ladder, /*max_tree_nodes=*/100000);
  ASSERT_FALSE(blown.ok());
  EXPECT_TRUE(IsResourceExhausted(blown.status()));
}

TEST(HierarchyBuilderTest, CheckedFactoriesReturnStatus) {
  HierarchyBuilder builder("root");
  EXPECT_TRUE(IsInvalidArgument(builder.TryAddChild(99, "child").status()));
  const StatusOr<NodeId> child = builder.TryAddChild(0, "child");
  ASSERT_TRUE(child.ok());
  EXPECT_EQ(*child, 1);

  EXPECT_TRUE(IsInvalidArgument(
      BuildHierarchyChecked({kInvalidNode, 0}, {"root"}).status()));
  EXPECT_TRUE(IsInvalidArgument(BuildHierarchyChecked({0}, {"root"}).status()));
  EXPECT_TRUE(
      IsInvalidArgument(BuildHierarchyChecked({kInvalidNode, 2}, {"r", "a"}).status()));
  const auto good = BuildHierarchyChecked({kInvalidNode, 0, 0}, {"r", "a", "b"});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->num_nodes(), 3);
}

TEST(TokenizerTest, CheckedTokenizeRejectsBadInputAndLimits) {
  Tokenizer plain;
  const auto ok = plain.TokenizeChecked("Pizza, Salad");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, plain.Tokenize("Pizza, Salad"));

  EXPECT_TRUE(IsInvalidArgument(plain.TokenizeChecked("caf\xC3 broken").status()));

  TokenizerOptions limits;
  limits.max_tokens = 2;
  const Tokenizer capped(limits);
  EXPECT_TRUE(IsResourceExhausted(capped.TokenizeChecked("a b c").status()));
  EXPECT_TRUE(capped.TokenizeChecked("a b").ok());

  TokenizerOptions length;
  length.max_token_length = 4;
  const Tokenizer short_only(length);
  EXPECT_TRUE(IsResourceExhausted(short_only.TokenizeChecked("tiny enormous").status()));
}

TEST(StringUtilTest, ValidatesUtf8Strictly) {
  EXPECT_TRUE(IsValidUtf8("plain ascii"));
  EXPECT_TRUE(IsValidUtf8("caf\xC3\xA9"));                // U+00E9
  EXPECT_TRUE(IsValidUtf8("\xE2\x82\xAC"));               // U+20AC
  EXPECT_TRUE(IsValidUtf8("\xF0\x9F\x8D\x95"));           // U+1F355
  EXPECT_FALSE(IsValidUtf8("\xC0\x80"));                  // overlong NUL
  EXPECT_FALSE(IsValidUtf8("\xED\xA0\x80"));              // surrogate
  EXPECT_FALSE(IsValidUtf8("\xF5\x80\x80\x80"));          // > U+10FFFF
  EXPECT_FALSE(IsValidUtf8("\xE2\x82"));                  // truncated
  EXPECT_FALSE(IsValidUtf8("\x80"));                      // bare continuation
}

// ---------------------------------------------- join deadlines / cancel

struct JoinWorkload {
  BenchmarkData data;
  PreparedObjects prepared;
  std::vector<std::pair<int32_t, int32_t>> reference_pairs;
};

KJoinOptions ControlOptions(int threads) {
  KJoinOptions options;
  options.delta = 0.8;
  options.tau = 0.85;
  options.num_threads = threads;
  return options;
}

// Fig.14-style POI workload, built once; big enough that a millisecond
// deadline always lands mid-join on any machine this suite runs on.
const JoinWorkload& PoiWorkload() {
  static const JoinWorkload* workload = [] {
    BenchmarkData data = MakePoiBenchmark(2000, /*seed=*/77);
    PreparedObjects prepared =
        BuildObjects(data.hierarchy, data.dataset, /*multi_mapping=*/false);
    const KJoin join(data.hierarchy, ControlOptions(1));
    std::vector<std::pair<int32_t, int32_t>> reference =
        join.SelfJoin(prepared.objects).pairs;
    return new JoinWorkload{std::move(data), std::move(prepared), std::move(reference)};
  }();
  return *workload;
}

TEST(JoinControlTest, DefaultControlMatchesLegacyJoin) {
  const JoinWorkload& workload = PoiWorkload();
  const KJoin join(workload.data.hierarchy, ControlOptions(2));
  JoinResult result;
  const Status status = join.SelfJoin(workload.prepared.objects, JoinControl{}, &result);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(result.pairs, workload.reference_pairs);
  EXPECT_EQ(result.stats.stopped_phase, JoinPhase::kNone);
  EXPECT_EQ(result.stats.control_polls, 0);
  EXPECT_EQ(result.stats.verify_batches, 1);
  EXPECT_EQ(result.stats.budget_spills, 0);
}

TEST(JoinControlTest, MillisecondDeadlineTripsAcrossThreadCounts) {
  const JoinWorkload& workload = PoiWorkload();
  for (int threads : {1, 2, 8}) {
    const KJoin join(workload.data.hierarchy, ControlOptions(threads));
    JoinControl control;
    control.deadline_seconds = 1e-3;
    JoinResult result;
    const Status status = join.SelfJoin(workload.prepared.objects, control, &result);
    EXPECT_TRUE(IsDeadlineExceeded(status)) << "threads=" << threads << ": " << status;
    EXPECT_NE(result.stats.stopped_phase, JoinPhase::kNone) << "threads=" << threads;
    EXPECT_GT(result.stats.control_polls, 0) << "threads=" << threads;
    // Partial pairs are a prefix-closed subset of the full answer.
    EXPECT_LT(result.pairs.size(), workload.reference_pairs.size());

    // The pool must be drained and reusable: the same instance still
    // computes the exact join afterwards.
    const JoinResult after = join.SelfJoin(workload.prepared.objects);
    EXPECT_EQ(after.pairs, workload.reference_pairs) << "threads=" << threads;
  }
}

TEST(JoinControlTest, PreCancelledTokenStopsInPrepare) {
  const JoinWorkload& workload = PoiWorkload();
  const KJoin join(workload.data.hierarchy, ControlOptions(2));
  CancelToken token;
  token.Cancel();
  JoinControl control;
  control.cancel_token = &token;
  JoinResult result;
  const Status status = join.SelfJoin(workload.prepared.objects, control, &result);
  EXPECT_TRUE(IsCancelled(status)) << status;
  EXPECT_EQ(result.stats.stopped_phase, JoinPhase::kPrepare);
  EXPECT_TRUE(result.pairs.empty());

  // Reusable token: reset and join to completion.
  token.Reset();
  const Status again = join.SelfJoin(workload.prepared.objects, control, &result);
  ASSERT_TRUE(again.ok()) << again;
  EXPECT_EQ(result.pairs, workload.reference_pairs);
}

TEST(JoinControlTest, WatchdogCancelMidJoin) {
  const JoinWorkload& workload = PoiWorkload();
  const KJoin join(workload.data.hierarchy, ControlOptions(2));
  CancelToken token;
  JoinControl control;
  control.cancel_token = &token;
  std::thread watchdog([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.Cancel();
  });
  JoinResult result;
  const Status status = join.SelfJoin(workload.prepared.objects, control, &result);
  watchdog.join();
  if (status.ok()) {
    // The join beat the watchdog (possible on a fast machine); it must
    // then be the full, correct answer.
    EXPECT_EQ(result.pairs, workload.reference_pairs);
  } else {
    EXPECT_TRUE(IsCancelled(status)) << status;
    EXPECT_LE(result.pairs.size(), workload.reference_pairs.size());
  }
}

TEST(JoinControlTest, OversizedCollectionIsInvalidArgumentViaFault) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const JoinWorkload& workload = PoiWorkload();
  const KJoin join(workload.data.hierarchy, ControlOptions(1));
  fault::Scope scope;
  fault::Enable("kjoin/id_space");
  JoinResult result;
  const Status status = join.SelfJoin(workload.prepared.objects, JoinControl{}, &result);
  EXPECT_TRUE(IsInvalidArgument(status)) << status;
  EXPECT_NE(status.message().find("object-id space"), std::string::npos);
  EXPECT_NE(status.message().find(std::to_string(workload.prepared.objects.size())),
            std::string::npos)
      << "message must carry the offending count: " << status;
}

// ------------------------------------------------------ resource guards

// 60 copies of one record: probe p emits exactly p candidates, so caps
// and budgets trip deterministically.
struct DupWorkload {
  BenchmarkData data;
  Dataset dups;
  PreparedObjects prepared;
  std::vector<std::pair<int32_t, int32_t>> reference_pairs;
};

const DupWorkload& DuplicateWorkload() {
  static const DupWorkload* workload = [] {
    BenchmarkData data = MakePoiBenchmark(50, /*seed=*/9);
    Dataset dups;
    dups.name = "dups";
    dups.synonyms = data.dataset.synonyms;
    const Record base = data.dataset.records.front();
    for (int i = 0; i < 60; ++i) {
      Record record = base;
      record.id = i;
      record.cluster = 0;
      dups.records.push_back(std::move(record));
    }
    PreparedObjects prepared =
        BuildObjects(data.hierarchy, dups, /*multi_mapping=*/false);
    const KJoin join(data.hierarchy, ControlOptions(1));
    std::vector<std::pair<int32_t, int32_t>> reference =
        join.SelfJoin(prepared.objects).pairs;
    return new DupWorkload{std::move(data), std::move(dups), std::move(prepared),
                           std::move(reference)};
  }();
  return *workload;
}

TEST(ResourceGuardTest, DuplicateWorkloadIsDense) {
  // Sanity: identical records must all pair up, or the guard tests below
  // would pass vacuously.
  const DupWorkload& workload = DuplicateWorkload();
  EXPECT_EQ(workload.reference_pairs.size(), 60u * 59u / 2u);
}

TEST(ResourceGuardTest, PerProbeCapTripsOnHubObjects) {
  const DupWorkload& workload = DuplicateWorkload();
  for (int threads : {1, 2}) {
    const KJoin join(workload.data.hierarchy, ControlOptions(threads));
    JoinControl control;
    control.max_candidates_per_probe = 10;
    JoinResult result;
    const Status status = join.SelfJoin(workload.prepared.objects, control, &result);
    EXPECT_TRUE(IsResourceExhausted(status)) << "threads=" << threads << ": " << status;
    EXPECT_NE(status.message().find("max_candidates_per_probe"), std::string::npos);
    EXPECT_EQ(result.stats.stopped_phase, JoinPhase::kFilter);

    // Pool reusable after the trip.
    EXPECT_EQ(join.SelfJoin(workload.prepared.objects).pairs, workload.reference_pairs);
  }
}

TEST(ResourceGuardTest, ByteBudgetSpillsVerificationAndPreservesResults) {
  const DupWorkload& workload = DuplicateWorkload();
  for (int threads : {1, 2}) {
    const KJoin join(workload.data.hierarchy, ControlOptions(threads));
    const JoinResult unbudgeted = join.SelfJoin(workload.prepared.objects);
    JoinControl control;
    control.candidate_byte_budget = 64 * static_cast<int64_t>(sizeof(std::pair<int32_t, int32_t>));
    JoinResult result;
    const Status status = join.SelfJoin(workload.prepared.objects, control, &result);
    ASSERT_TRUE(status.ok()) << "threads=" << threads << ": " << status;
    EXPECT_EQ(result.pairs, workload.reference_pairs) << "threads=" << threads;
    EXPECT_GT(result.stats.budget_spills, 0) << "threads=" << threads;
    EXPECT_GT(result.stats.verify_batches, 1) << "threads=" << threads;
    EXPECT_EQ(result.stats.stopped_phase, JoinPhase::kNone);
    // Chunked probing screens exactly the pairs one unbudgeted pass does.
    EXPECT_EQ(result.stats.candidates, unbudgeted.stats.candidates) << "threads=" << threads;
    EXPECT_EQ(result.stats.size_skipped, unbudgeted.stats.size_skipped)
        << "threads=" << threads;
    EXPECT_EQ(result.stats.count_filtered, unbudgeted.stats.count_filtered)
        << "threads=" << threads;
    EXPECT_EQ(result.stats.sketch_filtered, unbudgeted.stats.sketch_filtered)
        << "threads=" << threads;
  }
}

TEST(ResourceGuardTest, SingleProbeOverflowingBudgetIsExhausted) {
  const DupWorkload& workload = DuplicateWorkload();
  const KJoin join(workload.data.hierarchy, ControlOptions(1));
  JoinControl control;
  // 4 buffered pairs: probe 4 alone emits 4 >= 4, so after the spill
  // ladder reaches single-probe chunks the budget is declared unholdable.
  control.candidate_byte_budget = 4 * static_cast<int64_t>(sizeof(std::pair<int32_t, int32_t>));
  JoinResult result;
  const Status status = join.SelfJoin(workload.prepared.objects, control, &result);
  EXPECT_TRUE(IsResourceExhausted(status)) << status;
  EXPECT_NE(status.message().find("candidate_byte_budget"), std::string::npos) << status;
  // Pool reusable after the trip.
  EXPECT_EQ(join.SelfJoin(workload.prepared.objects).pairs, workload.reference_pairs);
}

TEST(ResourceGuardTest, VerifierAllocationFailureSurfacesAsStatus) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const DupWorkload& workload = DuplicateWorkload();
  for (int threads : {1, 2}) {
    const KJoin join(workload.data.hierarchy, ControlOptions(threads));
    fault::Scope scope;
    fault::Enable("verifier/scratch_alloc");
    JoinResult result;
    const Status status = join.SelfJoin(workload.prepared.objects, JoinControl{}, &result);
    EXPECT_TRUE(IsResourceExhausted(status)) << "threads=" << threads << ": " << status;
    EXPECT_EQ(result.stats.stopped_phase, JoinPhase::kVerify);
    fault::DisarmAll();
    // The thrown std::bad_alloc unwound through BuildGroups without
    // poisoning its thread-local scratch: the same pool verifies cleanly.
    EXPECT_EQ(join.SelfJoin(workload.prepared.objects).pairs, workload.reference_pairs);
  }
}

// ------------------------------------------------------ fault injection

TEST(FaultInjectionTest, RegistryCountsHitsAndCapsFires) {
  fault::Scope scope;
  fault::Enable("test/point", /*probability=*/1.0, /*max_fires=*/2);
  EXPECT_TRUE(fault::ShouldFail("test/point"));
  EXPECT_TRUE(fault::ShouldFail("test/point"));
  EXPECT_FALSE(fault::ShouldFail("test/point"));  // capped
  EXPECT_FALSE(fault::ShouldFail("never/armed"));

  const std::vector<fault::FaultPointStats> points = fault::ArmedPoints();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].name, "test/point");
  EXPECT_EQ(points[0].hits, 3);
  EXPECT_EQ(points[0].fires, 2);
}

TEST(FaultInjectionTest, SeededProbabilisticFiresAreReproducible) {
  fault::Scope scope;
  auto draw_pattern = [] {
    fault::SetSeed(42);
    fault::Enable("test/flaky", /*probability=*/0.5);
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) pattern.push_back(fault::ShouldFail("test/flaky"));
    fault::Disable("test/flaky");
    return pattern;
  };
  const std::vector<bool> first = draw_pattern();
  const std::vector<bool> second = draw_pattern();
  EXPECT_EQ(first, second);
  // A 0.5 coin that lands 64 identical tosses is a broken PRNG.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
}

TEST(FaultInjectionTest, EnableFromSpecParsesAndRejects) {
  fault::Scope scope;
  ASSERT_TRUE(fault::EnableFromSpec("a/b, c/d=0.5 ,e/f=1x3").ok());
  const std::vector<fault::FaultPointStats> points = fault::ArmedPoints();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].name, "a/b");
  EXPECT_EQ(points[1].name, "c/d");
  EXPECT_EQ(points[2].name, "e/f");

  EXPECT_TRUE(IsInvalidArgument(fault::EnableFromSpec("p=nope")));
  EXPECT_TRUE(IsInvalidArgument(fault::EnableFromSpec("p=2.0")));
  EXPECT_TRUE(IsInvalidArgument(fault::EnableFromSpec("p=0.5x-1")));
  EXPECT_TRUE(IsInvalidArgument(fault::EnableFromSpec("=0.5")));
}

TEST(FaultInjectionTest, IoFaultPointsSurfaceAsCleanStatuses) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  fault::Scope scope;
  const std::string tree_path = testing::TempDir() + "/kjoin_resilience_tree.txt";
  const std::string data_path = testing::TempDir() + "/kjoin_resilience_data.tsv";
  const BenchmarkData data = MakePoiBenchmark(30);
  ASSERT_TRUE(WriteHierarchyFile(data.hierarchy, tree_path).ok());
  ASSERT_TRUE(WriteDatasetFile(data.dataset, data_path).ok());

  fault::Enable("hierarchy_io/open_fail");
  EXPECT_TRUE(IsNotFound(ReadHierarchyFile(tree_path).status()));
  fault::DisarmAll();

  fault::Enable("hierarchy_io/short_read");
  EXPECT_TRUE(IsDataLoss(ReadHierarchyFile(tree_path).status()));
  fault::DisarmAll();

  fault::Enable("hierarchy_io/write_fail");
  EXPECT_TRUE(IsDataLoss(WriteHierarchyFile(data.hierarchy, tree_path)));
  fault::DisarmAll();

  fault::Enable("dataset_io/open_fail");
  EXPECT_TRUE(IsNotFound(ReadDatasetFile(data_path).status()));
  fault::DisarmAll();

  fault::Enable("dataset_io/short_read");
  EXPECT_TRUE(IsDataLoss(ReadDatasetFile(data_path).status()));
  fault::DisarmAll();

  fault::Enable("dataset_io/write_fail");
  EXPECT_TRUE(IsDataLoss(WriteDatasetFile(data.dataset, data_path)));
  fault::DisarmAll();

  fault::Enable("dag/cycle_check");
  Dag dag("root");
  const int32_t a = dag.AddNode("a");
  dag.AddEdge(0, a);
  EXPECT_TRUE(IsInvalidArgument(ConvertDagToTree(dag).status()));
  fault::DisarmAll();

  // Everything recovers once disarmed.
  EXPECT_TRUE(ReadHierarchyFile(tree_path).ok());
  EXPECT_TRUE(ReadDatasetFile(data_path).ok());
  EXPECT_TRUE(ConvertDagToTree(dag).ok());
}

TEST(FaultInjectionTest, MaxFiresLimitsBlastRadius) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  fault::Scope scope;
  const std::string tree_path = testing::TempDir() + "/kjoin_resilience_retry.txt";
  const BenchmarkData data = MakePoiBenchmark(30);
  ASSERT_TRUE(WriteHierarchyFile(data.hierarchy, tree_path).ok());

  // One injected failure, then clean: a retry loop must succeed on the
  // second attempt.
  fault::Enable("hierarchy_io/short_read", /*probability=*/1.0, /*max_fires=*/1);
  EXPECT_TRUE(IsDataLoss(ReadHierarchyFile(tree_path).status()));
  EXPECT_TRUE(ReadHierarchyFile(tree_path).ok());
}

// ------------------------------------------------------------- logging

TEST(LoggingTest, MinSeverityIsThreadSafeUnderContention) {
  const LogSeverity original = MinLogSeverity();
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&stop, t] {
      const LogSeverity mine = t == 0 ? LogSeverity::kInfo : LogSeverity::kWarning;
      while (!stop.load(std::memory_order_relaxed)) SetMinLogSeverity(mine);
    });
  }
  bool all_valid = true;
  for (int i = 0; i < 20000; ++i) {
    const LogSeverity seen = MinLogSeverity();
    all_valid &= seen == LogSeverity::kInfo || seen == LogSeverity::kWarning ||
                 seen == original;
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  EXPECT_TRUE(all_valid) << "MinLogSeverity returned a torn/invalid value";
  SetMinLogSeverity(original);
}

}  // namespace
}  // namespace kjoin
