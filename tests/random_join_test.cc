// Randomized differential testing: fresh random hierarchies, datasets and
// join configurations each trial, always compared against the exhaustive
// oracle. Complements the fixed-seed sweep in kjoin_test.cc with broader
// configuration-space coverage.

#include <gtest/gtest.h>

#include <set>

#include "baselines/naive_join.h"
#include "common/rng.h"
#include "core/kjoin.h"
#include "data/benchmark_suite.h"
#include "data/generator.h"
#include "hierarchy/hierarchy_generator.h"

namespace kjoin {
namespace {

using PairSet = std::set<std::pair<int32_t, int32_t>>;

PairSet ToSet(const std::vector<std::pair<int32_t, int32_t>>& pairs) {
  PairSet set;
  for (auto [a, b] : pairs) {
    if (a > b) std::swap(a, b);
    set.emplace(a, b);
  }
  return set;
}

class RandomJoinTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RandomJoinTest, RandomConfigurationMatchesOracle) {
  Rng rng(GetParam());

  // Random hierarchy shape.
  HierarchyGenParams tree_params;
  tree_params.num_nodes = 150 + static_cast<int64_t>(rng.NextUint64(400));
  tree_params.height = 4 + static_cast<int>(rng.NextUint64(4));
  tree_params.avg_fanout = 3.0 + rng.NextDouble() * 3.0;
  tree_params.max_fanout = 8 + static_cast<int>(rng.NextUint64(8));
  tree_params.seed = rng.NextUint64();
  const Hierarchy tree = GenerateHierarchy(tree_params);

  // Random dataset shape.
  RecordGenParams data_params;
  data_params.num_records = 80 + static_cast<int64_t>(rng.NextUint64(60));
  data_params.avg_elements = 4 + static_cast<int>(rng.NextUint64(4));
  data_params.min_elements = 2;
  data_params.max_elements = data_params.avg_elements + 4;
  data_params.min_depth = 2;
  data_params.max_depth = tree_params.height;
  data_params.duplicate_fraction = 0.3 + rng.NextDouble() * 0.4;
  data_params.unmatched_token_rate = rng.NextDouble() * 0.3;
  data_params.typo_rate = rng.NextDouble() * 0.3;
  data_params.sibling_swap_rate = rng.NextDouble() * 0.3;
  data_params.synonym_rate = rng.NextDouble() * 0.3;
  data_params.zipf_exponent = rng.NextDouble() * 2.0;
  data_params.seed = rng.NextUint64();
  const Dataset dataset = DatasetGenerator(tree, data_params).Generate("random");

  // Random configuration.
  KJoinOptions options;
  options.delta = 0.5 + 0.1 * static_cast<double>(rng.NextUint64(5));
  // Steps of 0.05 put more sizes on fractional overlap boundaries (0.55
  // and 0.65 included), where the probe-side size and count bounds sit
  // closest to the verifier's accept rule.
  options.tau = 0.5 + 0.05 * static_cast<double>(rng.NextUint64(9));
  const SignatureScheme schemes[] = {SignatureScheme::kNode, SignatureScheme::kShallowPath,
                                     SignatureScheme::kDeepPath};
  options.scheme = schemes[rng.NextUint64(3)];
  options.weighted_prefix =
      options.scheme == SignatureScheme::kDeepPath && rng.NextBool(0.5);
  const VerifyMode modes[] = {VerifyMode::kBasic, VerifyMode::kSubGraph,
                              VerifyMode::kAdaptive};
  options.verify_mode = modes[rng.NextUint64(3)];
  const SetMetric set_metrics[] = {SetMetric::kJaccard, SetMetric::kDice, SetMetric::kCosine};
  options.set_metric = set_metrics[rng.NextUint64(3)];
  options.element_metric =
      rng.NextBool(0.3) ? ElementMetric::kWuPalmer : ElementMetric::kKJoin;
  options.plus_mode = rng.NextBool(0.5);
  options.count_pruning = rng.NextBool(0.8);
  options.weighted_count_pruning = rng.NextBool(0.8);
  options.num_threads = 1 + static_cast<int>(rng.NextUint64(4));

  const PreparedObjects prepared =
      BuildObjects(tree, dataset, options.plus_mode, options.delta);

  const JoinResult result = KJoin(tree, options).SelfJoin(prepared.objects);
  const JoinResult oracle = NaiveJoin(tree, options).SelfJoin(prepared.objects);

  const PairSet got = ToSet(result.pairs);
  const PairSet expected = ToSet(oracle.pairs);
  for (const auto& pair : expected) {
    ASSERT_TRUE(got.count(pair))
        << "missing pair (" << pair.first << ", " << pair.second << ") with delta "
        << options.delta << " tau " << options.tau << " scheme "
        << static_cast<int>(options.scheme) << " mode "
        << static_cast<int>(options.verify_mode) << " set metric "
        << static_cast<int>(options.set_metric) << " plus " << options.plus_mode;
  }
  for (const auto& pair : got) {
    ASSERT_TRUE(expected.count(pair))
        << "spurious pair (" << pair.first << ", " << pair.second << ")";
  }

  // Counter tie-out: only pairs the probe-side bounds pass are verified,
  // the count bound runs in the probe exactly when the verifier would
  // apply it on the pure-mode partition, and then leaves it nothing.
  EXPECT_EQ(result.stats.verify.pairs_verified, result.stats.candidates);
  if (options.count_pruning && !options.plus_mode) {
    EXPECT_EQ(result.stats.verify.pruned_by_count, 0);
  } else {
    EXPECT_EQ(result.stats.count_filtered, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomJoinTest,
                         testing::Values(101u, 202u, 303u, 404u, 505u, 606u, 707u, 808u,
                                         909u, 1010u, 1111u, 1212u, 1313u, 1414u, 1515u,
                                         1616u));

}  // namespace
}  // namespace kjoin
