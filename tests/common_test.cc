// Tests for src/common: rng, string_util, flags, timer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "common/flags.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace kjoin {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(123);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextUint64(kBuckets)];
  for (int bucket = 0; bucket < kBuckets; ++bucket) {
    EXPECT_NEAR(counts[bucket], kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, NextIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextInt(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoolEdgeCases) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.NextBool(0.3);
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(RngTest, NextWeightedRespectsWeights) {
  Rng rng(21);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) ++counts[rng.NextWeighted({1.0, 2.0, 7.0})];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(RngTest, NextWeightedSkipsZeroWeights) {
  Rng rng(33);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.NextWeighted({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(8);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("BurgerKing42"), "burgerking42");
  EXPECT_EQ(ToLowerAscii(""), "");
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  const auto pieces = Split("a,,b,", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[2], "b");
  EXPECT_EQ(pieces[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  const auto pieces = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "foo");
  EXPECT_EQ(pieces[2], "baz");
}

TEST(StringUtilTest, JoinRoundTrips) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  x y \t"), "x y");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("prefix filter", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(EndsWith("kjoin.cc", ".cc"));
  EXPECT_FALSE(EndsWith("cc", "kjoin.cc"));
}

TEST(StringUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-1234567), "-1,234,567");
}

TEST(FlagsTest, ParsesAllTypes) {
  FlagSet flags("test");
  int64_t* n = flags.Int("n", 10, "count");
  double* tau = flags.Double("tau", 0.5, "threshold");
  bool* verbose = flags.Bool("verbose", false, "chatty");
  std::string* name = flags.String("name", "poi", "dataset");

  const char* argv[] = {"prog", "--n=42", "--tau", "0.9", "--verbose", "--name=tweet"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(*n, 42);
  EXPECT_DOUBLE_EQ(*tau, 0.9);
  EXPECT_TRUE(*verbose);
  EXPECT_EQ(*name, "tweet");
}

TEST(FlagsTest, NegatedBool) {
  FlagSet flags("test");
  bool* pruning = flags.Bool("pruning", true, "");
  const char* argv[] = {"prog", "--nopruning"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)));
  EXPECT_FALSE(*pruning);
}

TEST(FlagsTest, RejectsUnknownFlag) {
  FlagSet flags("test");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagsTest, RejectsBadValue) {
  FlagSet flags("test");
  flags.Int("n", 1, "");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagsTest, RejectsStrayArgument) {
  {
    // A bool flag never consumes the next word, so "--plus false" must
    // fail instead of silently turning K-Join+ on.
    FlagSet flags("test");
    flags.Bool("plus", false, "");
    const char* argv[] = {"prog", "--plus", "false"};
    EXPECT_FALSE(flags.Parse(3, const_cast<char**>(argv)));
  }
  {
    FlagSet flags("test");
    bool* plus = flags.Bool("plus", true, "");
    const char* argv[] = {"prog", "--plus=false"};
    ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)));
    EXPECT_FALSE(*plus);
  }
  {
    FlagSet flags("test");
    const char* argv[] = {"prog", "one"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
  }
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  if (sink < 0) std::abort();  // keep the loop from being optimized away
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMillis(), timer.ElapsedSeconds());
}

TEST(TimerTest, StopWatchAccumulates) {
  StopWatch watch;
  watch.Start();
  watch.Stop();
  const double first = watch.TotalSeconds();
  watch.Start();
  watch.Stop();
  EXPECT_GE(watch.TotalSeconds(), first);
  watch.Reset();
  EXPECT_EQ(watch.TotalSeconds(), 0.0);
}

}  // namespace
}  // namespace kjoin
