// Tests for src/common: rng, string_util, flags, timer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <vector>

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

// The byte-at-a-time validator the eight-byte ASCII scan sits in front
// of, kept as the reference.
bool ReferenceIsValidUtf8(std::string_view text) {
  size_t i = 0;
  while (i < text.size()) {
    const unsigned char lead = static_cast<unsigned char>(text[i]);
    if (lead < 0x80) {
      ++i;
      continue;
    }
    int continuation = 0;
    uint32_t codepoint = 0;
    uint32_t min_codepoint = 0;
    if ((lead & 0xE0) == 0xC0) {
      continuation = 1;
      codepoint = lead & 0x1F;
      min_codepoint = 0x80;
    } else if ((lead & 0xF0) == 0xE0) {
      continuation = 2;
      codepoint = lead & 0x0F;
      min_codepoint = 0x800;
    } else if ((lead & 0xF8) == 0xF0) {
      continuation = 3;
      codepoint = lead & 0x07;
      min_codepoint = 0x10000;
    } else {
      return false;
    }
    if (i + continuation >= text.size()) return false;
    for (int k = 1; k <= continuation; ++k) {
      const unsigned char byte = static_cast<unsigned char>(text[i + k]);
      if ((byte & 0xC0) != 0x80) return false;
      codepoint = (codepoint << 6) | (byte & 0x3F);
    }
    if (codepoint < min_codepoint) return false;
    if (codepoint >= 0xD800 && codepoint <= 0xDFFF) return false;
    if (codepoint > 0x10FFFF) return false;
    i += continuation + 1;
  }
  return true;
}

TEST(StringUtilTest, IsValidUtf8MatchesByteWiseReferenceAtEveryOffset) {
  // Valid sequences, invalid ones, and truncated ones (a prefix of a
  // valid sequence), each placed at offsets 0..16 after ASCII and
  // followed by 0..9 ASCII bytes, so every one lands at every position
  // mod 8 and many straddle an 8-byte boundary.
  const std::vector<std::string> sequences = {
      "\xC3\xA9",          "\xE2\x82\xAC",     "\xF0\x9F\x8D\x95", "\xF4\x8F\xBF\xBF",
      "\xC0\x80",          "\xC1\xBF",         "\xE0\x80\x80",     "\xED\xA0\x80",
      "\xF0\x80\x80\x80",  "\xF4\x90\x80\x80", "\xF5\x80\x80\x80", "\xF8\x88\x80\x80",
      "\x80",              "\xBF\xBF",         "\xFF",             "\xC3\x28",
      "\xE2\x28\xAC",      "\xF0\x9F\x28\x95", "\xC3",             "\xE2\x82",
      "\xF0\x9F\x8D",      "\xC3\xA9\xE2\x82\xAC",
  };
  int checked = 0;
  int invalid = 0;
  for (const std::string& sequence : sequences) {
    for (size_t offset = 0; offset <= 16; ++offset) {
      for (size_t tail = 0; tail <= 9; ++tail) {
        const std::string text = std::string(offset, 'a') + sequence + std::string(tail, 'z');
        const bool expected = ReferenceIsValidUtf8(text);
        ASSERT_EQ(IsValidUtf8(text), expected) << "sequence at offset " << offset << ", tail "
                                               << tail;
        ++checked;
        invalid += expected ? 0 : 1;
      }
    }
  }
  EXPECT_GT(invalid, checked / 2);
  // Random byte strings, mostly ASCII.
  Rng rng(8);
  for (int trial = 0; trial < 20000; ++trial) {
    std::string text;
    const int length = static_cast<int>(rng.NextUint64(24));
    for (int k = 0; k < length; ++k) {
      text.push_back(static_cast<char>(rng.NextBool(0.9) ? rng.NextUint64(128)
                                                         : rng.NextUint64(256)));
    }
    ASSERT_EQ(IsValidUtf8(text), ReferenceIsValidUtf8(text)) << "trial " << trial;
  }
}

TEST(StringUtilTest, SplitViewsKeepsEveryEmptyPiece) {
  std::vector<std::string_view> pieces = {"stale"};
  SplitViews("", '\t', &pieces);
  EXPECT_EQ(pieces, (std::vector<std::string_view>{""}));
  SplitViews("\t", '\t', &pieces);
  EXPECT_EQ(pieces, (std::vector<std::string_view>{"", ""}));
  SplitViews("\ta\t\tb\t", '\t', &pieces);
  EXPECT_EQ(pieces, (std::vector<std::string_view>{"", "a", "", "b", ""}));
  SplitViews("no separator", '\t', &pieces);
  EXPECT_EQ(pieces, (std::vector<std::string_view>{"no separator"}));
  SplitViews("R\t1\tpizza", '\t', &pieces);
  EXPECT_EQ(pieces, (std::vector<std::string_view>{"R", "1", "pizza"}));
  // Views point into the text.
  const std::string text = "x,y";
  SplitViews(text, ',', &pieces);
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[1].data(), text.data() + 2);
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
