// Tests for src/text: edit distance, tokenizer, q-gram index, entity
// matcher.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "hierarchy/dag.h"
#include "hierarchy/hierarchy_builder.h"
#include "text/edit_distance.h"
#include "text/entity_matcher.h"
#include "text/qgram_index.h"
#include "text/tokenizer.h"

namespace kjoin {
namespace {

TEST(EditDistanceTest, BasicCases) {
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("abc", ""), 3);
  EXPECT_EQ(EditDistance("", "abc"), 3);
  EXPECT_EQ(EditDistance("abc", "abc"), 0);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("pizzahut", "pizzahat"), 1);  // paper §2.1.1
  EXPECT_EQ(EditDistance("abc", "acb"), 2);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("sunday", "saturday"), EditDistance("saturday", "sunday"));
}

TEST(EditDistanceBoundedTest, AgreesWithExactWithinBudget) {
  Rng rng(4);
  const std::string alphabet = "abcd";
  for (int trial = 0; trial < 500; ++trial) {
    std::string x, y;
    const int nx = static_cast<int>(rng.NextUint64(10));
    const int ny = static_cast<int>(rng.NextUint64(10));
    for (int i = 0; i < nx; ++i) x += alphabet[rng.NextUint64(alphabet.size())];
    for (int i = 0; i < ny; ++i) y += alphabet[rng.NextUint64(alphabet.size())];
    const int exact = EditDistance(x, y);
    for (int budget = 0; budget <= 6; ++budget) {
      const int bounded = EditDistanceBounded(x, y, budget);
      if (exact <= budget) {
        ASSERT_EQ(bounded, exact) << x << " vs " << y << " budget " << budget;
      } else {
        ASSERT_GT(bounded, budget) << x << " vs " << y << " budget " << budget;
      }
    }
  }
}

TEST(EditSimilarityTest, PaperExample) {
  // ED(PizzaHut, PizzaHat) = 1, |both| = 8, similarity = 7/8.
  EXPECT_DOUBLE_EQ(EditSimilarity("pizzahut", "pizzahat"), 7.0 / 8.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("a", ""), 0.0);
}

TEST(EditSimilarityAtLeastTest, MatchesDirectComputation) {
  Rng rng(6);
  const std::string alphabet = "abc";
  for (int trial = 0; trial < 400; ++trial) {
    std::string x, y;
    const int nx = 1 + static_cast<int>(rng.NextUint64(8));
    const int ny = 1 + static_cast<int>(rng.NextUint64(8));
    for (int i = 0; i < nx; ++i) x += alphabet[rng.NextUint64(alphabet.size())];
    for (int i = 0; i < ny; ++i) y += alphabet[rng.NextUint64(alphabet.size())];
    for (double threshold : {0.3, 0.5, 0.75, 0.9}) {
      ASSERT_EQ(EditSimilarityAtLeast(x, y, threshold),
                EditSimilarity(x, y) >= threshold - 1e-12)
          << x << " vs " << y << " @ " << threshold;
    }
  }
}

TEST(MaxEditErrorsTest, Values) {
  EXPECT_EQ(MaxEditErrors(8, 0.8), 1);   // (1-0.8)*8 = 1.6 -> 1
  EXPECT_EQ(MaxEditErrors(10, 0.8), 2);  // exactly 2.0
  EXPECT_EQ(MaxEditErrors(5, 1.0), 0);
  EXPECT_EQ(MaxEditErrors(5, 0.0), 5);
}

TEST(TokenizerTest, SplitsAndNormalizes) {
  const Tokenizer tokenizer;
  const auto tokens = tokenizer.Tokenize("Californian food, at Fillmore St.!");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0], "californian");
  EXPECT_EQ(tokens[3], "fillmore");
  EXPECT_EQ(tokens[4], "st");
}

TEST(TokenizerTest, KeepsDuplicates) {
  const Tokenizer tokenizer;
  const auto tokens = tokenizer.Tokenize("pizza pizza");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], tokens[1]);
}

TEST(TokenizerTest, MinTokenLengthDropsShortTokens) {
  TokenizerOptions options;
  options.min_token_length = 3;
  const Tokenizer tokenizer(options);
  const auto tokens = tokenizer.Tokenize("a bb ccc dddd");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "ccc");
}

TEST(TokenizerTest, NormalizeStripsPunctuation) {
  const Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Normalize("Burger-King!"), "burgerking");
  EXPECT_EQ(tokenizer.Normalize("...."), "");
}

// The per-byte rule the tokenizer's byte table replaced: a token byte is
// alphanumeric (strip_punctuation) or any non-space byte, and ASCII
// upper case is lowered when asked.
bool ReferenceIsTokenChar(char c, bool strip_punctuation) {
  const unsigned char u = static_cast<unsigned char>(c);
  if (strip_punctuation) return std::isalnum(u) != 0;
  return std::isspace(u) == 0;
}

char ReferenceLower(char c, bool lowercase) {
  return lowercase && c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string ReferenceNormalize(std::string_view token, const TokenizerOptions& options) {
  std::string out;
  for (const char c : token) {
    if (ReferenceIsTokenChar(c, options.strip_punctuation)) {
      out.push_back(ReferenceLower(c, options.lowercase));
    }
  }
  return out;
}

std::vector<std::string> ReferenceTokenize(std::string_view text,
                                           const TokenizerOptions& options) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (!current.empty() && static_cast<int>(current.size()) >= options.min_token_length) {
      tokens.push_back(current);
    }
    current.clear();
  };
  for (const char c : text) {
    if (ReferenceIsTokenChar(c, options.strip_punctuation)) {
      current.push_back(ReferenceLower(c, options.lowercase));
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

// Checks Normalize, NormalizeView and Tokenize on `text` against the
// per-byte rule. NormalizeView must hand back `text` itself exactly when
// it is already normal.
void ExpectTokenizerMatchesReference(const Tokenizer& tokenizer,
                                     const TokenizerOptions& options,
                                     std::string_view text) {
  const std::string expected = ReferenceNormalize(text, options);
  EXPECT_EQ(tokenizer.Normalize(text), expected);
  std::string buffer = "stale";
  const std::string_view view = tokenizer.NormalizeView(text, &buffer);
  EXPECT_EQ(view, expected);
  EXPECT_EQ(view.data() == text.data(), expected == text)
      << "a view into the input iff the input is already normal";
  EXPECT_EQ(tokenizer.Tokenize(text), ReferenceTokenize(text, options));
}

TEST(TokenizerTest, ByteTableMatchesPerByteRuleOnEveryByte) {
  Rng rng(26);
  for (const bool lowercase : {false, true}) {
    for (const bool strip_punctuation : {false, true}) {
      for (const int min_token_length : {0, 1, 3}) {
        SCOPED_TRACE(testing::Message() << "lowercase " << lowercase << " strip "
                                        << strip_punctuation << " min "
                                        << min_token_length);
        TokenizerOptions options;
        options.lowercase = lowercase;
        options.strip_punctuation = strip_punctuation;
        options.min_token_length = min_token_length;
        const Tokenizer tokenizer(options);
        for (int b = 0; b < 256; ++b) {
          const char c = static_cast<char>(b);
          ExpectTokenizerMatchesReference(tokenizer, options, std::string(1, c));
          ExpectTokenizerMatchesReference(tokenizer, options, std::string("aB") + c + "Cd");
          ExpectTokenizerMatchesReference(tokenizer, options, std::string(3, c));
        }
        // Random texts over all 256 bytes, some with a long normal prefix.
        for (int trial = 0; trial < 500; ++trial) {
          std::string text = trial % 2 == 0 ? "pizzahut" : "";
          const int length = static_cast<int>(rng.NextUint64(16));
          for (int k = 0; k < length; ++k) text.push_back(static_cast<char>(rng.NextUint64(256)));
          ExpectTokenizerMatchesReference(tokenizer, options, text);
        }
      }
    }
  }
}

TEST(TokenizerTest, NulIsAKeptByteWithoutPunctuationStripping) {
  TokenizerOptions options;
  options.strip_punctuation = false;
  const Tokenizer tokenizer(options);
  const std::string token("a\0B", 3);
  EXPECT_EQ(tokenizer.Normalize(token), std::string("a\0b", 3));
  EXPECT_EQ(tokenizer.Tokenize(std::string("\0 x", 3)),
            (std::vector<std::string>{std::string(1, '\0'), "x"}));
  const Tokenizer stripping;
  EXPECT_EQ(stripping.Normalize(token), "ab");
}

TEST(TokenizerTest, NormalizeViewReturnsANormalTokenItself) {
  const Tokenizer tokenizer;
  std::string buffer;
  const std::string_view normal = "pizzahut42";
  EXPECT_EQ(tokenizer.NormalizeView(normal, &buffer).data(), normal.data());
  EXPECT_TRUE(buffer.empty()) << "a normal token is not copied";
  const std::string_view copied = tokenizer.NormalizeView("Pizza-Hut", &buffer);
  EXPECT_EQ(copied, "pizzahut");
  EXPECT_EQ(copied.data(), buffer.data());
  EXPECT_TRUE(tokenizer.NormalizeView("", &buffer).empty());
  EXPECT_TRUE(tokenizer.NormalizeView("!?", &buffer).empty());
}

TEST(QGramIndexTest, PaddedGramCount) {
  const auto grams = QGramIndex::PaddedQGrams("abc", 2);
  EXPECT_EQ(grams.size(), 4u);  // |s| + q - 1
  const auto single = QGramIndex::PaddedQGrams("a", 3);
  EXPECT_EQ(single.size(), 3u);
}

TEST(QGramIndexTest, FindsExactString) {
  QGramIndex index({"pizza", "burger", "pasta"}, 2);
  const auto hits = index.SearchWithinDistance("pizza", 0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(index.string_at(hits[0]), "pizza");
}

TEST(QGramIndexTest, FindsTypoNeighbors) {
  QGramIndex index({"pizzahut", "burgerking", "dominos"}, 2);
  const auto hits = index.SearchWithinDistance("pizzahat", 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(index.string_at(hits[0]), "pizzahut");
  EXPECT_TRUE(index.SearchWithinDistance("zzzz", 1).empty());
}

TEST(QGramIndexTest, RepeatedCharacterStrings) {
  // Multiset gram semantics must not reject identical strings.
  QGramIndex index({"aaaa", "aaab"}, 2);
  const auto exact = index.SearchWithinDistance("aaaa", 0);
  ASSERT_EQ(exact.size(), 1u);
  const auto close = index.SearchWithinDistance("aaaa", 1);
  EXPECT_EQ(close.size(), 2u);
}

TEST(QGramIndexTest, NeverMissesWithinBudget) {
  // Property: SearchWithinDistance returns exactly the strings whose edit
  // distance is within budget (candidates are a superset; verification
  // trims them).
  Rng rng(77);
  const std::string alphabet = "abcde";
  std::vector<std::string> dictionary;
  for (int i = 0; i < 200; ++i) {
    std::string word;
    const int len = 1 + static_cast<int>(rng.NextUint64(8));
    for (int k = 0; k < len; ++k) word += alphabet[rng.NextUint64(alphabet.size())];
    dictionary.push_back(word);
  }
  QGramIndex index(dictionary, 2);
  for (int trial = 0; trial < 100; ++trial) {
    std::string query;
    const int len = 1 + static_cast<int>(rng.NextUint64(8));
    for (int k = 0; k < len; ++k) query += alphabet[rng.NextUint64(alphabet.size())];
    for (int budget = 0; budget <= 2; ++budget) {
      std::vector<int32_t> expected;
      for (int32_t id = 0; id < static_cast<int32_t>(dictionary.size()); ++id) {
        if (EditDistance(query, dictionary[id]) <= budget) expected.push_back(id);
      }
      ASSERT_EQ(index.SearchWithinDistance(query, budget), expected)
          << "query " << query << " budget " << budget;
    }
  }
}

TEST(QGramIndexTest, SearchWithDistancesReturnsExactDistances) {
  Rng rng(78);
  const std::string alphabet = "abcde";
  auto word = [&] {
    std::string text;
    const int len = 1 + static_cast<int>(rng.NextUint64(9));
    for (int k = 0; k < len; ++k) text += alphabet[rng.NextUint64(alphabet.size())];
    return text;
  };
  std::vector<std::string> dictionary;
  for (int i = 0; i < 200; ++i) dictionary.push_back(word());
  const QGramIndex index(dictionary, 2);
  for (int trial = 0; trial < 100; ++trial) {
    const std::string query = word();
    for (int budget = 0; budget <= 3; ++budget) {
      std::vector<int32_t> ids;
      for (const QGramIndex::Hit& hit : index.SearchWithDistances(query, budget)) {
        ids.push_back(hit.id);
        ASSERT_EQ(hit.distance, EditDistance(query, dictionary[static_cast<size_t>(hit.id)]))
            << query << " vs " << dictionary[static_cast<size_t>(hit.id)];
        ASSERT_EQ(EditSimilarityOfDistance(hit.distance, query.size(),
                                           dictionary[static_cast<size_t>(hit.id)].size()),
                  EditSimilarity(query, dictionary[static_cast<size_t>(hit.id)]));
      }
      ASSERT_EQ(ids, index.SearchWithinDistance(query, budget));
    }
  }
}

// The count filter spelled out: multiset gram overlap against the bound,
// or the plain length filter when the bound is vacuous.
std::vector<int32_t> BruteForceCandidates(const std::vector<std::string>& strings,
                                          const std::string& query, int q, int budget) {
  const auto multiset = [q](const std::string& text) {
    std::vector<std::string> grams = QGramIndex::PaddedQGrams(text, q);
    std::sort(grams.begin(), grams.end());
    return grams;
  };
  const std::vector<std::string> query_grams = multiset(query);
  const int query_len = static_cast<int>(query.size());
  const bool vacuous = query_len + q - 1 - q * budget <= 0;
  std::vector<int32_t> expected;
  for (int32_t id = 0; id < static_cast<int32_t>(strings.size()); ++id) {
    const int len = static_cast<int>(strings[id].size());
    if (std::abs(len - query_len) > budget) continue;
    if (vacuous) {
      expected.push_back(id);
      continue;
    }
    const std::vector<std::string> grams = multiset(strings[id]);
    std::vector<std::string> common;
    std::set_intersection(query_grams.begin(), query_grams.end(), grams.begin(), grams.end(),
                          std::back_inserter(common));
    if (static_cast<int>(common.size()) >= std::max(len, query_len) + q - 1 - q * budget) {
      expected.push_back(id);
    }
  }
  return expected;
}

TEST(QGramIndexTest, CandidatesEqualBruteForceCountFilter) {
  // Random words over a small alphabet repeat grams heavily; lengths 0-9
  // put short queries under the vacuous-bound fallback. The alphabet
  // holds bytes >= 0x80 (high gram slots) and the pad bytes 0x01/0x02, so
  // a string's own bytes can collide with a padded end gram.
  Rng rng(2024);
  const std::string alphabet = "aab\x01\x02\x80\xff";
  auto random_word = [&](int max_len) {
    std::string word;
    const int len = static_cast<int>(rng.NextUint64(max_len + 1));
    for (int k = 0; k < len; ++k) word += alphabet[rng.NextUint64(alphabet.size())];
    return word;
  };
  std::vector<std::string> strings = {"aaaa", "aaaaaaaa", "abababab", "a", "",
                                      "\x01" "a" "\x02", "\x02\x01", "\xff\xfe\x80", "\x01\x01"};
  for (int i = 0; i < 300; ++i) strings.push_back(random_word(9));
  for (int q = 1; q <= 2; ++q) {
    const QGramIndex index(strings, q);
    for (int trial = 0; trial < 120; ++trial) {
      const std::string query = trial < 9 ? strings[trial] : random_word(9);
      for (int budget = 0; budget <= 3; ++budget) {
        ASSERT_EQ(index.Candidates(query, budget),
                  BruteForceCandidates(strings, query, q, budget))
            << "q " << q << " query '" << query << "' budget " << budget;
      }
    }
  }
}

TEST(QGramIndexTest, EmptyIndexHasNoCandidates) {
  const QGramIndex index({}, 2);
  EXPECT_TRUE(index.Candidates("abc", 1).empty());
  EXPECT_TRUE(index.Candidates("", 3).empty());
}

class EntityMatcherTest : public testing::Test {
 protected:
  EntityMatcherTest() : tree_(MakeFigure1Hierarchy()) {}
  Hierarchy tree_;
};

TEST_F(EntityMatcherTest, ExactMatch) {
  const EntityMatcher matcher(tree_);
  auto match = matcher.MatchOne("BurgerKing");
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->node, *tree_.FindByLabel("BurgerKing"));
  EXPECT_DOUBLE_EQ(match->phi, 1.0);
  // Case and punctuation insensitive.
  EXPECT_TRUE(matcher.MatchOne("burger-king").has_value());
}

TEST_F(EntityMatcherTest, UnmatchedTokenReturnsNothing) {
  const EntityMatcher matcher(tree_);
  EXPECT_FALSE(matcher.MatchOne("qwertyuiop").has_value());
  EXPECT_TRUE(matcher.MatchAll("qwertyuiop").empty());
}

TEST_F(EntityMatcherTest, SynonymMapsWithPhiOne) {
  EntityMatcher matcher(tree_);
  ASSERT_EQ(matcher.AddSynonym("thecolonel", "KFC"), 1);
  auto match = matcher.MatchOne("thecolonel");
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->node, *tree_.FindByLabel("KFC"));
  EXPECT_DOUBLE_EQ(match->phi, 1.0);
}

TEST_F(EntityMatcherTest, SynonymForUnknownLabelIsIgnored) {
  EntityMatcher matcher(tree_);
  EXPECT_EQ(matcher.AddSynonym("alias", "NoSuchNode"), 0);
  EXPECT_FALSE(matcher.MatchOne("alias").has_value());
}

TEST_F(EntityMatcherTest, ApproximateMatchGetsEditSimilarityPhi) {
  EntityMatcherOptions options;
  options.min_phi = 0.7;
  const EntityMatcher matcher(tree_, options);
  const auto matches = matcher.MatchAll("pizzahat");  // typo of PizzaHut
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].node, *tree_.FindByLabel("PizzaHut"));
  EXPECT_DOUBLE_EQ(matches[0].phi, 7.0 / 8.0);  // paper's example value
}

TEST_F(EntityMatcherTest, ApproximateBelowMinPhiIsDropped) {
  EntityMatcherOptions options;
  options.min_phi = 0.95;
  const EntityMatcher matcher(tree_, options);
  EXPECT_TRUE(matcher.MatchAll("pizzahat").empty());
}

TEST_F(EntityMatcherTest, MatchOneIgnoresApproximate) {
  // The paper's plain K-Join maps elements by exact label only.
  const EntityMatcher matcher(tree_);
  EXPECT_FALSE(matcher.MatchOne("pizzahat").has_value());
}

TEST_F(EntityMatcherTest, MatchAllSortsByPhi) {
  EntityMatcher matcher(tree_);
  matcher.AddSynonym("mcfastfood", "Fastfood");
  const auto matches = matcher.MatchAll("fastfood");
  ASSERT_FALSE(matches.empty());
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_GE(matches[i - 1].phi, matches[i].phi);
  }
  EXPECT_EQ(matches[0].node, *tree_.FindByLabel("Fastfood"));
}

TEST_F(EntityMatcherTest, AmbiguousLabelReturnsAllNodes) {
  // Build a small DAG-unfolded tree where "C" occurs twice.
  Dag dag;
  const int32_t a = dag.AddNode("A");
  const int32_t b = dag.AddNode("B");
  const int32_t c = dag.AddNode("C");
  dag.AddEdge(0, a);
  dag.AddEdge(0, b);
  dag.AddEdge(a, c);
  dag.AddEdge(b, c);
  auto tree = ConvertDagToTree(dag);
  ASSERT_TRUE(tree.has_value());
  EntityMatcherOptions options;
  options.enable_approximate = false;
  const EntityMatcher matcher(*tree, options);
  EXPECT_EQ(matcher.MatchAll("c").size(), 2u);
}

TEST_F(EntityMatcherTest, ConcurrentMatchAllOnFreshMatcher) {
  // The first lookup sorts the registered synonyms and builds the q-gram
  // index; racing first lookups must do that once and all see the same
  // answers.
  const std::vector<std::string> tokens = {"pizzahat", "burgerkin", "fastfood", "kfc",
                                           "qwertyuiop", "pizzahut", "thecolonel", "mcfood"};
  auto register_synonyms = [](EntityMatcher& matcher) {
    matcher.AddSynonym("thecolonel", "KFC");
    matcher.AddSynonym("mcfood", "Fastfood");
    matcher.AddSynonym("mcfood", "BurgerKing");
  };
  std::vector<std::vector<EntityMatch>> expected;
  {
    EntityMatcher reference(tree_);
    register_synonyms(reference);
    for (const std::string& token : tokens) expected.push_back(reference.MatchAll(token));
  }
  EntityMatcher matcher(tree_);
  register_synonyms(matcher);
  constexpr int kThreads = 8;
  std::vector<std::vector<std::vector<EntityMatch>>> got(
      kThreads, std::vector<std::vector<EntityMatch>>(tokens.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different token, so first lookups differ.
      for (int round = 0; round < 20; ++round) {
        for (size_t i = 0; i < tokens.size(); ++i) {
          const size_t k = (i + t) % tokens.size();
          got[t][k] = matcher.MatchAll(tokens[k]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected) << "thread " << t;
}

TEST_F(EntityMatcherTest, MaxMatchesCapRespected) {
  EntityMatcherOptions options;
  options.min_phi = 0.2;
  options.max_matches = 2;
  const EntityMatcher matcher(tree_, options);
  EXPECT_LE(matcher.MatchAll("pizza").size(), 2u);
}

TEST_F(EntityMatcherTest, LongTokenTypoWithinMinPhiIsFound) {
  // A 100-character token and a 166-character label 66 insertions away:
  // φ = 1 − 66/166 ≈ 0.602 >= the default min_phi 0.6, so the edit budget
  // must reach 66, the largest e with e <= floor(0.4 · (100 + e)).
  std::string token;
  for (int i = 0; i < 100; ++i) token += static_cast<char>('a' + i % 26);
  const std::string label = token + std::string(66, 'q');
  HierarchyBuilder builder;
  const NodeId node = builder.AddChild(builder.root(), label);
  const Hierarchy tree = std::move(builder).Build();
  const EntityMatcher matcher(tree);
  const auto matches = matcher.MatchAll(token);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].node, node);
  EXPECT_DOUBLE_EQ(matches[0].phi, 1.0 - 66.0 / 166.0);
}

// Lower-case alphanumerics, as the matcher normalizes labels and tokens.
std::string NormalizeForTest(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c >= 'A' && c <= 'Z') {
      out.push_back(static_cast<char>(c - 'A' + 'a'));
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      out.push_back(c);
    }
  }
  return out;
}

// MatchAll by a linear scan: exact and synonym nodes at φ = 1, every other
// label with EditSimilarity >= min_phi, the best φ per node, sorted by φ
// descending then node, truncated to max_matches.
// `labels` holds each node's normalized label, indexed by node.
std::vector<EntityMatch> BruteForceMatchAll(
    const std::vector<std::string>& labels,
    const std::vector<std::pair<std::string, std::string>>& synonyms,
    const EntityMatcherOptions& options, std::string_view token) {
  const std::string query = NormalizeForTest(token);
  std::vector<EntityMatch> matches;
  if (query.empty()) return matches;
  auto add = [&](NodeId node, double phi) {
    for (EntityMatch& match : matches) {
      if (match.node == node) {
        match.phi = std::max(match.phi, phi);
        return;
      }
    }
    matches.push_back({node, phi});
  };
  for (NodeId v = 1; v < static_cast<NodeId>(labels.size()); ++v) {
    const std::string& label = labels[static_cast<size_t>(v)];
    if (label.empty()) continue;
    if (label == query) {
      add(v, 1.0);
    } else if (options.enable_approximate) {
      const double phi = EditSimilarity(query, label);
      if (phi >= options.min_phi) add(v, phi);
    }
  }
  for (const auto& [alias, target] : synonyms) {
    if (NormalizeForTest(alias) != query) continue;
    for (NodeId v = 1; v < static_cast<NodeId>(labels.size()); ++v) {
      const std::string& label = labels[static_cast<size_t>(v)];
      if (!label.empty() && label == NormalizeForTest(target)) add(v, 1.0);
    }
  }
  std::sort(matches.begin(), matches.end(), [](const EntityMatch& a, const EntityMatch& b) {
    if (a.phi != b.phi) return a.phi > b.phi;
    return a.node < b.node;
  });
  if (static_cast<int>(matches.size()) > options.max_matches) {
    matches.resize(static_cast<size_t>(options.max_matches));
  }
  return matches;
}

// MatchOne by a linear scan: the first node with the exact label, else the
// first node of the first-registered synonym.
std::optional<EntityMatch> BruteForceMatchOne(
    const std::vector<std::string>& labels,
    const std::vector<std::pair<std::string, std::string>>& synonyms, std::string_view token) {
  const std::string query = NormalizeForTest(token);
  if (query.empty()) return std::nullopt;
  for (NodeId v = 1; v < static_cast<NodeId>(labels.size()); ++v) {
    if (labels[static_cast<size_t>(v)] == query) return EntityMatch{v, 1.0};
  }
  for (const auto& [alias, target] : synonyms) {
    if (NormalizeForTest(alias) != query) continue;
    for (NodeId v = 1; v < static_cast<NodeId>(labels.size()); ++v) {
      const std::string& label = labels[static_cast<size_t>(v)];
      if (!label.empty() && label == NormalizeForTest(target)) return EntityMatch{v, 1.0};
    }
  }
  return std::nullopt;
}

TEST_F(EntityMatcherTest, MatchAllEqualsBruteForce) {
  // Short labels over a 4-letter alphabet have many typo neighbours and
  // shared surface forms; long ones put the edit budget well past the
  // query's own MaxEditErrors.
  Rng rng(4242);
  auto random_word = [&](int min_len, int max_len) {
    std::string word;
    const int len = min_len + static_cast<int>(rng.NextUint64(max_len - min_len + 1));
    for (int k = 0; k < len; ++k) word += "abcd"[rng.NextUint64(4)];
    return word;
  };
  HierarchyBuilder builder;
  std::vector<std::string> labels;
  for (int i = 0; i < 240; ++i) {
    std::string label = i % 12 == 0 ? random_word(30, 120) : random_word(2, 12);
    if (i % 9 == 0) label[0] = static_cast<char>(label[0] - 'a' + 'A');  // case folds
    if (i % 10 == 0) label.insert(label.size() / 2, "-");                // punctuation drops
    if (i % 15 == 0 && !labels.empty()) label = labels[rng.NextUint64(labels.size())];  // shared
    const NodeId parent = static_cast<NodeId>(rng.NextUint64(builder.num_nodes()));
    builder.AddChild(parent, label);
    labels.push_back(label);
  }
  builder.AddChild(builder.root(), "!!!");  // normalizes to nothing
  const Hierarchy tree = std::move(builder).Build();
  std::vector<std::string> normalized(static_cast<size_t>(tree.num_nodes()));
  for (NodeId v = 1; v < tree.num_nodes(); ++v) {
    normalized[static_cast<size_t>(v)] = NormalizeForTest(tree.label(v));
  }

  std::vector<std::pair<std::string, std::string>> synonyms;
  for (int i = 0; i < 60; ++i) {
    synonyms.emplace_back("syn" + random_word(2, 8), labels[rng.NextUint64(labels.size())]);
  }
  synonyms.emplace_back("twolabels", labels[3]);  // one alias for two labels
  synonyms.emplace_back("twolabels", labels[7]);
  synonyms.emplace_back(labels[5], labels[11]);   // an alias equal to a label
  synonyms.emplace_back("nolabel", "NoSuchLabel");
  synonyms.emplace_back("?!", labels[2]);         // an alias normalizing to nothing

  std::vector<std::string> queries = {"", "!!!", "--", "twolabels", "nolabel"};
  for (const std::string& label : labels) queries.push_back(label);
  for (const auto& [alias, target] : synonyms) queries.push_back(alias);
  for (int i = 0; i < 400; ++i) {
    std::string typo = NormalizeForTest(labels[rng.NextUint64(labels.size())]);
    const int edits = 1 + static_cast<int>(rng.NextUint64(3));
    for (int e = 0; e < edits && !typo.empty(); ++e) {
      const size_t at = rng.NextUint64(typo.size());
      switch (rng.NextUint64(3)) {
        case 0: typo[at] = "abcdz"[rng.NextUint64(5)]; break;
        case 1: typo.insert(at, 1, "abcdz"[rng.NextUint64(5)]); break;
        default: typo.erase(at, 1); break;
      }
    }
    queries.push_back(typo);
  }
  // A label with as many of its characters deleted as min_phi admits:
  // the label is the longer side, exactly the edit budget away.
  for (const double phi : {0.6, 0.8}) {
    for (size_t i = 0; i < labels.size(); i += 3) {
      std::string token = NormalizeForTest(labels[i]);
      const int deletions = MaxEditErrors(static_cast<int>(token.size()), phi);
      for (int d = 0; d < deletions && !token.empty(); ++d) {
        token.erase(rng.NextUint64(token.size()), 1);
      }
      queries.push_back(token);
    }
  }
  queries.push_back(labels[0] + std::string(70, 'z'));  // long tokens
  queries.push_back(std::string(150, 'a'));

  for (const double min_phi : {0.6, 0.8}) {
    EntityMatcherOptions options;
    options.min_phi = min_phi;
    options.max_matches = 1000;
    EntityMatcherOptions capped = options;
    capped.max_matches = 1;
    EntityMatcher matcher(tree, options);
    EntityMatcher capped_matcher(tree, capped);
    for (const auto& [alias, target] : synonyms) {
      matcher.AddSynonym(alias, target);
      capped_matcher.AddSynonym(alias, target);
    }
    for (const std::string& query : queries) {
      std::vector<EntityMatch> expected = BruteForceMatchAll(normalized, synonyms, options, query);
      ASSERT_EQ(matcher.MatchAll(query), expected) << "query '" << query << "' min_phi " << min_phi;
      if (expected.size() > 1) expected.resize(1);  // the max_matches = 1 prefix
      ASSERT_EQ(capped_matcher.MatchAll(query), expected)
          << "query '" << query << "' min_phi " << min_phi << " max_matches 1";
      ASSERT_EQ(matcher.MatchOne(query), BruteForceMatchOne(normalized, synonyms, query))
          << "query '" << query << "'";
    }
  }
}

}  // namespace
}  // namespace kjoin
