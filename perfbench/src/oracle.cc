#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {
namespace {

kjoin::KJoinOptions BruteForceOptions(double delta, double tau, bool plus_mode) {
  kjoin::KJoinOptions options;
  options.delta = delta;
  options.tau = tau;
  options.plus_mode = plus_mode;
  options.sim_cache = false;
  options.num_threads = 1;
  return options;
}

std::string Format(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

}  // namespace

BruteForce::BruteForce(const kjoin::Hierarchy& hierarchy, double delta, double tau,
                       bool plus_mode)
    : join_(hierarchy, BruteForceOptions(delta, tau, plus_mode)) {}

std::vector<std::string> CheckSelfJoin(const BruteForce& oracle,
                                       const std::vector<kjoin::Object>& objects,
                                       const std::vector<std::pair<int32_t, int32_t>>& pairs,
                                       const std::vector<int32_t>& rows) {
  std::vector<std::string> mismatches;
  const double tau = oracle.tau();
  const auto n = static_cast<int32_t>(objects.size());
  auto name = [](int32_t a, int32_t b) {
    return "(" + std::to_string(a) + ", " + std::to_string(b) + ")";
  };

  std::vector<std::pair<int32_t, int32_t>> sorted = pairs;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    const auto [a, b] = sorted[i];
    if (a < 0 || b >= n || a >= b) {
      mismatches.push_back("pair " + name(a, b) + " is not an ordered pair of objects");
      continue;
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      mismatches.push_back("pair " + name(a, b) + " is emitted twice");
      continue;
    }
    const double similarity = oracle.Similarity(objects[static_cast<size_t>(a)],
                                                objects[static_cast<size_t>(b)]);
    if (similarity < tau - kSimilarityEpsilon) {
      mismatches.push_back("pair " + name(a, b) + " has similarity " + Format(similarity) +
                           " below tau " + Format(tau));
    }
  }

  for (const int32_t row : rows) {
    std::vector<char> emitted(static_cast<size_t>(n), 0);
    for (const auto& [a, b] : pairs) {
      if (a == row && b >= 0 && b < n) emitted[static_cast<size_t>(b)] = 1;
      if (b == row && a >= 0 && a < n) emitted[static_cast<size_t>(a)] = 1;
    }
    for (int32_t j = 0; j < n; ++j) {
      if (j == row) continue;
      const double similarity = oracle.Similarity(objects[static_cast<size_t>(row)],
                                                  objects[static_cast<size_t>(j)]);
      if (std::abs(similarity - tau) <= kSimilarityEpsilon) continue;  // either answer is right
      const bool expected = similarity >= tau;
      if (expected != (emitted[static_cast<size_t>(j)] != 0)) {
        mismatches.push_back("row " + std::to_string(row) + ": object " + std::to_string(j) +
                             " (similarity " + Format(similarity) + ") is " +
                             (expected ? "missing" : "emitted wrongly"));
      }
    }
  }
  return mismatches;
}

bool TopKMatches(const std::vector<kjoin::SearchHit>& got, const std::vector<double>& similarity,
                 const std::vector<char>& live, int32_t k, double tau, std::string* why) {
  const auto n = static_cast<int64_t>(similarity.size());
  auto fail = [&](const std::string& message) {
    *why = message;
    return false;
  };
  if (static_cast<int64_t>(got.size()) > k) return fail("more than k hits");
  std::vector<char> in_answer(static_cast<size_t>(n), 0);
  for (size_t i = 0; i < got.size(); ++i) {
    const int32_t g = got[i].object_index;
    if (g < 0 || g >= n || !live[static_cast<size_t>(g)]) {
      return fail("hit " + std::to_string(g) + " is not a live object");
    }
    if (in_answer[static_cast<size_t>(g)]) return fail("hit " + std::to_string(g) + " twice");
    in_answer[static_cast<size_t>(g)] = 1;
    const double exact = similarity[static_cast<size_t>(g)];
    if (std::abs(got[i].similarity - exact) > kSimilarityEpsilon) {
      return fail("hit " + std::to_string(g) + " reports similarity " +
                  Format(got[i].similarity) + ", brute force " + Format(exact));
    }
    if (exact < tau - kSimilarityEpsilon) {
      return fail("hit " + std::to_string(g) + " is below tau");
    }
    if (i > 0 && !kjoin::HitBefore(got[i - 1], got[i])) {
      return fail("hits are not in HitBefore order");
    }
  }

  int64_t strict = 0;  // certainly at or above tau
  int64_t loose = 0;   // possibly at or above tau
  for (int64_t g = 0; g < n; ++g) {
    if (!live[static_cast<size_t>(g)]) continue;
    if (similarity[static_cast<size_t>(g)] >= tau + kSimilarityEpsilon) ++strict;
    if (similarity[static_cast<size_t>(g)] >= tau - kSimilarityEpsilon) ++loose;
  }
  const auto size = static_cast<int64_t>(got.size());
  if (size < std::min<int64_t>(k, strict) || size > std::min<int64_t>(k, loose)) {
    return fail(std::to_string(size) + " hits, brute force has " + std::to_string(strict) +
                " to " + std::to_string(loose) + " at or above tau");
  }
  for (int64_t g = 0; g < n; ++g) {
    const double exact = similarity[static_cast<size_t>(g)];
    if (!live[static_cast<size_t>(g)] || in_answer[static_cast<size_t>(g)] ||
        exact < tau + kSimilarityEpsilon) {
      continue;
    }
    // g clears tau but was left out: only legal behind k better hits.
    if (size < k) return fail("object " + std::to_string(g) + " is missing");
    const kjoin::SearchHit& last = got.back();
    const double last_exact = similarity[static_cast<size_t>(last.object_index)];
    if (exact > last_exact + kSimilarityEpsilon) {
      return fail("object " + std::to_string(g) + " (" + Format(exact) + ") beats the k-th hit " +
                  std::to_string(last.object_index) + " (" + Format(last_exact) + ")");
    }
    if (exact == last_exact && g < last.object_index) {
      return fail("tie at the k-th hit: object " + std::to_string(g) + " precedes " +
                  std::to_string(last.object_index));
    }
  }
  return true;
}

}  // namespace perfbench
