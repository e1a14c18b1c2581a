#include "text/edit_distance.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace kjoin {
namespace {

// The two DP rows, reused by every distance the thread computes.
thread_local std::vector<int> tls_prev;
thread_local std::vector<int> tls_curr;

}  // namespace

int EditDistance(std::string_view x, std::string_view y) {
  if (x.size() < y.size()) std::swap(x, y);  // y is the shorter string
  const int n = static_cast<int>(x.size());
  const int m = static_cast<int>(y.size());
  if (m == 0) return n;

  std::vector<int>& prev = tls_prev;
  std::vector<int>& curr = tls_curr;
  prev.resize(m + 1);
  curr.resize(m + 1);
  for (int j = 0; j <= m; ++j) prev[j] = j;
  for (int i = 1; i <= n; ++i) {
    curr[0] = i;
    for (int j = 1; j <= m; ++j) {
      const int substitute = prev[j - 1] + (x[i - 1] == y[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, substitute});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

int EditDistanceBounded(std::string_view x, std::string_view y, int max_distance) {
  KJOIN_DCHECK(max_distance >= 0);
  if (x.size() < y.size()) std::swap(x, y);
  const int n = static_cast<int>(x.size());
  const int m = static_cast<int>(y.size());
  if (n - m > max_distance) return max_distance + 1;
  if (m == 0) return n;

  // Band of half-width max_distance around the diagonal. Cells outside the
  // band are treated as > max_distance. Row i writes its band [lo, hi]
  // and the cells on either side, lo - 1 and hi + 1, which are all that
  // row i + 1 reads outside its own band.
  const int kBig = max_distance + 1;
  std::vector<int>& prev = tls_prev;
  std::vector<int>& curr = tls_curr;
  prev.assign(m + 1, kBig);
  curr.resize(m + 1);
  for (int j = 0; j <= std::min(m, max_distance); ++j) prev[j] = j;
  for (int i = 1; i <= n; ++i) {
    const int lo = std::max(1, i - max_distance);
    const int hi = std::min(m, i + max_distance);
    if (lo > hi) return kBig;
    curr[lo - 1] = lo == 1 && i <= max_distance ? i : kBig;
    if (hi < m) curr[hi + 1] = kBig;
    int row_min = kBig;
    for (int j = lo; j <= hi; ++j) {
      const int substitute = prev[j - 1] + (x[i - 1] == y[j - 1] ? 0 : 1);
      const int del = prev[j] + 1;
      const int ins = curr[j - 1] + 1;
      curr[j] = std::min({substitute, del, ins, kBig});
      row_min = std::min(row_min, curr[j]);
    }
    if (row_min > max_distance) return kBig;  // early exit: band exhausted
    std::swap(prev, curr);
  }
  return prev[m];
}

double EditSimilarity(std::string_view x, std::string_view y) {
  if (x.empty() && y.empty()) return 1.0;
  return EditSimilarityOfDistance(EditDistance(x, y), x.size(), y.size());
}

double EditSimilarityOfDistance(int distance, size_t x_length, size_t y_length) {
  const size_t max_len = std::max(x_length, y_length);
  return 1.0 - static_cast<double>(distance) / static_cast<double>(max_len);
}

bool EditSimilarityAtLeast(std::string_view x, std::string_view y, double threshold) {
  const int max_len = static_cast<int>(std::max(x.size(), y.size()));
  if (max_len == 0) return true;
  if (threshold <= 0.0) return true;
  const int budget = MaxEditErrors(max_len, threshold);
  return EditDistanceBounded(x, y, budget) <= budget;
}

int MaxEditErrors(int max_len, double threshold) {
  if (threshold <= 0.0) return max_len;
  const double budget = (1.0 - threshold) * max_len;
  // Guard against 0.30000000000000004-style float noise just above an
  // integral budget.
  return std::max(0, static_cast<int>(std::floor(budget + 1e-9)));
}

}  // namespace kjoin
