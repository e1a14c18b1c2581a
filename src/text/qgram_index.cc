#include "text/qgram_index.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "text/edit_distance.h"

namespace kjoin {
namespace {

constexpr char kLeftPad = '\x01';
constexpr char kRightPad = '\x02';

// Appends the padded q-grams of `text`, each packed big-endian into a
// uint64 (q <= 8 bytes), in position order.
void AppendPackedGrams(std::string_view text, int q, std::vector<uint64_t>* out) {
  const int64_t pad = q - 1;
  const int64_t padded = static_cast<int64_t>(text.size()) + 2 * pad;
  const uint64_t mask = q == 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * q)) - 1;
  uint64_t window = 0;
  for (int64_t p = 0; p < padded; ++p) {
    char c = kRightPad;
    if (p < pad) {
      c = kLeftPad;
    } else if (p - pad < static_cast<int64_t>(text.size())) {
      c = text[static_cast<size_t>(p - pad)];
    }
    window = ((window << 8) | static_cast<uint8_t>(c)) & mask;
    if (p + 1 >= q) out->push_back(window);
  }
}

// Per-thread ScanCount state, shared by every index the thread probes.
// Invariant between calls: every counter is zero.
struct CountScratch {
  std::vector<int32_t> counts;   // rank -> overlap
  std::vector<int32_t> touched;  // ranks with a non-zero counter
  std::vector<uint64_t> grams;   // the query's packed grams
};

thread_local CountScratch tls_count_scratch;

}  // namespace

std::vector<std::string> QGramIndex::PaddedQGrams(std::string_view text, int q) {
  KJOIN_CHECK_GE(q, 1);
  std::string padded;
  padded.reserve(text.size() + 2 * (q - 1));
  padded.append(q - 1, kLeftPad);
  padded.append(text);
  padded.append(q - 1, kRightPad);
  std::vector<std::string> grams;
  if (padded.size() < static_cast<size_t>(q)) return grams;
  grams.reserve(padded.size() - q + 1);
  for (size_t i = 0; i + q <= padded.size(); ++i) grams.push_back(padded.substr(i, q));
  return grams;
}

QGramIndex::QGramIndex(std::vector<std::string> strings, int q)
    : q_(q), strings_(std::move(strings)) {
  KJOIN_CHECK_GE(q, 1);
  KJOIN_CHECK_LE(q, 8) << "q-grams are packed into 64-bit words";
  const auto n = static_cast<int32_t>(strings_.size());
  auto length = [&](int32_t id) { return strings_[static_cast<size_t>(id)].size(); };

  id_of_rank_.resize(static_cast<size_t>(n));
  std::iota(id_of_rank_.begin(), id_of_rank_.end(), 0);
  std::stable_sort(id_of_rank_.begin(), id_of_rank_.end(),
                   [&](int32_t a, int32_t b) { return length(a) < length(b); });
  const size_t max_length = n == 0 ? 0 : length(id_of_rank_.back());
  length_start_.resize(max_length + 2);
  for (size_t l = 0; l < length_start_.size(); ++l) {
    length_start_[l] = static_cast<int32_t>(
        std::partition_point(id_of_rank_.begin(), id_of_rank_.end(),
                             [&](int32_t id) { return length(id) < l; }) -
        id_of_rank_.begin());
  }

  // The distinct grams, then a counting pass and a filling pass over the
  // ranks in order, so every list comes out rank-ascending.
  {
    std::vector<uint64_t> all;
    size_t total = 0;  // |s| + q − 1 grams per string
    for (const std::string& text : strings_) total += text.size() + q_ - 1;
    all.reserve(total);
    for (const std::string& text : strings_) AppendPackedGrams(text, q_, &all);
    std::sort(all.begin(), all.end());
    grams_.assign(all.begin(), std::unique(all.begin(), all.end()));
  }
  std::vector<uint64_t> grams;  // one string's grams
  auto for_each_gram = [&](int32_t rank, const auto& visit) {
    grams.clear();
    AppendPackedGrams(strings_[static_cast<size_t>(id_of_rank_[static_cast<size_t>(rank)])],
                      q_, &grams);
    std::sort(grams.begin(), grams.end());
    for (size_t i = 0; i < grams.size();) {
      size_t j = i;
      while (j < grams.size() && grams[j] == grams[i]) ++j;
      const auto slot = static_cast<size_t>(
          std::lower_bound(grams_.begin(), grams_.end(), grams[i]) - grams_.begin());
      visit(slot, static_cast<int32_t>(j - i));
      i = j;
    }
  };
  offsets_.assign(grams_.size() + 1, 0);
  for (int32_t rank = 0; rank < n; ++rank) {
    for_each_gram(rank, [&](size_t slot, int32_t) { ++offsets_[slot + 1]; });
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  postings_.resize(static_cast<size_t>(offsets_.back()));
  std::vector<int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (int32_t rank = 0; rank < n; ++rank) {
    for_each_gram(rank, [&](size_t slot, int32_t count) {
      postings_[static_cast<size_t>(cursor[slot]++)] = {rank, count};
    });
  }
}

int32_t QGramIndex::FirstRankOfLength(int64_t length) const {
  if (length <= 0) return 0;
  if (length >= static_cast<int64_t>(length_start_.size())) {
    return static_cast<int32_t>(strings_.size());
  }
  return length_start_[static_cast<size_t>(length)];
}

std::vector<int32_t> QGramIndex::Candidates(std::string_view query, int max_errors) const {
  KJOIN_CHECK_GE(max_errors, 0);
  const auto query_len = static_cast<int64_t>(query.size());
  const int64_t slack = q_ - 1 - static_cast<int64_t>(q_) * max_errors;
  // The length filter, as a rank range.
  const int32_t lo = FirstRankOfLength(query_len - max_errors);
  const int32_t hi = FirstRankOfLength(query_len + max_errors + 1);
  std::vector<int32_t> result;

  // If the count-filter bound can reach <= 0 for some admissible length,
  // it is vacuous: fall back to the plain length filter.
  if (query_len + slack <= 0) {
    result.assign(id_of_rank_.begin() + lo, id_of_rank_.begin() + hi);
    std::sort(result.begin(), result.end());
    return result;
  }

  // Exact multiset q-gram intersection sizes, counted over each posting
  // list's length-admissible slice only.
  CountScratch& s = tls_count_scratch;
  if (s.counts.size() < strings_.size()) s.counts.resize(strings_.size(), 0);
  s.grams.clear();
  AppendPackedGrams(query, q_, &s.grams);
  std::sort(s.grams.begin(), s.grams.end());
  for (size_t i = 0; i < s.grams.size();) {
    const uint64_t gram = s.grams[i];
    size_t j = i;
    while (j < s.grams.size() && s.grams[j] == gram) ++j;
    const auto query_count = static_cast<int32_t>(j - i);
    i = j;
    const auto g = std::lower_bound(grams_.begin(), grams_.end(), gram);
    if (g == grams_.end() || *g != gram) continue;
    const auto slot = static_cast<size_t>(g - grams_.begin());
    const Posting* end = postings_.data() + offsets_[slot + 1];
    const Posting* p = std::lower_bound(
        postings_.data() + offsets_[slot], end, lo,
        [](const Posting& posting, int32_t rank) { return posting.rank < rank; });
    for (; p != end && p->rank < hi; ++p) {
      int32_t& count = s.counts[static_cast<size_t>(p->rank)];
      if (count == 0) s.touched.push_back(p->rank);
      count += std::min(query_count, p->count);
    }
  }
  for (const int32_t rank : s.touched) {
    int32_t& overlap = s.counts[static_cast<size_t>(rank)];
    const int32_t id = id_of_rank_[static_cast<size_t>(rank)];
    const auto cand_len = static_cast<int64_t>(strings_[static_cast<size_t>(id)].size());
    if (overlap >= std::max(cand_len, query_len) + slack) result.push_back(id);
    overlap = 0;
  }
  s.touched.clear();
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<int32_t> QGramIndex::SearchWithinDistance(std::string_view query,
                                                      int max_errors) const {
  std::vector<int32_t> result;
  for (int32_t id : Candidates(query, max_errors)) {
    if (EditDistanceBounded(query, strings_[id], max_errors) <= max_errors) {
      result.push_back(id);
    }
  }
  return result;
}

}  // namespace kjoin
