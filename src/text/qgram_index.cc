#include "text/qgram_index.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "text/edit_distance.h"

namespace kjoin {
namespace {

constexpr char kLeftPad = '\x01';
constexpr char kRightPad = '\x02';

// Calls visit(gram) for each padded q-gram of `text` (q is 1 or 2),
// packed big-endian, in position order: |text| + q − 1 grams.
template <typename Visit>
void ForEachGram(std::string_view text, int q, const Visit& visit) {
  if (q == 1) {
    for (const char c : text) visit(uint32_t{static_cast<uint8_t>(c)});
    return;
  }
  uint32_t prev = static_cast<uint8_t>(kLeftPad);
  for (const char c : text) {
    const uint32_t byte = static_cast<uint8_t>(c);
    visit((prev << 8) | byte);
    prev = byte;
  }
  visit((prev << 8) | static_cast<uint8_t>(kRightPad));
}

// Per-thread ScanCount state, shared by every index the thread probes.
// Invariant between calls: every counter is zero.
struct CountScratch {
  std::vector<int32_t> counts;   // rank -> overlap
  std::vector<int32_t> touched;  // ranks with a non-zero counter
  std::vector<uint32_t> grams;   // the query's packed grams
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
  KJOIN_CHECK(q == 1 || q == 2) << "q-grams index a 2^(8q)-slot table, so q is 1 or 2, got "
                                << q;
  const auto n = static_cast<int32_t>(strings_.size());
  size_t max_length = 0;
  int64_t total_grams = 0;  // an upper bound on the postings
  for (const std::string& text : strings_) {
    max_length = std::max(max_length, text.size());
    total_grams += static_cast<int64_t>(text.size()) + q_ - 1;
  }
  KJOIN_CHECK_LE(total_grams, int64_t{INT32_MAX}) << "postings are addressed by int32";

  // Counting sort by length: ranks in (length, id) order, and
  // length_start_ is the prefix sum of the length histogram.
  length_start_.assign(max_length + 2, 0);
  for (const std::string& text : strings_) ++length_start_[text.size() + 1];
  std::partial_sum(length_start_.begin(), length_start_.end(), length_start_.begin());
  id_of_rank_.resize(static_cast<size_t>(n));
  {
    std::vector<int32_t> next(length_start_.begin(), length_start_.end() - 1);
    for (int32_t id = 0; id < n; ++id) {
      id_of_rank_[static_cast<size_t>(next[strings_[static_cast<size_t>(id)].size()]++)] = id;
    }
  }

  // A counting pass (each string counts a gram once), then a filling pass
  // over the ranks in order, so every list comes out rank-ascending. A
  // string's repeated gram finds its own posting at the list's cursor.
  const size_t slots = size_t{1} << (8 * q_);
  offsets_.assign(slots + 1, 0);
  std::vector<int32_t> scratch(slots, -1);  // count pass: last rank per gram
  auto text_of = [&](int32_t rank) -> std::string_view {
    return strings_[static_cast<size_t>(id_of_rank_[static_cast<size_t>(rank)])];
  };
  for (int32_t rank = 0; rank < n; ++rank) {
    ForEachGram(text_of(rank), q_, [&](uint32_t gram) {
      if (scratch[gram] == rank) return;
      scratch[gram] = rank;
      ++offsets_[gram + 1];
    });
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  postings_.resize(static_cast<size_t>(offsets_.back()));
  std::copy(offsets_.begin(), offsets_.end() - 1, scratch.begin());  // fill pass: cursors
  for (int32_t rank = 0; rank < n; ++rank) {
    ForEachGram(text_of(rank), q_, [&](uint32_t gram) {
      int32_t& cursor = scratch[gram];
      if (cursor > offsets_[gram] && postings_[static_cast<size_t>(cursor - 1)].rank == rank) {
        ++postings_[static_cast<size_t>(cursor - 1)].count;
      } else {
        postings_[static_cast<size_t>(cursor++)] = {rank, 1};
      }
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
  ForEachGram(query, q_, [&](uint32_t gram) { s.grams.push_back(gram); });
  std::sort(s.grams.begin(), s.grams.end());
  for (size_t i = 0; i < s.grams.size();) {
    const uint32_t gram = s.grams[i];
    size_t j = i;
    while (j < s.grams.size() && s.grams[j] == gram) ++j;
    const auto query_count = static_cast<int32_t>(j - i);
    i = j;
    const Posting* end = postings_.data() + offsets_[gram + 1];
    const Posting* p = std::lower_bound(
        postings_.data() + offsets_[gram], end, lo,
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
  for (const Hit& hit : SearchWithDistances(query, max_errors)) result.push_back(hit.id);
  return result;
}

std::vector<QGramIndex::Hit> QGramIndex::SearchWithDistances(std::string_view query,
                                                             int max_errors) const {
  std::vector<Hit> result;
  for (const int32_t id : Candidates(query, max_errors)) {
    const int distance = EditDistanceBounded(query, strings_[static_cast<size_t>(id)], max_errors);
    if (distance <= max_errors) result.push_back({id, distance});
  }
  return result;
}

}  // namespace kjoin
