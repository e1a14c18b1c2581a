#ifndef KJOIN_TEXT_QGRAM_INDEX_H_
#define KJOIN_TEXT_QGRAM_INDEX_H_

// A q-gram inverted index for approximate string lookup.
//
// Used by the entity matcher (mapping typo-carrying tokens onto
// knowledge-base labels, paper §2.1.1). Uses padded q-grams: the string
// is framed with q−1 sentinel characters on each side, giving |s| + q − 1
// grams, so the classic count filter
//   ED(x, y) <= e  =>  |grams(x) ∩ grams(y)| >= max(|x|,|y|) + q − 1 − q·e
// holds for strings of any length >= 1.
//
// Layout: q is 1 or 2, so a gram packed big-endian into an integer is a
// slot of a direct-addressed table with 2^(8q) slots (256 or 65,536).
// The postings form one CSR over that table: the postings of gram g are
// postings_[offsets_[g], offsets_[g + 1]). The build is one counting pass
// and one filling pass over the strings; neither sorts nor searches.
// Strings are numbered internally in (length, id) order, so every posting
// list is length-sorted and a lookup scans only the slice whose lengths
// pass the length filter |len − |query|| <= e. Overlaps are counted
// ScanCount-style in a per-thread dense counter array.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kjoin {

class QGramIndex {
 public:
  // Indexes `strings` (ids are positions in the vector). q is 1 or 2.
  QGramIndex(std::vector<std::string> strings, int q = 2);

  int q() const { return q_; }
  int64_t num_strings() const { return static_cast<int64_t>(strings_.size()); }
  const std::string& string_at(int32_t id) const { return strings_[id]; }
  // Length of the longest indexed string (0 when empty).
  int64_t max_length() const { return static_cast<int64_t>(length_start_.size()) - 2; }

  // Ids of indexed strings whose edit distance to `query` *may* be
  // <= max_errors (count filter + length filter; no verification),
  // ascending. Thread-safe.
  std::vector<int32_t> Candidates(std::string_view query, int max_errors) const;

  // Candidates verified with the banded edit-distance algorithm; every
  // returned id is truly within max_errors.
  std::vector<int32_t> SearchWithinDistance(std::string_view query, int max_errors) const;

  // An indexed string within the edit budget, with its exact distance.
  struct Hit {
    int32_t id;
    int distance;
  };
  // SearchWithinDistance's ids, ascending, each with its edit distance to
  // `query` (the banded algorithm is exact within its budget).
  std::vector<Hit> SearchWithDistances(std::string_view query, int max_errors) const;

  // The padded q-grams of `text` for any q >= 1 (exposed for tests and
  // FastJoin, which do not build an index).
  static std::vector<std::string> PaddedQGrams(std::string_view text, int q);

 private:
  // One posting: an internal (length-ordered) string number and the
  // gram's multiplicity in that string.
  struct Posting {
    int32_t rank;
    int32_t count;
  };

  // First rank whose string is at least `length` long.
  int32_t FirstRankOfLength(int64_t length) const;

  int q_;
  std::vector<std::string> strings_;
  // rank -> string id, ordered by (length, id).
  std::vector<int32_t> id_of_rank_;
  // length_start_[L] = first rank with length >= L, for L in
  // [0, max length + 1].
  std::vector<int32_t> length_start_;
  // 2^(8q) + 1 offsets into postings_, indexed by packed gram; each list
  // ascends by rank.
  std::vector<int32_t> offsets_;
  std::vector<Posting> postings_;
};

}  // namespace kjoin

#endif  // KJOIN_TEXT_QGRAM_INDEX_H_
