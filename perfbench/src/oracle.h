#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Brute-force answers for every workload. Similarities come from
// KJoin::ExactSimilarity — the maximum-weight matching over the full
// element bigraph — on an instance built only for that: no signature
// filter, no pruning bound, no similarity cache, one thread. The oracle
// never compares one fast path against another.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/kjoin.h"
#include "core/kjoin_index.h"

namespace perfbench {

// Similarities this close to each other (or to τ) count as ties: the
// verifier and the exact matcher may sum one matching in different
// orders, so the last bits can differ.
inline constexpr double kSimilarityEpsilon = 1e-9;

class BruteForce {
 public:
  BruteForce(const kjoin::Hierarchy& hierarchy, double delta, double tau, bool plus_mode);

  double Similarity(const kjoin::Object& x, const kjoin::Object& y) const {
    return join_.ExactSimilarity(x, y);
  }
  double tau() const { return join_.options().tau; }

 private:
  kjoin::KJoin join_;
};

// Checks a self-join answer: every emitted pair is in range, listed once
// and τ-similar; and for each row in `rows`, the brute-force row (every j
// with similarity >= τ) equals the emitted row. Returns one description
// per disagreement.
std::vector<std::string> CheckSelfJoin(const BruteForce& oracle,
                                       const std::vector<kjoin::Object>& objects,
                                       const std::vector<std::pair<int32_t, int32_t>>& pairs,
                                       const std::vector<int32_t>& rows);

// Checks one top-k answer against brute force over a live set:
// `similarity[g]` is object g's exact similarity to the query and
// `live[g]` whether g is searchable. True when `got` is a correct top-k
// under HitBefore (similarity descending, object index ascending) with
// floor τ, ties at the k-th hit and similarities within
// kSimilarityEpsilon of τ included; otherwise fills `why`.
bool TopKMatches(const std::vector<kjoin::SearchHit>& got, const std::vector<double>& similarity,
                 const std::vector<char>& live, int32_t k, double tau, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
