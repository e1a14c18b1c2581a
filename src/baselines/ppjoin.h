#ifndef KJOIN_BASELINES_PPJOIN_H_
#define KJOIN_BASELINES_PPJOIN_H_

// PPJoin (Xiao, Wang, Lin, Yu: "Efficient similarity joins for near
// duplicate detection", WWW 2008) — the classic exact token-Jaccard set
// similarity join with prefix and position filtering.
//
// K-Join's related work builds on this line; having it as a baseline
// separates the cost of *knowledge-aware* matching from plain set
// matching. Records are treated as token multisets (duplicate tokens are
// distinguished by occurrence number, the standard reduction).

#include <string>
#include <vector>

#include "core/kjoin.h"  // JoinResult

namespace kjoin {

struct PpJoinOptions {
  double tau = 0.8;  // Jaccard threshold
  // Positional filter on/off (ablation; the prefix filter always runs).
  bool position_filter = true;
};

class PpJoin {
 public:
  explicit PpJoin(PpJoinOptions options);

  JoinResult SelfJoin(const std::vector<std::vector<std::string>>& records) const;

  // Exact multiset Jaccard (the verification semantics).
  static double Similarity(const std::vector<std::string>& x,
                           const std::vector<std::string>& y);

  const PpJoinOptions& options() const { return options_; }

 private:
  PpJoinOptions options_;
};

}  // namespace kjoin

#endif  // KJOIN_BASELINES_PPJOIN_H_
