#include "baselines/fastjoin.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/timer.h"
#include "core/posting_store.h"
#include "core/prefix.h"
#include "matching/bigraph.h"
#include "matching/hungarian.h"
#include "text/edit_distance.h"
#include "text/qgram_index.h"

namespace kjoin {

FastJoin::FastJoin(FastJoinOptions options) : options_(options) {
  KJOIN_CHECK(options.delta >= 0.5 && options.delta <= 1.0)
      << "the q-gram witness argument needs delta >= 0.5";
  KJOIN_CHECK_GE(options.qgram_q, 2);
}

double FastJoin::FuzzyOverlap(const std::vector<std::string>& x,
                              const std::vector<std::string>& y) const {
  Bigraph graph(static_cast<int32_t>(x.size()), static_cast<int32_t>(y.size()));
  for (int32_t i = 0; i < static_cast<int32_t>(x.size()); ++i) {
    for (int32_t j = 0; j < static_cast<int32_t>(y.size()); ++j) {
      if (x[i] == y[j]) {
        graph.AddEdge(i, j, 1.0);
        continue;
      }
      if (!EditSimilarityAtLeast(x[i], y[j], options_.delta)) continue;
      graph.AddEdge(i, j, EditSimilarity(x[i], y[j]));
    }
  }
  return MaxWeightMatching(graph);
}

double FastJoin::Similarity(const std::vector<std::string>& x,
                            const std::vector<std::string>& y) const {
  if (x.empty() && y.empty()) return 1.0;
  const double overlap = FuzzyOverlap(x, y);
  const double denom = static_cast<double>(x.size()) + y.size() - overlap;
  return denom <= 0.0 ? 1.0 : overlap / denom;
}

JoinResult FastJoin::SelfJoin(const std::vector<std::vector<std::string>>& records) const {
  JoinResult result;
  result.stats.num_objects_left = static_cast<int64_t>(records.size());
  result.stats.num_objects_right = result.stats.num_objects_left;
  WallTimer total_timer;

  // Signatures: padded q-grams of every token, interned to dense SigIds.
  WallTimer phase_timer;
  std::unordered_map<std::string, SigId> gram_ids;
  auto intern = [&](const std::string& gram) {
    auto [it, inserted] = gram_ids.emplace(gram, static_cast<SigId>(gram_ids.size()));
    return it->second;
  };
  std::vector<std::vector<Signature>> sigs(records.size());
  GlobalSignatureOrder order;
  for (size_t i = 0; i < records.size(); ++i) {
    for (int32_t t = 0; t < static_cast<int32_t>(records[i].size()); ++t) {
      for (const std::string& gram : QGramIndex::PaddedQGrams(records[i][t], options_.qgram_q)) {
        sigs[i].push_back({intern(gram), t, 1.0f});
      }
    }
    // Dedupe (gram, token) repeats to keep prefix lists tight.
    std::sort(sigs[i].begin(), sigs[i].end(), [](const Signature& a, const Signature& b) {
      if (a.id != b.id) return a.id < b.id;
      return a.element < b.element;
    });
    sigs[i].erase(std::unique(sigs[i].begin(), sigs[i].end(),
                              [](const Signature& a, const Signature& b) {
                                return a.id == b.id && a.element == b.element;
                              }),
                  sigs[i].end());
    order.CountObject(sigs[i]);
    result.stats.total_signatures += static_cast<int64_t>(sigs[i].size());
  }
  order.Finalize();

  std::vector<int32_t> prefix_len(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    SortByGlobalOrder(order, &sigs[i]);
    const int32_t tau_s = MinSimilarElements(static_cast<int32_t>(records[i].size()),
                                             options_.tau, SetMetric::kJaccard);
    prefix_len[i] = PrefixLengthDistinct(sigs[i], tau_s);
    result.stats.prefix_signatures += prefix_len[i];
  }
  result.stats.signature_seconds = phase_timer.ElapsedSeconds();

  // Prefix postings by rank, emitted in id order: each list ascends, and
  // probe x reads only the entries below x.
  StopWatch filter_watch, verify_watch;
  filter_watch.Start();
  const auto for_each_prefix_rank = [&](int32_t x, auto&& visit) {
    int32_t previous_rank = -1;
    for (int32_t k = 0; k < prefix_len[x]; ++k) {
      const int32_t rank = order.Rank(sigs[x][k].id);
      if (rank == previous_rank) continue;
      previous_rank = rank;
      visit(rank);
    }
  };
  const PostingStore index = PostingStore::Build(order.num_signatures(), [&](auto&& emit) {
    for (int32_t x = 0; x < static_cast<int32_t>(records.size()); ++x) {
      for_each_prefix_rank(x, [&](int32_t rank) { emit(rank, x); });
    }
  });
  filter_watch.Stop();
  std::vector<int32_t> last_probe(records.size(), -1);
  for (int32_t x = 0; x < static_cast<int32_t>(records.size()); ++x) {
    filter_watch.Start();
    std::vector<int32_t> candidates;
    for_each_prefix_rank(x, [&](int32_t rank) {
      for (const int32_t* y = index.docs(rank); y != index.docs_end(rank) && *y < x; ++y) {
        if (last_probe[*y] == x) continue;
        last_probe[*y] = x;
        candidates.push_back(*y);
      }
    });
    filter_watch.Stop();

    verify_watch.Start();
    result.stats.candidates += static_cast<int64_t>(candidates.size());
    for (int32_t y : candidates) {
      ++result.stats.verify.pairs_verified;
      // Count filter on sizes before the expensive matching.
      const double needed =
          MinFuzzyOverlap(static_cast<int32_t>(records[x].size()),
                          static_cast<int32_t>(records[y].size()), options_.tau,
                          SetMetric::kJaccard);
      if (static_cast<double>(std::min(records[x].size(), records[y].size())) <
          needed - 1e-9) {
        ++result.stats.verify.pruned_by_count;
        continue;
      }
      ++result.stats.verify.hungarian_runs;
      if (FuzzyOverlap(records[x], records[y]) >= needed - 1e-9) {
        result.pairs.emplace_back(y, x);
      }
    }
    verify_watch.Stop();
  }

  result.stats.filter_seconds = filter_watch.TotalSeconds();
  result.stats.verify_seconds = verify_watch.TotalSeconds();
  result.stats.results = static_cast<int64_t>(result.pairs.size());
  result.stats.verify.results = result.stats.results;
  result.stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace kjoin
