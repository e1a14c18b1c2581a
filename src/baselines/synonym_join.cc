#include "baselines/synonym_join.h"

#include <algorithm>
#include <unordered_map>

#include "common/timer.h"
#include "core/posting_store.h"
#include "core/prefix.h"
#include "text/tokenizer.h"

namespace kjoin {
namespace {

std::string Normalize(const std::string& token) {
  static const Tokenizer* const kTokenizer = new Tokenizer();
  return kTokenizer->Normalize(token);
}

// Multiset intersection size.
int64_t MultisetOverlap(const std::vector<std::string>& x, const std::vector<std::string>& y) {
  std::unordered_map<std::string, int32_t> counts;
  for (const std::string& token : x) ++counts[token];
  int64_t overlap = 0;
  for (const std::string& token : y) {
    auto it = counts.find(token);
    if (it != counts.end() && it->second > 0) {
      --it->second;
      ++overlap;
    }
  }
  return overlap;
}

}  // namespace

SynonymJoin::SynonymJoin(const std::vector<std::pair<std::string, std::string>>& rules,
                         SynonymJoinOptions options)
    : options_(options) {
  rules_.reserve(rules.size());
  for (const auto& [alias, canonical] : rules) {
    rules_.emplace_back(Normalize(alias), Normalize(canonical));
  }
  std::sort(rules_.begin(), rules_.end());
  rules_.erase(std::unique(rules_.begin(), rules_.end(),
                           [](const auto& a, const auto& b) { return a.first == b.first; }),
               rules_.end());
}

std::string SynonymJoin::Canonicalize(const std::string& token) const {
  const std::string normalized = Normalize(token);
  auto it = std::lower_bound(rules_.begin(), rules_.end(), normalized,
                             [](const auto& rule, const std::string& key) {
                               return rule.first < key;
                             });
  if (it != rules_.end() && it->first == normalized) return it->second;
  return normalized;
}

std::vector<std::string> SynonymJoin::CanonicalTokens(
    const std::vector<std::string>& record) const {
  std::vector<std::string> canonical;
  canonical.reserve(record.size());
  for (const std::string& token : record) canonical.push_back(Canonicalize(token));
  return canonical;
}

double SynonymJoin::Similarity(const std::vector<std::string>& x,
                               const std::vector<std::string>& y) const {
  if (x.empty() && y.empty()) return 1.0;
  const std::vector<std::string> cx = CanonicalTokens(x);
  const std::vector<std::string> cy = CanonicalTokens(y);
  const double overlap = static_cast<double>(MultisetOverlap(cx, cy));
  const double denom = static_cast<double>(cx.size()) + cy.size() - overlap;
  return denom <= 0.0 ? 1.0 : overlap / denom;
}

JoinResult SynonymJoin::SelfJoin(const std::vector<std::vector<std::string>>& records) const {
  JoinResult result;
  result.stats.num_objects_left = static_cast<int64_t>(records.size());
  result.stats.num_objects_right = result.stats.num_objects_left;
  WallTimer total_timer;

  WallTimer phase_timer;
  std::vector<std::vector<std::string>> canonical(records.size());
  std::unordered_map<std::string, SigId> token_ids;
  auto intern = [&](const std::string& token) {
    auto [it, inserted] = token_ids.emplace(token, static_cast<SigId>(token_ids.size()));
    return it->second;
  };
  std::vector<std::vector<Signature>> sigs(records.size());
  GlobalSignatureOrder order;
  for (size_t i = 0; i < records.size(); ++i) {
    canonical[i] = CanonicalTokens(records[i]);
    for (int32_t t = 0; t < static_cast<int32_t>(canonical[i].size()); ++t) {
      sigs[i].push_back({intern(canonical[i][t]), t, 1.0f});
    }
    order.CountObject(sigs[i]);
    result.stats.total_signatures += static_cast<int64_t>(sigs[i].size());
  }
  order.Finalize();

  std::vector<int32_t> prefix_len(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    SortByGlobalOrder(order, &sigs[i]);
    const int32_t tau_s = MinSimilarElements(static_cast<int32_t>(canonical[i].size()),
                                             options_.tau, SetMetric::kJaccard);
    prefix_len[i] = PrefixLengthDistinct(sigs[i], tau_s);
    result.stats.prefix_signatures += prefix_len[i];
  }
  result.stats.signature_seconds = phase_timer.ElapsedSeconds();

  // Prefix postings by rank, emitted in id order: each list ascends, and
  // probe x reads only the entries below x.
  StopWatch filter_watch, verify_watch;
  filter_watch.Start();
  const PostingStore index = PostingStore::Build(order.num_signatures(), [&](auto&& emit) {
    for (int32_t x = 0; x < static_cast<int32_t>(records.size()); ++x) {
      for (int32_t k = 0; k < prefix_len[x]; ++k) emit(order.Rank(sigs[x][k].id), x);
    }
  });
  filter_watch.Stop();
  std::vector<int32_t> last_probe(records.size(), -1);
  for (int32_t x = 0; x < static_cast<int32_t>(records.size()); ++x) {
    filter_watch.Start();
    std::vector<int32_t> candidates;
    for (int32_t k = 0; k < prefix_len[x]; ++k) {
      const int32_t rank = order.Rank(sigs[x][k].id);
      for (const int32_t* y = index.docs(rank); y != index.docs_end(rank) && *y < x; ++y) {
        if (last_probe[*y] == x) continue;
        last_probe[*y] = x;
        candidates.push_back(*y);
      }
    }
    filter_watch.Stop();

    verify_watch.Start();
    result.stats.candidates += static_cast<int64_t>(candidates.size());
    for (int32_t y : candidates) {
      ++result.stats.verify.pairs_verified;
      const double needed =
          MinFuzzyOverlap(static_cast<int32_t>(canonical[x].size()),
                          static_cast<int32_t>(canonical[y].size()), options_.tau,
                          SetMetric::kJaccard);
      if (static_cast<double>(MultisetOverlap(canonical[x], canonical[y])) >= needed - 1e-9) {
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
