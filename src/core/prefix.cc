#include "core/prefix.h"

#include <algorithm>

#include "common/logging.h"

namespace kjoin {

namespace {

// Per-element walk state of the prefix routines, indexed by
// Signature::element. Every routine leaves the entries it touched zeroed.
struct ElementWalk {
  int32_t total = 0;        // the element's signatures in the list (weighted rule)
  int32_t removed = 0;      // of those, in the removed suffix
  double max_weight = 0.0;  // largest removed weight (weighted rule)
};

std::vector<ElementWalk>& WalkState(std::span<const Signature> sigs) {
  static thread_local std::vector<ElementWalk> state;
  int32_t max_element = 0;
  for (const Signature& sig : sigs) {
    KJOIN_CHECK_GE(sig.element, 0);
    max_element = std::max(max_element, sig.element);
  }
  if (state.size() <= static_cast<size_t>(max_element)) {
    state.resize(static_cast<size_t>(max_element) + 1);
  }
  return state;
}

}  // namespace

void GlobalSignatureOrder::Grow(size_t slots) {
  if (slots <= df_.size()) return;
  df_.resize(slots, 0);
  stamp_.resize(slots, 0);
}

void GlobalSignatureOrder::Reserve(SigId max_id) {
  KJOIN_CHECK(!finalized_);
  KJOIN_CHECK_GE(max_id, kUnknownTokenSignature);
  Grow(static_cast<size_t>(max_id) + 2);
}

void GlobalSignatureOrder::CountObject(std::span<const Signature> sigs) {
  KJOIN_CHECK(!finalized_);
  KJOIN_CHECK_LT(objects_counted_, UINT32_MAX);
  // Dedupe within the object: df counts objects, not occurrences. A slot
  // already stamped with this object's number has counted it.
  const uint32_t stamp = ++objects_counted_;
  for (const Signature& sig : sigs) {
    KJOIN_CHECK_GE(sig.id, kUnknownTokenSignature);
    const size_t slot = static_cast<size_t>(sig.id + 1);
    if (slot >= df_.size()) Grow(slot + 1);
    if (stamp_[slot] == stamp) continue;
    stamp_[slot] = stamp;
    ++df_[slot];
  }
}

void GlobalSignatureOrder::Finalize() {
  KJOIN_CHECK(!finalized_);
  finalized_ = true;
  stamp_.clear();
  stamp_.shrink_to_fit();
  // Counting sort by df. Slots are visited in ascending id order, so ids
  // with equal df keep ascending id order: rank order (df, id).
  int32_t max_df = 0;
  for (const int32_t df : df_) max_df = std::max(max_df, df);
  std::vector<int32_t> next_rank(static_cast<size_t>(max_df) + 1, 0);
  for (const int32_t df : df_) {
    if (df > 0) ++next_rank[df];
  }
  int32_t ranked = 0;
  for (int32_t& slot_count : next_rank) {
    const int32_t count = slot_count;
    slot_count = ranked;
    ranked += count;
  }
  by_rank_.resize(static_cast<size_t>(ranked));
  rank_.assign(df_.size(), -1);
  for (size_t slot = 0; slot < df_.size(); ++slot) {
    if (df_[slot] == 0) continue;
    const int32_t r = next_rank[df_[slot]]++;
    by_rank_[r] = static_cast<SigId>(slot) - 1;
    rank_[slot] = r;
  }
}

int32_t GlobalSignatureOrder::Rank(SigId id) const {
  KJOIN_CHECK(finalized_);
  // Ids below -1 wrap to slots past the end.
  const uint64_t slot = static_cast<uint64_t>(id) + 1;
  KJOIN_CHECK(slot < rank_.size() && rank_[slot] >= 0) << "signature " << id
                                                        << " was never counted";
  return rank_[slot];
}

int32_t GlobalSignatureOrder::DocumentFrequency(SigId id) const {
  KJOIN_CHECK(finalized_) << "DocumentFrequency before Finalize";
  const uint64_t slot = static_cast<uint64_t>(id) + 1;
  return slot < df_.size() ? df_[slot] : 0;
}

void SortByGlobalOrder(const GlobalSignatureOrder& order, std::vector<Signature>* sigs) {
  static thread_local std::vector<int32_t> ranks;
  SortByGlobalOrderWithRanks(order, *sigs, &ranks);
}

void SortByGlobalOrderWithRanks(const GlobalSignatureOrder& order, std::span<Signature> sigs,
                                std::vector<int32_t>* ranks) {
  // Resolve each rank once, then sort by it.
  static thread_local std::vector<std::pair<int32_t, Signature>> keyed;
  keyed.clear();
  for (const Signature& sig : sigs) keyed.emplace_back(order.Rank(sig.id), sig);
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second.element < b.second.element;
  });
  ranks->resize(keyed.size());
  for (size_t i = 0; i < keyed.size(); ++i) {
    sigs[i] = keyed[i].second;
    (*ranks)[i] = keyed[i].first;
  }
}

int32_t PrefixLengthDistinct(std::span<const Signature> sigs,
                             int32_t min_similar_elements) {
  if (sigs.empty()) return 0;
  if (min_similar_elements <= 0) return static_cast<int32_t>(sigs.size());
  // Walk from the tail, removing signatures while the removed set touches
  // at most τ_S − 1 distinct elements.
  std::vector<ElementWalk>& walk = WalkState(sigs);
  int32_t removed_elements = 0;
  int32_t prefix = static_cast<int32_t>(sigs.size());
  while (prefix > 1) {
    ElementWalk& element = walk[sigs[prefix - 1].element];
    const bool new_element = element.removed == 0;
    if (new_element && removed_elements + 1 > min_similar_elements - 1) {
      break;  // removing this signature would let the suffix cover τ_S elements
    }
    removed_elements += new_element ? 1 : 0;
    ++element.removed;
    --prefix;
  }
  for (size_t k = static_cast<size_t>(prefix); k < sigs.size(); ++k) {
    walk[sigs[k].element].removed = 0;
  }
  return prefix;
}

int32_t PrefixLengthWeighted(std::span<const Signature> sigs, double overlap_budget) {
  if (sigs.empty()) return 0;
  if (overlap_budget <= 0.0) return static_cast<int32_t>(sigs.size());

  // Total signature count per element, to detect full removal.
  std::vector<ElementWalk>& walk = WalkState(sigs);
  for (const Signature& sig : sigs) ++walk[sig.element].total;

  auto contribution = [](const ElementWalk& element) {
    if (element.removed == 0) return 0.0;
    // A fully removed element can still be matched (similarity 1) by an
    // identical token whose own prefix survived, so it costs at least 1.
    return element.removed >= element.total ? std::max(1.0, element.max_weight)
                                            : element.max_weight;
  };

  double mass = 0.0;
  int32_t prefix = static_cast<int32_t>(sigs.size());
  while (prefix > 1) {
    const Signature& sig = sigs[prefix - 1];
    ElementWalk& element = walk[sig.element];
    ElementWalk after = element;
    ++after.removed;
    after.max_weight = std::max(after.max_weight, static_cast<double>(sig.weight));
    const double new_mass = mass - contribution(element) + contribution(after);
    if (new_mass >= overlap_budget - 1e-9) break;  // Definition 9's stop condition
    element = after;
    mass = new_mass;
    --prefix;
  }
  for (const Signature& sig : sigs) walk[sig.element] = ElementWalk{};
  return prefix;
}

}  // namespace kjoin
