#include "core/kjoin_index.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "core/prefix.h"
#include "core/probe_set.h"

namespace kjoin {

namespace {

// Deadline/cancel polling stride inside the verification loop. Polling is
// two relaxed loads every kControlStride pairs — invisible next to one
// verification — while bounding overshoot to a handful of pairs.
constexpr int kControlStride = 8;

// Float-safety slack between the shared SearchBound and the prune
// thresholds derived from it: the progressive probe prunes strictly below
// bound - slack, so a hit tied with the final k-th best can never be lost
// to floating-point noise in the prefix-budget or overlap computations.
// The verifier's own accept tolerance is 1e-9; 1e-7 dominates it by two
// orders while costing no measurable extra work.
constexpr double kSearchBoundSlack = 1e-7;

}  // namespace

int32_t SignaturePostings::Find(SigId id) const {
  const auto it = std::lower_bound(keys.begin(), keys.end(), id);
  if (it == keys.end() || *it != id) return -1;
  return static_cast<int32_t>(it - keys.begin());
}

KJoinIndex::KJoinIndex(const Hierarchy& hierarchy, KJoinOptions options,
                       std::vector<Object> objects)
    : hierarchy_(&hierarchy),
      options_(options),
      objects_(std::move(objects)),
      lca_(std::make_shared<LcaIndex>(hierarchy)),
      element_sim_(*lca_, options.element_metric),
      signatures_(hierarchy, options.element_metric, options.scheme, options.delta),
      object_sim_(element_sim_, options.delta, options.set_metric),
      verifier_(element_sim_, signatures_,
                VerifierOptions{options.delta, options.tau, options.verify_mode,
                                options.set_metric, options.count_pruning,
                                options.weighted_count_pruning, options.plus_mode}) {
  IndexObjects();
  FindEmptyObjects();
}

KJoinIndex::KJoinIndex(const Hierarchy& hierarchy, KJoinOptions options,
                       std::vector<Object> objects, RestoredParts parts)
    : hierarchy_(&hierarchy),
      options_(options),
      objects_(std::move(objects)),
      lca_(parts.lca != nullptr ? std::move(parts.lca)
                                : std::make_shared<const LcaIndex>(hierarchy)),
      element_sim_(*lca_, options.element_metric),
      signatures_(hierarchy, options.element_metric, options.scheme, options.delta),
      object_sim_(element_sim_, options.delta, options.set_metric),
      verifier_(element_sim_, signatures_,
                VerifierOptions{options.delta, options.tau, options.verify_mode,
                                options.set_metric, options.count_pruning,
                                options.weighted_count_pruning, options.plus_mode}),
      postings_(std::move(parts.postings)) {
  KJOIN_CHECK(&lca_->hierarchy() == hierarchy_)
      << "restored LCA index belongs to a different hierarchy";
  for (const int32_t index : parts.tombstones) {
    KJOIN_CHECK(index >= 0 && static_cast<size_t>(index) < objects_.size())
        << "restored tombstone " << index << " outside the collection";
    dead_.insert(index);
  }
  total_dead_ = static_cast<int64_t>(dead_.size());
  FindEmptyObjects();
}

KJoinIndex::KJoinIndex(std::shared_ptr<const KJoinIndex> base, std::vector<Object> objects,
                       const std::vector<int32_t>& tombstones)
    : hierarchy_(base->hierarchy_),
      options_(base->options_),
      objects_(std::move(objects)),
      base_(std::move(base)),
      base_total_(static_cast<int32_t>(base_->num_indexed())),
      depth_(base_->depth_ + 1),
      total_dead_(base_->total_dead_),
      lca_(base_->lca_),
      element_sim_(*lca_, options_.element_metric),
      signatures_(*hierarchy_, options_.element_metric, options_.scheme, options_.delta),
      object_sim_(element_sim_, options_.delta, options_.set_metric),
      verifier_(element_sim_, signatures_,
                VerifierOptions{options_.delta, options_.tau, options_.verify_mode,
                                options_.set_metric, options_.count_pruning,
                                options_.weighted_count_pruning, options_.plus_mode}) {
  IndexObjects();
  FindEmptyObjects();
  for (const int32_t index : tombstones) {
    KJOIN_CHECK(index >= 0 && index < num_indexed())
        << "tombstone " << index << " outside [0, " << num_indexed() << ")";
    if (!deleted(index)) dead_.insert(index);
  }
  total_dead_ += static_cast<int64_t>(dead_.size());
}

void KJoinIndex::IndexObjects() {
  // Each object's full signature set, deduplicated per object: object
  // slot's ids are ids[id_offset[slot], id_offset[slot + 1]). The keys
  // are their union, ascending; each id then becomes its key's slot.
  std::vector<SigId> ids;
  std::vector<int64_t> id_offset{0};
  id_offset.reserve(objects_.size() + 1);
  for (const Object& object : objects_) {
    const auto start = static_cast<std::ptrdiff_t>(ids.size());
    for (const Signature& sig : signatures_.Generate(object)) ids.push_back(sig.id);
    std::sort(ids.begin() + start, ids.end());
    ids.erase(std::unique(ids.begin() + start, ids.end()), ids.end());
    id_offset.push_back(static_cast<int64_t>(ids.size()));
  }
  std::vector<SigId>& keys = postings_.keys;
  keys = ids;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<int32_t> slots(ids.size());
  for (size_t k = 0; k < ids.size(); ++k) slots[k] = postings_.Find(ids[k]);
  // Objects are emitted in index order, so every list ascends.
  postings_.lists = PostingStore::Build(static_cast<int32_t>(keys.size()), [&](auto&& emit) {
    for (size_t slot = 0; slot < objects_.size(); ++slot) {
      const int32_t index = base_total_ + static_cast<int32_t>(slot);
      for (int64_t k = id_offset[slot]; k < id_offset[slot + 1]; ++k) {
        emit(slots[static_cast<size_t>(k)], index);
      }
    }
  });
}

void KJoinIndex::FindEmptyObjects() {
  for (size_t slot = 0; slot < objects_.size(); ++slot) {
    if (objects_[slot].size() == 0) empty_.push_back(base_total_ + static_cast<int32_t>(slot));
  }
}

void KJoinIndex::CollectLayers(std::vector<const KJoinIndex*>* layers) const {
  if (base_ != nullptr) base_->CollectLayers(layers);
  layers->push_back(this);
}

std::vector<int32_t> KJoinIndex::Candidates(const Object& query, const SearchBound& bound,
                                            SearchStats* stats) const {
  // The usual case is a flat index (one layer, no tombstones); deltas
  // probe every layer's store.
  const KJoinIndex* flat[1] = {this};
  std::vector<const KJoinIndex*> chain;
  const KJoinIndex* const* layers = flat;
  size_t num_layers = 1;
  if (base_ != nullptr) {
    CollectLayers(&chain);
    layers = chain.data();
    num_layers = chain.size();
  }
  const bool check_dead = total_dead_ > 0;

  std::vector<Signature> sigs = signatures_.Generate(query);
  // Order by indexed-side document frequency ascending (chain-summed
  // posting-list length; absent signatures have df 0). Any fixed order is
  // sound for the asymmetric search argument; df-ascending keeps probed
  // lists short.
  auto df_of = [&](SigId id) {
    int64_t df = 0;
    for (size_t l = 0; l < num_layers; ++l) {
      const SignaturePostings& postings = layers[l]->postings_;
      const int32_t slot = postings.Find(id);
      if (slot >= 0) df += postings.lists.length(slot);
    }
    return df;
  };
  // Cache each signature's df before sorting: df_of walks every layer's
  // store per call, and the comparator would re-derive it
  // O(s log s) times per probe (the probes-per-query factor of a sharded
  // scatter makes that per-probe cost visible).
  std::vector<std::pair<int64_t, Signature>> keyed(sigs.size());
  for (size_t i = 0; i < sigs.size(); ++i) keyed[i] = {df_of(sigs[i].id), sigs[i]};
  std::sort(keyed.begin(), keyed.end(),
            [](const std::pair<int64_t, Signature>& a,
               const std::pair<int64_t, Signature>& b) {
              if (a.first != b.first) return a.first < b.first;
              if (a.second.id != b.second.id) return a.second.id < b.second.id;
              return a.second.element < b.second.element;
            });
  for (size_t i = 0; i < sigs.size(); ++i) sigs[i] = keyed[i].second;

  // Prefix length at a given similarity floor. Prefixes nest: a floor
  // above τ only ever shortens the prefix (the overlap budget grows with
  // the floor and the signature order is fixed), so re-deriving the
  // prefix mid-probe at a risen bound is exactly the prefix that floor
  // would have produced up front.
  auto prefix_at = [&](double floor) {
    if (options_.weighted_prefix) {
      return PrefixLengthWeighted(
          sigs, MinOverlapWithAnyPartner(query.size(), floor, options_.set_metric));
    }
    return PrefixLengthDistinct(
        sigs, MinSimilarElements(query.size(), floor, options_.set_metric));
  };
  int32_t prefix = prefix_at(options_.tau);
  // The floor the current prefix was derived from (re-derived whenever
  // the bound has risen past it).
  double level = options_.tau;

  // Add the prefix's posting lists to the thread's probe set, then drain
  // every object touched at least once in ascending index order; every
  // consumer either sorts hits or treats candidates as a set. An object
  // whose size rules it out at τ (the size bound, docs/THEORY.md) is
  // dropped here: verification could only reject it, after building its
  // grouping plan.
  ProbeSet& probe_set = ThreadProbeSet();
  probe_set.Reserve(num_indexed());

  SigId previous = 0;
  bool have_previous = false;
  for (int32_t k = 0; k < prefix; ++k) {
    const double raised = bound.value() - kSearchBoundSlack;
    if (raised > level) {
      level = raised;
      int32_t cut = prefix_at(level);
      if (cut < k) cut = k;
      if (cut < prefix) {
        if (stats != nullptr) {
          // Account the lists (and their entries) the tightened prefix
          // lets this probe skip, deduplicating repeated signature ids
          // the way the probe loop does.
          SigId prev_id = cut > 0 ? sigs[cut - 1].id : 0;
          bool have_prev = cut > 0;
          for (int32_t j = cut; j < prefix; ++j) {
            if (have_prev && sigs[j].id == prev_id) continue;
            prev_id = sigs[j].id;
            have_prev = true;
            ++stats->bound_pruned_lists;
            stats->bound_pruned_entries += df_of(sigs[j].id);
          }
        }
        prefix = cut;
        if (k >= prefix) break;
      }
    }
    if (have_previous && sigs[k].id == previous) continue;
    previous = sigs[k].id;
    have_previous = true;
    for (size_t l = 0; l < num_layers; ++l) {
      const SignaturePostings& postings = layers[l]->postings_;
      const int32_t slot = postings.Find(sigs[k].id);
      if (slot >= 0) probe_set.Add(postings.lists.docs(slot), postings.lists.length(slot));
    }
  }

  std::vector<int32_t> candidates;
  probe_set.Drain([&](int32_t index) {
    if (check_dead && deleted(index)) return;
    const int32_t size = object_at(index).size();
    if (OverlapOutOfReach(MinFuzzyOverlap(query.size(), size, options_.tau, options_.set_metric),
                          query.size(), size)) {
      return;
    }
    candidates.push_back(index);
  });
  return candidates;
}

void KJoinIndex::Flatten(std::vector<Object>* objects, RestoredParts* parts) const {
  std::vector<const KJoinIndex*> layers;
  CollectLayers(&layers);

  objects->clear();
  objects->reserve(static_cast<size_t>(num_indexed()));
  parts->lca = lca_;
  std::vector<int32_t>& tombstones = parts->tombstones;
  tombstones.clear();
  for (const KJoinIndex* layer : layers) {
    // Dead objects are kept in place: chain-global indexes stay stable
    // across a flatten, so published hits and WAL deletes keep meaning
    // the same rows.
    objects->insert(objects->end(), layer->objects_.begin(), layer->objects_.end());
    tombstones.insert(tombstones.end(), layer->dead_.begin(), layer->dead_.end());
  }
  std::sort(tombstones.begin(), tombstones.end());
  tombstones.erase(std::unique(tombstones.begin(), tombstones.end()), tombstones.end());
  std::vector<char> dead(static_cast<size_t>(num_indexed()), 0);
  for (const int32_t index : tombstones) dead[static_cast<size_t>(index)] = 1;
  const auto live = [&dead](int32_t doc) { return dead[static_cast<size_t>(doc)] == 0; };

  // The keys: every layer's signatures that still have a live carrier,
  // ascending. A signature all of whose carriers died must not leave an
  // empty list behind (the snapshot format forbids them, and df counts
  // would skew).
  SignaturePostings& merged = parts->postings;
  merged.keys.clear();
  for (const KJoinIndex* layer : layers) {
    const SignaturePostings& postings = layer->postings_;
    for (int32_t slot = 0; slot < postings.lists.num_slots(); ++slot) {
      if (std::any_of(postings.lists.docs(slot), postings.lists.docs_end(slot), live)) {
        merged.keys.push_back(postings.keys[static_cast<size_t>(slot)]);
      }
    }
  }
  std::sort(merged.keys.begin(), merged.keys.end());
  merged.keys.erase(std::unique(merged.keys.begin(), merged.keys.end()), merged.keys.end());

  // Each layer's live entries, emitted layer by layer. Layers are ordered
  // deepest base first and each layer only indexes objects past its base,
  // so concatenating per-layer lists keeps doc ids ascending without a
  // sort.
  merged.lists = PostingStore::Build(static_cast<int32_t>(merged.keys.size()), [&](auto&& emit) {
    for (const KJoinIndex* layer : layers) {
      const SignaturePostings& postings = layer->postings_;
      for (int32_t slot = 0; slot < postings.lists.num_slots(); ++slot) {
        const int32_t to = merged.Find(postings.keys[static_cast<size_t>(slot)]);
        for (const int32_t* doc = postings.lists.docs(slot); doc != postings.lists.docs_end(slot);
             ++doc) {
          if (live(*doc)) emit(to, *doc);
        }
      }
    }
  });
}

Status KJoinIndex::SearchTopK(const Object& query, int32_t k, double min_similarity,
                              const JoinControl& control, std::vector<SearchHit>* hits,
                              SearchStats* stats, SearchBound* bound) const {
  hits->clear();
  if (!(min_similarity >= options_.tau)) {  // NaN fails too
    return InvalidArgumentError("SearchTopK min_similarity " +
                                std::to_string(min_similarity) +
                                " below the index's configured tau " +
                                std::to_string(options_.tau));
  }
  SearchBound local_bound(min_similarity);
  if (bound == nullptr) bound = &local_bound;
  const bool has_deadline = control.deadline_seconds > 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(has_deadline ? control.deadline_seconds : 0.0));
  const auto tripped = [&]() -> Status {
    if (control.cancel_token != nullptr && control.cancel_token->cancelled()) {
      return CancelledError("search cancelled");
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      return DeadlineExceededError("search deadline exceeded");
    }
    return OkStatus();
  };

  Status status = tripped();
  VerifyStats verify_stats;
  int64_t candidate_count = 0;
  // k > 0: a heap in HitBefore order with the worst kept hit at the
  // front, so the k-th cut (and the bound offered from it) honors the
  // documented total order through similarity ties. k <= 0: plain
  // accumulation, no tightening possible without a k-th best.
  std::vector<SearchHit> best;
  if (status.ok() && query.size() == 0) {
    // Similarity 1 (CombineOverlap) to each live empty object, taken in
    // ascending index order — HitBefore order for equal similarities — so
    // the first k are the top-k. The floor keeps the 1e-9 tolerance.
    std::vector<const KJoinIndex*> layers;
    CollectLayers(&layers);
    for (const KJoinIndex* layer : layers) {
      for (const int32_t i : layer->empty_) {
        if (min_similarity > 1.0 + 1e-9 || (k > 0 && static_cast<int32_t>(best.size()) == k)) {
          break;
        }
        if (!deleted(i)) best.push_back({i, 1.0});
      }
    }
  } else if (status.ok()) {
    const std::vector<int32_t> candidates = Candidates(query, *bound, stats);
    candidate_count = static_cast<int64_t>(candidates.size());
    // One query, a stream of candidates: build the query's grouping plan
    // once for the whole probe instead of once per verified pair, and each
    // candidate's into one plan reused across the loop.
    ObjectGroupPlan query_plan;
    verifier_.BuildPlan(query, &query_plan);
    ObjectGroupPlan object_plan;
    int since_poll = 0;
    for (int32_t i : candidates) {
      if (++since_poll >= kControlStride) {
        since_poll = 0;
        status = tripped();
        if (!status.ok()) break;
      }
      // The slack keeps the verify threshold strictly below every
      // similarity the bound was tightened to, so a final-top-k member
      // (similarity >= the bound at all times) can never be rejected by
      // float noise; anything the raised threshold does reject would
      // also lose the k-th cut.
      const double threshold = std::max(options_.tau, bound->value() - kSearchBoundSlack);
      const Object& object = object_at(i);
      if (threshold > options_.tau) {
        // The size bound again at the raised threshold (Candidates applied
        // it at τ): Verify could only reject, so skip the plan building
        // and grouping outright.
        if (OverlapOutOfReach(
                MinFuzzyOverlap(query.size(), object.size(), threshold, options_.set_metric),
                query.size(), object.size())) {
          if (stats != nullptr) ++stats->bound_skipped_verifies;
          continue;
        }
        if (stats != nullptr) ++stats->bound_raised_verifies;
      }
      verifier_.BuildPlan(object, &object_plan);
      if (!verifier_.Verify(query, object, query_plan, object_plan, threshold, &verify_stats)) {
        continue;
      }
      const double similarity = object_sim_.Similarity(query, object);
      // The floor keeps the verifier's 1e-9 accept tolerance.
      if (similarity + 1e-9 < min_similarity) continue;
      const SearchHit hit{i, similarity};
      if (k <= 0) {
        best.push_back(hit);
        continue;
      }
      if (static_cast<int32_t>(best.size()) < k) {
        best.push_back(hit);
        std::push_heap(best.begin(), best.end(), HitBefore);
        if (static_cast<int32_t>(best.size()) == k &&
            bound->Tighten(best.front().similarity) && stats != nullptr) {
          ++stats->bound_tightenings;
        }
      } else if (HitBefore(hit, best.front())) {
        std::pop_heap(best.begin(), best.end(), HitBefore);
        best.back() = hit;
        std::push_heap(best.begin(), best.end(), HitBefore);
        if (bound->Tighten(best.front().similarity) && stats != nullptr) {
          ++stats->bound_tightenings;
        }
      }
    }
  }
  std::sort(best.begin(), best.end(), HitBefore);
  *hits = std::move(best);
  if (stats != nullptr) {
    stats->candidates = candidate_count;
    stats->verify = verify_stats;
  }
  return status;
}

}  // namespace kjoin
