#include "core/sim_cache.h"

#include <bit>
#include <vector>

#include "common/logging.h"

namespace kjoin {
namespace {

// All-ones never collides with a real key: packed token ids stay below
// 2^31, so bits 31 and 63 are always clear.
constexpr uint64_t kEmptyKey = ~uint64_t{0};

constexpr int kNumStripes = 64;      // power of two
constexpr int kProbeWindow = 8;      // bounded linear probe per stripe
constexpr int kL1CounterSlots = 256; // per-cache L1 hit counters (see Claim)

// Process-unique cache ids. Comparing ids instead of `this` pointers keeps
// a thread's stale L1 from being revived by a new cache allocated at a
// dead cache's address.
std::atomic<uint64_t> next_cache_id{1};

// splitmix64 finalizer: the L2 slow path can afford a full mix, which
// keeps stripe and slot choice well distributed even for structured keys.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct alignas(64) PaddedCounter {
  std::atomic<int64_t> value{0};
};

}  // namespace

// Readers never take the stripe mutex: a lookup is plain atomic loads
// with a key re-validation (below). Only inserts serialize on write_mu,
// and inserts happen once per distinct pair. Key and value interleave in
// one array ([2j] = key, [2j+1] = bit_cast'ed double) so a probe touches
// a single cache line; the table is far bigger than any CPU cache, making
// that line fetch the entire cost of an L2 hit.
struct SimCache::Stripe {
  std::mutex write_mu;
  std::unique_ptr<std::atomic<uint64_t>[]> slots;  // key kEmptyKey when vacant
  alignas(64) std::atomic<int64_t> hits{0};
  alignas(64) std::atomic<int64_t> misses{0};
};

struct SimCache::Impl {
  uint64_t id = 0;
  size_t stripe_mask = 0;  // slots per stripe - 1
  std::unique_ptr<Stripe[]> stripes;
  // L1 hit counters. Threads grab slots round-robin; two threads sharing a
  // slot after many claims is harmless (atomic adds).
  std::unique_ptr<PaddedCounter[]> l1_hits;
  std::atomic<uint32_t> next_l1_slot{0};
};

SimCache::SimCache(int64_t capacity) : impl_(std::make_unique<Impl>()) {
  KJOIN_CHECK_GE(capacity, 1) << "SimCache capacity must be positive";
  size_t per_stripe = 64;
  while (per_stripe * kNumStripes < static_cast<uint64_t>(capacity)) per_stripe <<= 1;
  impl_->id = next_cache_id.fetch_add(1, std::memory_order_relaxed);
  id_ = impl_->id;
  impl_->stripe_mask = per_stripe - 1;
  impl_->stripes = std::make_unique<Stripe[]>(kNumStripes);
  for (int s = 0; s < kNumStripes; ++s) {
    Stripe& stripe = impl_->stripes[s];
    stripe.slots = std::make_unique<std::atomic<uint64_t>[]>(2 * per_stripe);
    for (size_t i = 0; i < per_stripe; ++i) {
      stripe.slots[2 * i].store(kEmptyKey, std::memory_order_relaxed);
      stripe.slots[2 * i + 1].store(0, std::memory_order_relaxed);
    }
  }
  impl_->l1_hits = std::make_unique<PaddedCounter[]>(kL1CounterSlots);
}

SimCache::~SimCache() = default;

int64_t SimCache::capacity() const {
  return static_cast<int64_t>((impl_->stripe_mask + 1) * kNumStripes);
}

void SimCache::Claim(L1Block* block) const {
  // The previous owner (if any) is never dereferenced — it may be long
  // destroyed. Its hit counts were accumulated inside it as they happened,
  // so dropping this block loses nothing but cached entries.
  for (size_t i = 0; i < kL1Slots; ++i) block->entries[i].key = kEmptyKey;
  const uint32_t slot = impl_->next_l1_slot.fetch_add(1, std::memory_order_relaxed);
  block->hit_counter = &impl_->l1_hits[slot % kL1CounterSlots].value;
  block->owner_id = id_;
}

// Lock-free read protocol. A writer replacing a slot's key K with K'
// stores: keys[s] = kEmptyKey (relaxed), values[s] = V' (RELEASE),
// keys[s] = K' (release). A reader loads keys[s] (acquire), the value
// (acquire), then keys[s] again (relaxed) and only trusts the value if
// both key loads returned the key it wants. If the reader's value load
// observed V', the release on the value store makes the preceding
// kEmptyKey store visible, so the second key load cannot still return K —
// the stale hit is rejected. A same-key overwrite needs no such care:
// values are pure functions of keys, so V' is bit-identical to V anyway.
bool SimCache::LookupL2(uint64_t key, double* value) const {
  const uint64_t hash = Mix(key);
  Stripe& stripe = impl_->stripes[(hash >> 58) & (kNumStripes - 1)];
  const size_t base = (hash >> 16) & impl_->stripe_mask;
  for (int p = 0; p < kProbeWindow; ++p) {
    const size_t slot = 2 * ((base + p) & impl_->stripe_mask);
    const uint64_t seen = stripe.slots[slot].load(std::memory_order_acquire);
    if (seen == key) {
      const uint64_t bits = stripe.slots[slot + 1].load(std::memory_order_acquire);
      if (stripe.slots[slot].load(std::memory_order_relaxed) == key) {
        stripe.hits.fetch_add(1, std::memory_order_relaxed);
        *value = std::bit_cast<double>(bits);
        return true;
      }
      break;  // slot is being replaced: recompute
    }
    if (seen == kEmptyKey) break;
  }
  stripe.misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void SimCache::InsertL2(uint64_t key, double value) const {
  const uint64_t hash = Mix(key);
  Stripe& stripe = impl_->stripes[(hash >> 58) & (kNumStripes - 1)];
  const size_t base = (hash >> 16) & impl_->stripe_mask;
  std::lock_guard<std::mutex> lock(stripe.write_mu);
  size_t victim = 2 * base;  // full neighborhood: overwrite the home slot
  uint64_t victim_key = stripe.slots[victim].load(std::memory_order_relaxed);
  for (int p = 0; p < kProbeWindow; ++p) {
    const size_t slot = 2 * ((base + p) & impl_->stripe_mask);
    const uint64_t seen = stripe.slots[slot].load(std::memory_order_relaxed);
    if (seen == key || seen == kEmptyKey) {
      victim = slot;
      victim_key = seen;
      break;
    }
  }
  // Hide the slot from readers while its value changes (see LookupL2).
  if (victim_key != key && victim_key != kEmptyKey) {
    stripe.slots[victim].store(kEmptyKey, std::memory_order_relaxed);
  }
  stripe.slots[victim + 1].store(std::bit_cast<uint64_t>(value), std::memory_order_release);
  stripe.slots[victim].store(key, std::memory_order_release);
}

SimCacheStats SimCache::stats() const {
  SimCacheStats stats;
  for (int i = 0; i < kL1CounterSlots; ++i) {
    stats.l1_hits += impl_->l1_hits[i].value.load(std::memory_order_relaxed);
  }
  for (int s = 0; s < kNumStripes; ++s) {
    const Stripe& stripe = impl_->stripes[s];
    stats.l2_hits += stripe.hits.load(std::memory_order_relaxed);
    stats.misses += stripe.misses.load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace kjoin
