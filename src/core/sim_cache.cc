#include "core/sim_cache.h"

#include <sys/mman.h>

#include <atomic>
#include <bit>

#include "common/logging.h"

namespace kjoin {
namespace {

// L1 vacancy: all-ones never collides with a real key, since packed token
// ids stay below 2^31 and bits 31 and 63 are always clear.
constexpr uint64_t kEmptyKey = ~uint64_t{0};

// L2 slots store the tag ~key, so a vacant slot reads zero: no tag is
// zero (no key is all-ones), key 0 stays valid, and a fresh slot region
// of anonymous zero pages is all vacant without a single write.
constexpr uint64_t kVacantTag = 0;
uint64_t Tag(uint64_t key) { return ~key; }

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
// with a tag re-validation (below). Only inserts serialize on write_mu,
// and inserts happen once per distinct pair. Tag and value interleave in
// one array ([2j] = tag, [2j+1] = bit_cast'ed double) so a probe touches
// a single cache line; the table is far bigger than any CPU cache, making
// that line fetch the entire cost of an L2 hit. The words are plain
// uint64_t inside the mmap'ed region, accessed only through atomic_ref.
struct SimCache::Stripe {
  std::mutex write_mu;
  uint64_t* slots = nullptr;  // 2 words per slot; tag kVacantTag when vacant
  alignas(64) std::atomic<int64_t> hits{0};
  alignas(64) std::atomic<int64_t> misses{0};

  std::atomic_ref<uint64_t> word(size_t i) const { return std::atomic_ref<uint64_t>(slots[i]); }
};

struct SimCache::Impl {
  uint64_t id = 0;
  size_t stripe_mask = 0;  // slots per stripe - 1
  std::unique_ptr<Stripe[]> stripes;
  // Every stripe's slots, one anonymous mapping: the kernel hands out
  // zero (all-vacant) pages on first touch, so construction writes
  // nothing and a join pays only for the pages it inserts into.
  void* region = MAP_FAILED;
  size_t region_bytes = 0;
  // L1 hit counters. Threads grab slots round-robin; two threads sharing a
  // slot after many claims is harmless (atomic adds).
  std::unique_ptr<PaddedCounter[]> l1_hits;
  std::atomic<uint32_t> next_l1_slot{0};

  ~Impl() {
    if (region != MAP_FAILED) munmap(region, region_bytes);
  }
};

SimCache::SimCache(int64_t capacity) : impl_(std::make_unique<Impl>()) {
  KJOIN_CHECK_GE(capacity, 1) << "SimCache capacity must be positive";
  size_t per_stripe = 64;
  while (per_stripe * kNumStripes < static_cast<uint64_t>(capacity)) per_stripe <<= 1;
  impl_->id = next_cache_id.fetch_add(1, std::memory_order_relaxed);
  id_ = impl_->id;
  impl_->stripe_mask = per_stripe - 1;
  impl_->stripes = std::make_unique<Stripe[]>(kNumStripes);
  const size_t stripe_words = 2 * per_stripe;
  impl_->region_bytes = kNumStripes * stripe_words * sizeof(uint64_t);
  impl_->region = mmap(nullptr, impl_->region_bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  KJOIN_CHECK(impl_->region != MAP_FAILED)
      << "SimCache cannot map " << impl_->region_bytes << " bytes";
  auto* words = static_cast<uint64_t*>(impl_->region);
  for (int s = 0; s < kNumStripes; ++s) {
    impl_->stripes[s].slots = words + static_cast<size_t>(s) * stripe_words;
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

// Lock-free read protocol. A writer replacing a slot's tag T with T'
// stores: tags[s] = kVacantTag (relaxed), values[s] = V' (RELEASE),
// tags[s] = T' (release). A reader loads tags[s] (acquire), the value
// (acquire), then tags[s] again (relaxed) and only trusts the value if
// both tag loads returned the tag it wants. If the reader's value load
// observed V', the release on the value store makes the preceding
// kVacantTag store visible, so the second tag load cannot still return T —
// the stale hit is rejected. A same-key overwrite needs no such care:
// values are pure functions of keys, so V' is bit-identical to V anyway.
bool SimCache::LookupL2(uint64_t key, double* value) const {
  const uint64_t hash = Mix(key);
  const uint64_t tag = Tag(key);
  Stripe& stripe = impl_->stripes[(hash >> 58) & (kNumStripes - 1)];
  const size_t base = (hash >> 16) & impl_->stripe_mask;
  for (int p = 0; p < kProbeWindow; ++p) {
    const size_t slot = 2 * ((base + p) & impl_->stripe_mask);
    const uint64_t seen = stripe.word(slot).load(std::memory_order_acquire);
    if (seen == tag) {
      const uint64_t bits = stripe.word(slot + 1).load(std::memory_order_acquire);
      if (stripe.word(slot).load(std::memory_order_relaxed) == tag) {
        stripe.hits.fetch_add(1, std::memory_order_relaxed);
        *value = std::bit_cast<double>(bits);
        return true;
      }
      break;  // slot is being replaced: recompute
    }
    if (seen == kVacantTag) break;
  }
  stripe.misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void SimCache::InsertL2(uint64_t key, double value) const {
  const uint64_t hash = Mix(key);
  const uint64_t tag = Tag(key);
  Stripe& stripe = impl_->stripes[(hash >> 58) & (kNumStripes - 1)];
  const size_t base = (hash >> 16) & impl_->stripe_mask;
  std::lock_guard<std::mutex> lock(stripe.write_mu);
  size_t victim = 2 * base;  // full neighborhood: overwrite the home slot
  uint64_t victim_tag = stripe.word(victim).load(std::memory_order_relaxed);
  for (int p = 0; p < kProbeWindow; ++p) {
    const size_t slot = 2 * ((base + p) & impl_->stripe_mask);
    const uint64_t seen = stripe.word(slot).load(std::memory_order_relaxed);
    if (seen == tag || seen == kVacantTag) {
      victim = slot;
      victim_tag = seen;
      break;
    }
  }
  // Hide the slot from readers while its value changes (see LookupL2).
  if (victim_tag != tag && victim_tag != kVacantTag) {
    stripe.word(victim).store(kVacantTag, std::memory_order_relaxed);
  }
  stripe.word(victim + 1).store(std::bit_cast<uint64_t>(value), std::memory_order_release);
  stripe.word(victim).store(tag, std::memory_order_release);
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
