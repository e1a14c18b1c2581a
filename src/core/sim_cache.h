#ifndef KJOIN_CORE_SIM_CACHE_H_
#define KJOIN_CORE_SIM_CACHE_H_

// Element-pair similarity cache for K-Join+ (docs/performance.md).
//
// Real joins evaluate the same element pairs across thousands of
// candidate object pairs. SimCache memoizes token-id pair -> similarity
// (a plus-mode element Sim is a whole mapping-pair loop of NodeSims), so
// the hot path becomes mostly one array probe. Pure K-Join runs without
// it: its element Sim is a single NodeSim, which the verifier resolves in
// batches faster than a cache probe. Two levels:
//
//   L1 — a small direct-mapped (key, value) array living in thread-local
//        storage: no locks, no atomics on the lookup path. A thread's L1
//        belongs to one SimCache at a time (identified by a process-unique
//        id, never a reused pointer) and is invalidated wholesale when the
//        thread first touches a different cache.
//   L2 — a shared open-addressing table split into stripes, each stripe a
//        power-of-two slot array. Reads are lock-free (atomic loads plus a
//        tag re-validation; see LookupL2); only inserts take the stripe's
//        write mutex. Bounded linear probing; a full neighborhood
//        overwrites (it is a cache, not a map). A slot holds the tag ~key,
//        so a vacant slot is zero and the slots live in anonymous zero
//        pages: construction writes nothing, and a join faults in only
//        the pages it inserts into, whatever the capacity.
//
// Determinism invariant: the cached value for a key is a pure function of
// the key (the hierarchy is immutable for the cache's lifetime), so hits
// return bit-identical doubles to recomputation, whatever thread inserted
// them, and join results are byte-identical with the cache on or off.
// Eviction and racing inserts only ever change hit rates, never values.
//
// Thread safety: all methods may be called concurrently. stats() values
// lag per-thread L1 hit counters only by the relaxed-atomic visibility of
// the counting thread. Callers must stop using the cache before it is
// destroyed (same contract as every other join component).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

namespace kjoin {

struct SimCacheStats {
  int64_t l1_hits = 0;
  int64_t l2_hits = 0;
  int64_t misses = 0;  // lookups that fell through to compute()

  int64_t hits() const { return l1_hits + l2_hits; }
  int64_t lookups() const { return hits() + misses; }
  double HitRate() const {
    const int64_t total = lookups();
    return total > 0 ? static_cast<double>(hits()) / static_cast<double>(total) : 0.0;
  }
};

class SimCache {
 public:
  // `capacity` is the approximate number of L2 slots; it is rounded up to
  // a power of two per stripe. Requires capacity > 0.
  explicit SimCache(int64_t capacity);
  ~SimCache();

  SimCache(const SimCache&) = delete;
  SimCache& operator=(const SimCache&) = delete;

  // Canonical symmetric key for a token-id pair: Sim(x, y) == Sim(y, x).
  // Token ids stay below 2^31, so neither half is ever all-ones: no key
  // is all-ones (the L1 vacancy sentinel) and no L2 tag ~key is zero (the
  // L2 vacancy). Equal token ids imply equal mapping sets (ObjectBuilder
  // interning), so the key determines Sim.
  static uint64_t TokenKey(int32_t x, int32_t y) {
    const auto a = static_cast<uint64_t>(static_cast<uint32_t>(x < y ? x : y));
    const auto b = static_cast<uint64_t>(static_cast<uint32_t>(x < y ? y : x));
    return (a << 32) | b;
  }

  // The cached similarity for `key` (packed by TokenKey), calling
  // `compute` (a pure function of the key) on a miss and remembering its
  // result.
  //
  // The hit path is deliberately frugal — the uncached computation it
  // replaces is a short loop of RMQ lookups, so every instruction here
  // shows up in join time: one multiply for the hash
  // (Fibonacci hashing; the top bits are the best-mixed), one interleaved
  // key+value entry (a single cache line, where split arrays would touch
  // two), and a relaxed load/store pair instead of an atomic RMW for the
  // hit counter (the counter slot is effectively thread-private).
  template <typename ComputeFn>
  double GetOrCompute(uint64_t key, const ComputeFn& compute) const {
    const uint64_t hash = key * kHashMul;
    L1Block& l1 = LocalL1();
    L1Entry& entry = l1.entries[hash >> (64 - kL1SlotBits)];
    if (entry.key == key) {
      l1.hit_counter->store(l1.hit_counter->load(std::memory_order_relaxed) + 1,
                            std::memory_order_relaxed);
      return entry.value;
    }
    double value;
    if (!LookupL2(key, &value)) {
      value = compute();
      InsertL2(key, value);
    }
    entry.key = key;
    entry.value = value;
    return value;
  }

  // Cumulative since construction. Snapshot before/after a region and
  // subtract, as with ThreadPool::stats().
  SimCacheStats stats() const;

  int64_t capacity() const;

  // Direct-mapped thread-local L1 size (per thread: 64 KiB).
  static constexpr int kL1SlotBits = 12;
  static constexpr size_t kL1Slots = size_t{1} << kL1SlotBits;

 private:
  struct L1Entry {
    uint64_t key;
    double value;
  };

  // One thread's L1. Only the owning thread reads or writes entries;
  // hit_counter points at a slot inside the owning SimCache so stats never
  // have to walk other threads' storage. Constant-initializable on purpose:
  // the thread_local needs no init guard on the lookup path.
  struct L1Block {
    uint64_t owner_id = 0;  // process-unique SimCache id; 0 = unclaimed
    std::atomic<int64_t>* hit_counter = nullptr;
    L1Entry entries[kL1Slots];
  };

  static constexpr uint64_t kHashMul = 0x9e3779b97f4a7c15ULL;  // 2^64 / phi

  // The calling thread's L1, claimed (and cleared) on first touch after
  // the thread last used a different cache. Inline so a hit compiles to a
  // TLS address computation plus one predictable branch.
  L1Block& LocalL1() const {
    thread_local L1Block block;
    if (block.owner_id != id_) [[unlikely]] Claim(&block);
    return block;
  }
  void Claim(L1Block* block) const;

  bool LookupL2(uint64_t key, double* value) const;
  void InsertL2(uint64_t key, double value) const;

  struct Stripe;
  struct Impl;
  uint64_t id_ = 0;  // == impl_->id, copied flat for the hit path
  std::unique_ptr<Impl> impl_;
};

}  // namespace kjoin

#endif  // KJOIN_CORE_SIM_CACHE_H_
