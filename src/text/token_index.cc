#include "text/token_index.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"

namespace kjoin {
namespace {

constexpr size_t kMinCapacity = 16;

uint64_t Load64(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

uint64_t Load32(const char* p) {
  uint32_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

uint64_t Mix(uint64_t h, uint64_t word) {
  h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 29);
}

// Hashes `token` a word at a time, inline: tokens are a few bytes long,
// where std::hash's out-of-line byte loop costs as much as the rest of a
// lookup. Overlapping loads cover every byte of the tail; the length is
// mixed in first, so two lengths never alias. A final avalanche spreads
// the low bits the slot mask keeps.
uint64_t HashToken(std::string_view token) {
  const char* p = token.data();
  const size_t n = token.size();
  uint64_t h = Mix(0, n);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) h = Mix(h, Load64(p + i));
  if (i < n) {
    if (n >= 8) {
      h = Mix(h, Load64(p + n - 8));
    } else if (n >= 4) {
      h = Mix(h, Load32(p) | (Load32(p + n - 4) << 32));
    } else {
      h = Mix(h, uint64_t{static_cast<uint8_t>(p[0])} |
                     (uint64_t{static_cast<uint8_t>(p[n / 2])} << 8) |
                     (uint64_t{static_cast<uint8_t>(p[n - 1])} << 16));
    }
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  return h ^ (h >> 33);
}

}  // namespace

TokenIndex::TokenIndex(const std::vector<std::string>& tokens)
    : size_(static_cast<int32_t>(tokens.size())) {
  Rehash(tokens, std::max(kMinCapacity, std::bit_ceil(2 * tokens.size())));
}

int32_t TokenIndex::Find(std::string_view token, const std::vector<std::string>& tokens) const {
  if (slots_.empty()) return -1;
  const size_t mask = slots_.size() - 1;
  for (size_t slot = HashToken(token) & mask;; slot = (slot + 1) & mask) {
    const int32_t id = slots_[slot];
    if (id < 0) return -1;
    if (tokens[static_cast<size_t>(id)] == token) return id;
  }
}

void TokenIndex::Add(const std::vector<std::string>& tokens) {
  KJOIN_DCHECK(tokens.size() == static_cast<size_t>(size_) + 1);
  const int32_t id = size_++;
  if (slots_.size() < 2 * static_cast<size_t>(size_)) {
    Rehash(tokens, std::max(kMinCapacity, 2 * slots_.size()));
  } else {
    Place(id, tokens[static_cast<size_t>(id)]);
  }
}

void TokenIndex::Rehash(const std::vector<std::string>& tokens, size_t capacity) {
  // The capacity invariant every probe loop relies on to terminate.
  KJOIN_CHECK(std::has_single_bit(capacity) && capacity >= 2 * static_cast<size_t>(size_))
      << "token index capacity " << capacity << " for " << size_ << " ids";
  slots_.assign(capacity, -1);
  for (int32_t id = 0; id < size_; ++id) Place(id, tokens[static_cast<size_t>(id)]);
}

void TokenIndex::Place(int32_t id, std::string_view token) {
  const size_t mask = slots_.size() - 1;
  size_t slot = HashToken(token) & mask;
  while (slots_[slot] >= 0) slot = (slot + 1) & mask;
  slots_[slot] = id;
}

}  // namespace kjoin
