#ifndef KJOIN_TEXT_TOKEN_INDEX_H_
#define KJOIN_TEXT_TOKEN_INDEX_H_

// token -> id lookup over a list of distinct strings held elsewhere.
//
// The index owns only int32 ids: an open-addressing table with linear
// probing whose capacity is a power of two at least twice the ids it
// holds, so every probe sequence meets an empty slot. The strings stay in
// the caller's id-ordered vector (ObjectBuilder's token table, an
// EntityMatcher key table), which the caller passes to every call; a
// lookup takes a string_view and allocates nothing.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kjoin {

class TokenIndex {
 public:
  TokenIndex() = default;
  // Indexes every string of `tokens` (id = position); they must be
  // distinct.
  explicit TokenIndex(const std::vector<std::string>& tokens);

  // Id of `token` in `tokens`, or -1 when absent.
  int32_t Find(std::string_view token, const std::vector<std::string>& tokens) const;

  // Indexes tokens.back() as id tokens.size() - 1. Requires the ids below
  // it indexed already and tokens.back() absent from them.
  void Add(const std::vector<std::string>& tokens);

 private:
  // Re-places ids [0, size_) in `capacity` empty slots.
  void Rehash(const std::vector<std::string>& tokens, size_t capacity);
  // Puts `id` in the first empty slot of `token`'s probe sequence.
  void Place(int32_t id, std::string_view token);

  std::vector<int32_t> slots_;  // -1 when empty
  int32_t size_ = 0;            // ids indexed
};

}  // namespace kjoin

#endif  // KJOIN_TEXT_TOKEN_INDEX_H_
