#ifndef KJOIN_TEXT_TOKENIZER_H_
#define KJOIN_TEXT_TOKENIZER_H_

// Record tokenization and normalization.
//
// The paper models an object as the set of elements obtained by tokenizing
// the record (§2.1). Tokens are normalized (ASCII lower-case, punctuation
// stripped) before entity matching so that "Pizza," and "pizza" map to the
// same knowledge-base node.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace kjoin {

struct TokenizerOptions {
  bool lowercase = true;
  // Characters other than [a-z0-9] become separators when true; otherwise
  // only whitespace separates tokens.
  bool strip_punctuation = true;
  // Tokens shorter than this are dropped (0 keeps everything).
  int min_token_length = 1;
  // Limits enforced by TokenizeChecked only (0 = unlimited): untrusted
  // records exceeding them are rejected instead of ballooning memory.
  int64_t max_tokens = 0;
  int64_t max_token_length = 0;
};

class Tokenizer {
 public:
  explicit Tokenizer(TokenizerOptions options = {});

  // Splits and normalizes. Duplicate tokens are preserved: the paper's
  // object model is a multiset (its Table 1 objects carry duplicate
  // signatures).
  std::vector<std::string> Tokenize(std::string_view text) const;

  // Tokenize for untrusted input: additionally rejects text that is not
  // valid UTF-8 (kInvalidArgument) and enforces the options' max_tokens /
  // max_token_length limits (kResourceExhausted). Trusted callers keep
  // the zero-overhead Tokenize above.
  StatusOr<std::vector<std::string>> TokenizeChecked(std::string_view text) const;

  // Normalizes one token (no splitting).
  std::string Normalize(std::string_view token) const;

  // Normalize without a copy when none is needed: returns `token` itself
  // when it is already normal, otherwise its normal form written over
  // `*buffer`. The result views `token` or `*buffer`, whichever it came
  // from, and is valid while that is.
  std::string_view NormalizeView(std::string_view token, std::string* buffer) const;

 private:
  // What byte b becomes in a token: kSeparator when it is dropped (a
  // separator in Tokenize), otherwise the byte it is written as. Fixed
  // from the options at construction; any byte, NUL included, may be
  // kept.
  static constexpr int16_t kSeparator = -1;
  std::array<int16_t, 256> byte_map_;
  TokenizerOptions options_;
};

}  // namespace kjoin

#endif  // KJOIN_TEXT_TOKENIZER_H_
