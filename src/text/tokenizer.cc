#include "text/tokenizer.h"

#include <cctype>

#include "common/string_util.h"

namespace kjoin {

Tokenizer::Tokenizer(TokenizerOptions options) : options_(options) {
  for (int b = 0; b < 256; ++b) {
    const bool kept = options_.strip_punctuation ? std::isalnum(b) != 0 : std::isspace(b) == 0;
    const bool lower = options_.lowercase && b >= 'A' && b <= 'Z';
    byte_map_[static_cast<size_t>(b)] =
        !kept ? kSeparator : static_cast<int16_t>(lower ? b - 'A' + 'a' : b);
  }
}

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> tokens;
  const size_t n = text.size();
  size_t i = 0;
  while (i < n) {
    while (i < n && byte_map_[static_cast<uint8_t>(text[i])] == kSeparator) ++i;
    const size_t start = i;
    while (i < n && byte_map_[static_cast<uint8_t>(text[i])] != kSeparator) ++i;
    const size_t length = i - start;
    if (length == 0 || static_cast<int64_t>(length) < options_.min_token_length) continue;
    std::string& token = tokens.emplace_back(text.substr(start, length));
    for (char& c : token) c = static_cast<char>(byte_map_[static_cast<uint8_t>(c)]);
  }
  return tokens;
}

StatusOr<std::vector<std::string>> Tokenizer::TokenizeChecked(std::string_view text) const {
  if (!IsValidUtf8(text)) {
    return InvalidArgumentError("text is not valid UTF-8");
  }
  std::vector<std::string> tokens = Tokenize(text);
  if (options_.max_tokens > 0 &&
      static_cast<int64_t>(tokens.size()) > options_.max_tokens) {
    return ResourceExhaustedError("record has " + std::to_string(tokens.size()) +
                                  " tokens, limit " +
                                  std::to_string(options_.max_tokens));
  }
  if (options_.max_token_length > 0) {
    for (const std::string& token : tokens) {
      if (static_cast<int64_t>(token.size()) > options_.max_token_length) {
        return ResourceExhaustedError(
            "token of " + std::to_string(token.size()) + " bytes exceeds limit " +
            std::to_string(options_.max_token_length));
      }
    }
  }
  return tokens;
}

std::string Tokenizer::Normalize(std::string_view token) const {
  std::string buffer;
  return std::string(NormalizeView(token, &buffer));
}

std::string_view Tokenizer::NormalizeView(std::string_view token, std::string* buffer) const {
  // The longest prefix that is already normal is kept as it is.
  size_t i = 0;
  while (i < token.size() &&
         byte_map_[static_cast<uint8_t>(token[i])] == static_cast<uint8_t>(token[i])) {
    ++i;
  }
  if (i == token.size()) return token;
  buffer->assign(token.substr(0, i));
  for (; i < token.size(); ++i) {
    const int16_t mapped = byte_map_[static_cast<uint8_t>(token[i])];
    if (mapped != kSeparator) buffer->push_back(static_cast<char>(mapped));
  }
  return *buffer;
}

}  // namespace kjoin
