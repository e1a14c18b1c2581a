#include "common/string_util.h"

#include <cctype>
#include <cstdint>
#include <cstring>

namespace kjoin {

std::string ToLowerAscii(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::vector<std::string> Split(std::string_view text, char separator) {
  std::vector<std::string_view> views;
  SplitViews(text, separator, &views);
  return {views.begin(), views.end()};
}

void SplitViews(std::string_view text, char separator, std::vector<std::string_view>* pieces) {
  pieces->clear();
  size_t start = 0;
  for (size_t end; (end = text.find(separator, start)) != std::string_view::npos;
       start = end + 1) {
    pieces->push_back(text.substr(start, end - start));
  }
  pieces->push_back(text.substr(start));
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> pieces;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) pieces.emplace_back(text.substr(start, i - start));
  }
  return pieces;
}

std::string Join(const std::vector<std::string>& pieces, std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(pieces[i]);
  }
  return out;
}

std::string_view StripAsciiWhitespace(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

std::string FormatWithCommas(int64_t n) {
  const bool negative = n < 0;
  uint64_t magnitude = negative ? (0 - static_cast<uint64_t>(n)) : static_cast<uint64_t>(n);
  std::string digits = std::to_string(magnitude);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (negative) out.push_back('-');
  return std::string(out.rbegin(), out.rend());
}

bool IsValidUtf8(std::string_view text) {
  size_t i = 0;
  const size_t n = text.size();
  // ASCII runs eight bytes per step; the decoder below takes over from
  // the first word with a high bit set.
  for (uint64_t word; i + 8 <= n; i += 8) {
    std::memcpy(&word, text.data() + i, 8);
    if ((word & 0x8080808080808080ULL) != 0) break;
  }
  while (i < n) {
    const unsigned char lead = static_cast<unsigned char>(text[i]);
    if (lead < 0x80) {
      ++i;
      continue;
    }
    int continuation = 0;
    uint32_t codepoint = 0;
    uint32_t min_codepoint = 0;
    if ((lead & 0xE0) == 0xC0) {
      continuation = 1;
      codepoint = lead & 0x1F;
      min_codepoint = 0x80;
    } else if ((lead & 0xF0) == 0xE0) {
      continuation = 2;
      codepoint = lead & 0x0F;
      min_codepoint = 0x800;
    } else if ((lead & 0xF8) == 0xF0) {
      continuation = 3;
      codepoint = lead & 0x07;
      min_codepoint = 0x10000;
    } else {
      return false;  // stray continuation byte or invalid lead (0xF8+)
    }
    if (i + continuation >= n) return false;  // truncated sequence
    for (int k = 1; k <= continuation; ++k) {
      const unsigned char byte = static_cast<unsigned char>(text[i + k]);
      if ((byte & 0xC0) != 0x80) return false;
      codepoint = (codepoint << 6) | (byte & 0x3F);
    }
    if (codepoint < min_codepoint) return false;                  // overlong
    if (codepoint >= 0xD800 && codepoint <= 0xDFFF) return false;  // surrogate
    if (codepoint > 0x10FFFF) return false;
    i += continuation + 1;
  }
  return true;
}

}  // namespace kjoin
