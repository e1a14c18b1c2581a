#ifndef KJOIN_COMMON_STRING_UTIL_H_
#define KJOIN_COMMON_STRING_UTIL_H_

// Small string helpers shared by the tokenizer, data generators and the
// experiment harnesses.

#include <string>
#include <string_view>
#include <vector>

namespace kjoin {

// ASCII lower-casing (the datasets in this repository are ASCII).
std::string ToLowerAscii(std::string_view text);

// Splits on a single separator character; empty pieces are kept.
std::vector<std::string> Split(std::string_view text, char separator);

// Split without copies: the pieces are views into `text`, which must
// outlive them, written over `pieces` so a caller reuses its capacity.
void SplitViews(std::string_view text, char separator, std::vector<std::string_view>* pieces);

// Splits on runs of whitespace; empty pieces are dropped.
std::vector<std::string> SplitWhitespace(std::string_view text);

// Joins pieces with the separator.
std::string Join(const std::vector<std::string>& pieces, std::string_view separator);

// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// Formats n with thousands separators, e.g. 1234567 -> "1,234,567".
std::string FormatWithCommas(int64_t n);

// True iff `text` is well-formed UTF-8 (ASCII included). Rejects overlong
// encodings, surrogates, codepoints above U+10FFFF, and truncated
// sequences — the checks the untrusted-input parsers rely on.
bool IsValidUtf8(std::string_view text);

}  // namespace kjoin

#endif  // KJOIN_COMMON_STRING_UTIL_H_
