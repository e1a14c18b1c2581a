#include "serve/status_detail.h"

#include <cctype>
#include <limits>

namespace kjoin::serve {

namespace {
constexpr std::string_view kRetryAfterKey = "retry_after_ms=";
}  // namespace

std::string RetryAfterField(int64_t ms) {
  return std::string(kRetryAfterKey) + std::to_string(ms);
}

std::optional<int64_t> RetryAfterMs(const Status& status) {
  const std::string& message = status.message();
  const size_t key = message.find(kRetryAfterKey);
  if (key == std::string::npos) return std::nullopt;
  size_t pos = key + kRetryAfterKey.size();
  if (pos >= message.size() || !std::isdigit(static_cast<unsigned char>(message[pos]))) {
    return std::nullopt;
  }
  int64_t value = 0;
  for (; pos < message.size() && std::isdigit(static_cast<unsigned char>(message[pos]));
       ++pos) {
    const int digit = message[pos] - '0';
    if (value > (std::numeric_limits<int64_t>::max() - digit) / 10) {
      return std::nullopt;  // overflow: treat a forged hint as absent
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace kjoin::serve
