#ifndef KJOIN_SERVE_STATUS_DETAIL_H_
#define KJOIN_SERVE_STATUS_DETAIL_H_

// Structured details carried inside Status messages.
//
// A Status is a code plus a human-readable message, but some serving
// responses also carry a machine-readable backoff hint: retry_after_ms,
// attached by the index manager's degraded read-only write rejection
// (kUnavailable, serve/index_manager.h). The producer formats the hint
// and every consumer parses it through this one place:
//
//   return UnavailableError("index is read-only; " + RetryAfterField(42));
//   ...
//   if (std::optional<int64_t> ms = RetryAfterMs(status)) Backoff(*ms);
//
// The field grammar is "retry_after_ms=<decimal>" anywhere in the
// message, which keeps the hint readable in logs while staying parseable.
// The network protocol (net/protocol.h) sends both forms: the reply's
// message is the whole Status message, "retry_after_ms=" text included,
// and its retry_after_ms field carries the number parsed from it.

#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"

namespace kjoin::serve {

// "retry_after_ms=<ms>" — the one formatter every producer embeds.
std::string RetryAfterField(int64_t ms);

// Extracts the retry_after_ms hint from `status`'s message. nullopt when
// the field is absent or malformed (non-decimal, overflow) — callers
// fall back to their own backoff policy.
std::optional<int64_t> RetryAfterMs(const Status& status);

}  // namespace kjoin::serve

#endif  // KJOIN_SERVE_STATUS_DETAIL_H_
