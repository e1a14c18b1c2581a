#ifndef KJOIN_CORE_OBJECT_H_
#define KJOIN_CORE_OBJECT_H_

// Objects (records) and their construction from raw text.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/element.h"
#include "text/entity_matcher.h"
#include "text/token_index.h"
#include "text/tokenizer.h"

namespace kjoin {

// A record as K-Join sees it: a multiset of elements. |S| in the paper is
// size().
struct Object {
  int32_t id = -1;
  // Size of the TokenDictionary a read-only build resolved the tokens
  // against (ObjectBuilder::BuildQuery): an element with token_id = -1 is
  // known absent from those ids only. -1 for interned objects, whose ids
  // are complete.
  int32_t dictionary_size = -1;
  std::vector<Element> elements;

  int32_t size() const { return static_cast<int32_t>(elements.size()); }
};

// Each token id's hierarchy mappings, resolved at most once: id i's are
// mappings[ranges[i].begin, ranges[i].begin + ranges[i].size), and
// ranges[i].begin is -1 until i is resolved. Flat, so a copy is two
// vector copies whatever the table's size.
struct TokenMappingTable {
  struct Range {
    int64_t begin = -1;
    int32_t size = 0;
  };
  std::vector<Range> ranges;  // by token id
  std::vector<ElementMapping> mappings;

  bool resolved(int32_t id) const { return ranges[static_cast<size_t>(id)].begin >= 0; }
  // Requires resolved(id).
  std::span<const ElementMapping> of(int32_t id) const {
    const Range& range = ranges[static_cast<size_t>(id)];
    return {mappings.data() + range.begin, static_cast<size_t>(range.size)};
  }
};

// An immutable token -> id table with each id's mappings: the ids an
// ObjectBuilder had interned, and the mappings it had resolved, when it
// published the dictionary (ObjectBuilder::Dictionary). Shared freely
// across threads; queries resolve against it without a lock.
class TokenDictionary {
 public:
  TokenDictionary(std::vector<std::string> tokens, TokenIndex index, TokenMappingTable mappings)
      : tokens_(std::move(tokens)), index_(std::move(index)), mappings_(std::move(mappings)) {}

  // Id of `token`, or -1 when absent.
  int32_t Find(std::string_view token) const { return index_.Find(token, tokens_); }
  int32_t size() const { return static_cast<int32_t>(tokens_.size()); }

  // Id -> mappings, for 0 <= id < size(); an id the builder had only
  // interned (PreloadTokens, InternToken) is unresolved here.
  const TokenMappingTable& mappings() const { return mappings_; }

 private:
  std::vector<std::string> tokens_;  // id -> token
  TokenIndex index_;                 // over tokens_
  TokenMappingTable mappings_;
};

// Turns token lists into Objects: interns tokens (identical tokens across
// *both* join sides must share token ids, so use one builder per join) and
// resolves each token against the knowledge hierarchy through the
// EntityMatcher. A token's mappings depend on the token alone (the matcher
// is frozen from its first lookup), so the builder resolves each id once,
// the first time Build or BuildWithSpans meets it, and copies the mappings
// for every later occurrence.
class ObjectBuilder {
 public:
  // `matcher` must outlive the builder. multi_mapping=false gives the
  // paper's K-Join (one exact/synonym node per element), true gives
  // K-Join+ (§6.4: multiple nodes via ambiguity, synonyms and typos).
  ObjectBuilder(const EntityMatcher& matcher, bool multi_mapping);

  Object Build(int32_t id, const std::vector<std::string>& tokens);

  // Builds a query without interning: a token `dictionary` knows gets its
  // id, any other token gets token_id = -1, and the object records
  // dictionary.size() (Object::dictionary_size) so a probe of a newer
  // epoch can re-resolve it (ResolveUnknownTokens). Mappings are exactly
  // Build's: copied from `dictionary` for a resolved id, matched for an
  // unknown or unresolved token. `dictionary` must come from this
  // builder's Dictionary(). Reads only `dictionary` and what the
  // constructor fixed (matcher, mode, tokenizer), so any number of threads
  // may call it while the owning thread keeps interning through Build.
  Object BuildQuery(int32_t id, const std::vector<std::string>& tokens,
                    const TokenDictionary& dictionary) const;

  // Tokenizes `text` first (lower-case alphanumeric tokens).
  Object BuildFromText(int32_t id, std::string_view text);

  // Greedy longest-span entity recognition: runs of up to `max_span`
  // consecutive tokens whose concatenation matches a hierarchy label or
  // synonym exactly become ONE element ("mountain view" ->
  // MountainView). Multi-token spans require an exact/synonym match
  // (φ = 1) — approximate matching on concatenations would produce junk
  // entities. Remaining tokens are handled as in Build.
  Object BuildWithSpans(int32_t id, const std::vector<std::string>& tokens, int max_span = 3);

  // Dense id of `token`, creating one if new. A new id is unresolved: its
  // mappings are matched when a Build first meets it.
  int32_t InternToken(std::string_view token);

  // Seeds a fresh builder with a snapshot's token table: tokens[i] gets
  // id i, so objects built afterwards are id-compatible with a collection
  // serialized alongside that table (serve/snapshot.h). Runs no matcher.
  // Requires an interner with no tokens yet and no duplicate entries in
  // `tokens`.
  void PreloadTokens(const std::vector<std::string>& tokens);

  // Every interned token in id order — what PreloadTokens consumes on
  // restore. Append-only: a later intern extends it in place.
  const std::vector<std::string>& TokenTable() const { return tokens_; }

  // Every interned token, with the mappings resolved so far, as an
  // immutable dictionary for BuildQuery on other threads. Later interning
  // does not change a returned dictionary; call again to publish the newer
  // tokens (a copy of the table, made only when it grew or resolved more
  // ids since the last call).
  std::shared_ptr<const TokenDictionary> Dictionary();

  int64_t num_distinct_tokens() const { return static_cast<int64_t>(tokens_.size()); }
  bool multi_mapping() const { return multi_mapping_; }

 private:
  // `token`'s hierarchy mappings for the builder's mode.
  std::vector<ElementMapping> Match(std::string_view token) const;
  // The element for interned `token_id`, resolving the id on first use.
  Element MakeElement(int32_t token_id);

  const EntityMatcher* matcher_;
  bool multi_mapping_;
  Tokenizer tokenizer_;
  std::vector<std::string> tokens_;  // id -> token
  TokenIndex token_ids_;             // token -> id, over tokens_
  // Reused by Build and BuildWithSpans: a token's normal form when it
  // is not normal already, and the normalized tokens of one record back
  // to back, each ending at its span_ends_ entry.
  std::string normal_;
  std::string span_text_;
  std::vector<size_t> span_ends_;
  TokenMappingTable mappings_;
  int64_t num_resolved_ = 0;
  std::shared_ptr<const TokenDictionary> published_;  // last Dictionary()
  int64_t published_resolved_ = 0;                    // num_resolved_ then
};

// Re-resolves the unknown tokens (token_id = -1) of a BuildQuery object
// against the ids `tokens` — an epoch's token table, an append-only
// extension of the query's dictionary — holds past
// query.dictionary_size. Returns false when no id changes (*resolved
// untouched); otherwise *resolved is the query with the found ids.
bool ResolveUnknownTokens(const Object& query, const std::vector<std::string>& tokens,
                          Object* resolved);

}  // namespace kjoin

#endif  // KJOIN_CORE_OBJECT_H_
