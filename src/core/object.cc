#include "core/object.h"

#include <algorithm>

namespace kjoin {

ObjectBuilder::ObjectBuilder(const EntityMatcher& matcher, bool multi_mapping)
    : matcher_(&matcher), multi_mapping_(multi_mapping) {}

int32_t ObjectBuilder::InternToken(const std::string& token) {
  const auto [it, inserted] = token_ids_.emplace(token, static_cast<int32_t>(tokens_.size()));
  if (inserted) {
    tokens_.push_back(token);
    mappings_.ranges.emplace_back();
  }
  return it->second;
}

void ObjectBuilder::PreloadTokens(const std::vector<std::string>& tokens) {
  KJOIN_CHECK(tokens_.empty()) << "PreloadTokens needs a fresh builder";
  for (const std::string& token : tokens) {
    const int32_t id = InternToken(token);
    KJOIN_CHECK_EQ(static_cast<size_t>(id) + 1, tokens_.size())
        << "duplicate token in preload table: " << token;
  }
}

std::shared_ptr<const TokenDictionary> ObjectBuilder::Dictionary() {
  if (published_ == nullptr || published_->size() != num_distinct_tokens() ||
      published_resolved_ != num_resolved_) {
    published_ = std::make_shared<const TokenDictionary>(token_ids_, mappings_);
    published_resolved_ = num_resolved_;
  }
  return published_;
}

std::vector<ElementMapping> ObjectBuilder::Match(const std::string& token) const {
  std::vector<ElementMapping> mappings;
  if (multi_mapping_) {
    for (const EntityMatch& match : matcher_->MatchAll(token)) {
      mappings.push_back({match.node, match.phi});
    }
  } else if (auto match = matcher_->MatchOne(token); match.has_value()) {
    mappings.push_back({match->node, match->phi});
  }
  return mappings;
}

Element ObjectBuilder::MakeElement(std::string token, int32_t token_id) {
  if (!mappings_.resolved(token_id)) {
    const std::vector<ElementMapping> matched = Match(token);
    mappings_.ranges[static_cast<size_t>(token_id)] = {
        static_cast<int64_t>(mappings_.mappings.size()), static_cast<int32_t>(matched.size())};
    mappings_.mappings.insert(mappings_.mappings.end(), matched.begin(), matched.end());
    ++num_resolved_;
  }
  const std::span<const ElementMapping> mappings = mappings_.of(token_id);
  Element element;
  element.token = std::move(token);
  element.token_id = token_id;
  element.mappings.assign(mappings.begin(), mappings.end());
  return element;
}

Object ObjectBuilder::Build(int32_t id, const std::vector<std::string>& tokens) {
  Object object;
  object.id = id;
  object.elements.reserve(tokens.size());
  for (const std::string& raw : tokens) {
    std::string token = tokenizer_.Normalize(raw);
    if (token.empty()) continue;
    const int32_t token_id = InternToken(token);
    object.elements.push_back(MakeElement(std::move(token), token_id));
  }
  return object;
}

Object ObjectBuilder::BuildQuery(int32_t id, const std::vector<std::string>& tokens,
                                 const TokenDictionary& dictionary) const {
  const TokenMappingTable& known = dictionary.mappings();
  Object object;
  object.id = id;
  object.dictionary_size = dictionary.size();
  object.elements.reserve(tokens.size());
  for (const std::string& raw : tokens) {
    std::string token = tokenizer_.Normalize(raw);
    if (token.empty()) continue;
    Element element;
    element.token_id = dictionary.Find(token);
    if (element.token_id >= 0 && known.resolved(element.token_id)) {
      const std::span<const ElementMapping> mappings = known.of(element.token_id);
      element.mappings.assign(mappings.begin(), mappings.end());
    } else {
      element.mappings = Match(token);
    }
    element.token = std::move(token);
    object.elements.push_back(std::move(element));
  }
  return object;
}

Object ObjectBuilder::BuildFromText(int32_t id, std::string_view text) {
  return Build(id, tokenizer_.Tokenize(text));
}

Object ObjectBuilder::BuildWithSpans(int32_t id, const std::vector<std::string>& tokens,
                                     int max_span) {
  Object object;
  object.id = id;
  // Normalize once.
  std::vector<std::string> normalized;
  normalized.reserve(tokens.size());
  for (const std::string& raw : tokens) {
    std::string token = tokenizer_.Normalize(raw);
    if (!token.empty()) normalized.push_back(std::move(token));
  }

  size_t i = 0;
  while (i < normalized.size()) {
    // Longest span first; multi-token spans must match exactly (φ = 1).
    size_t taken = 1;
    std::string token = normalized[i];
    for (size_t span = std::min<size_t>(max_span, normalized.size() - i); span >= 2; --span) {
      std::string concatenated;
      for (size_t k = 0; k < span; ++k) concatenated += normalized[i + k];
      if (!matcher_->MatchOne(concatenated).has_value()) continue;
      token = std::move(concatenated);
      taken = span;
      break;
    }
    const int32_t token_id = InternToken(token);
    object.elements.push_back(MakeElement(std::move(token), token_id));
    i += taken;
  }
  return object;
}

bool ResolveUnknownTokens(const Object& query, const std::vector<std::string>& tokens,
                          Object* resolved) {
  if (query.dictionary_size < 0 ||
      tokens.size() <= static_cast<size_t>(query.dictionary_size)) {
    return false;
  }
  // Only the ids added since the query's dictionary can be new to it.
  const auto added = tokens.begin() + query.dictionary_size;
  bool changed = false;
  for (size_t i = 0; i < query.elements.size(); ++i) {
    const Element& element = query.elements[i];
    if (element.token_id >= 0) continue;
    const auto it = std::find(added, tokens.end(), element.token);
    if (it == tokens.end()) continue;
    if (!changed) *resolved = query;
    changed = true;
    resolved->elements[i].token_id = static_cast<int32_t>(it - tokens.begin());
  }
  if (changed) resolved->dictionary_size = static_cast<int32_t>(tokens.size());
  return changed;
}

}  // namespace kjoin
