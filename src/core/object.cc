#include "core/object.h"

#include <algorithm>

namespace kjoin {

ObjectBuilder::ObjectBuilder(const EntityMatcher& matcher, bool multi_mapping)
    : matcher_(&matcher), multi_mapping_(multi_mapping) {}

int32_t ObjectBuilder::InternToken(std::string_view token) {
  const int32_t found = token_ids_.Find(token, tokens_);
  if (found >= 0) return found;
  tokens_.emplace_back(token);
  token_ids_.Add(tokens_);
  mappings_.ranges.emplace_back();
  return static_cast<int32_t>(tokens_.size()) - 1;
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
    published_ = std::make_shared<const TokenDictionary>(tokens_, token_ids_, mappings_);
    published_resolved_ = num_resolved_;
  }
  return published_;
}

std::vector<ElementMapping> ObjectBuilder::Match(std::string_view token) const {
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

Element ObjectBuilder::MakeElement(int32_t token_id) {
  const std::string& token = tokens_[static_cast<size_t>(token_id)];
  if (!mappings_.resolved(token_id)) {
    const std::vector<ElementMapping> matched = Match(token);
    mappings_.ranges[static_cast<size_t>(token_id)] = {
        static_cast<int64_t>(mappings_.mappings.size()), static_cast<int32_t>(matched.size())};
    mappings_.mappings.insert(mappings_.mappings.end(), matched.begin(), matched.end());
    ++num_resolved_;
  }
  const std::span<const ElementMapping> mappings = mappings_.of(token_id);
  Element element;
  element.token = token;
  element.token_id = token_id;
  element.mappings.assign(mappings.begin(), mappings.end());
  return element;
}

Object ObjectBuilder::Build(int32_t id, const std::vector<std::string>& tokens) {
  Object object;
  object.id = id;
  object.elements.reserve(tokens.size());
  for (const std::string& raw : tokens) {
    const std::string_view token = tokenizer_.NormalizeView(raw, &normal_);
    if (token.empty()) continue;
    object.elements.push_back(MakeElement(InternToken(token)));
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
  std::string normal;  // per call: any number of threads may build queries
  for (const std::string& raw : tokens) {
    const std::string_view token = tokenizer_.NormalizeView(raw, &normal);
    if (token.empty()) continue;
    Element element;
    element.token_id = dictionary.Find(token);
    if (element.token_id >= 0 && known.resolved(element.token_id)) {
      const std::span<const ElementMapping> mappings = known.of(element.token_id);
      element.mappings.assign(mappings.begin(), mappings.end());
    } else {
      element.mappings = Match(token);
    }
    element.token = token;
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
  // Normalize once, back to back, so a run of tokens is one view.
  span_text_.clear();
  span_ends_.clear();
  for (const std::string& raw : tokens) {
    const std::string_view token = tokenizer_.NormalizeView(raw, &normal_);
    if (token.empty()) continue;
    span_text_.append(token);
    span_ends_.push_back(span_text_.size());
  }
  // The concatenation of tokens [i, i + span).
  auto run = [&](size_t i, size_t span) {
    const size_t begin = i == 0 ? 0 : span_ends_[i - 1];
    return std::string_view(span_text_).substr(begin, span_ends_[i + span - 1] - begin);
  };

  const size_t n = span_ends_.size();
  size_t i = 0;
  while (i < n) {
    // Longest span first; multi-token spans must match exactly (φ = 1).
    size_t taken = 1;
    for (size_t span = std::min<size_t>(max_span, n - i); span >= 2; --span) {
      if (!matcher_->MatchOne(run(i, span)).has_value()) continue;
      taken = span;
      break;
    }
    object.elements.push_back(MakeElement(InternToken(run(i, taken))));
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
