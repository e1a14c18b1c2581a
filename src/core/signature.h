#ifndef KJOIN_CORE_SIGNATURE_H_
#define KJOIN_CORE_SIGNATURE_H_

// Signature schemes (paper §3.1 node signatures, §4.1 path signatures).
//
// A signature is a hierarchy node (or a raw token for unmapped elements)
// such that two δ-similar elements are guaranteed to share at least one
// signature. Three schemes:
//   kNode        — the ancestor at the global depth d_δ = ⌈δ/(1−δ)⌉
//                  (Definition 4); one signature per mapping.
//   kShallowPath — ancestors at depths [⌈δ⌈δd⌉⌉, ⌈δd⌉] (Definition 6).
//   kDeepPath    — ancestors at depths [⌈δd⌉, d]        (Definition 7);
//                  finer-grained, the paper's best performer.
// Signatures carry weights (the maximum element similarity realizable
// through them) for the weighted path prefix (Definition 9) — only deep
// path signatures have informative weights.

#include <cstdint>
#include <vector>

#include "core/element.h"
#include "core/element_similarity.h"
#include "core/object.h"

namespace kjoin {

// A signature value. Hierarchy nodes use their NodeId; elements with no
// node mapping use `token_signature_base + token_id` (two unmapped tokens
// can only be similar when identical, so the token itself is a sound
// signature).
using SigId = int64_t;

// The signature of an unmapped element whose token the index has never
// seen (token_id = -1, ObjectBuilder::BuildQuery). Such an element can
// only match an identical token, which no probed layer holds, so the
// signature is one no indexed element carries: node signatures are
// >= 0, token signatures >= the token base.
constexpr SigId kUnknownTokenSignature = -1;

enum class SignatureScheme {
  kNode,
  kShallowPath,
  kDeepPath,
};

struct Signature {
  SigId id = 0;
  // Index of the generating element within its object (prefix rules count
  // distinct elements, Definition 8).
  int32_t element = 0;
  // Max element-pair similarity realizable through this signature; 1 for
  // node/shallow/token signatures (see header comment).
  float weight = 1.0f;
};

class SignatureGenerator {
 public:
  // The hierarchy must outlive the generator. Requires 0 < delta <= 1.
  SignatureGenerator(const Hierarchy& hierarchy, ElementMetric metric, SignatureScheme scheme,
                     double delta);

  // All signatures of the object, one entry per (element, distinct sig),
  // deduplicated per element keeping the maximal weight, in element order.
  std::vector<Signature> Generate(const Object& object) const;

  // Generate, appended to *out: the join's prepare writes every object's
  // signatures into one flat arena. Entries already in *out are left as
  // they are.
  void AppendSignatures(const Object& object, std::vector<Signature>* out) const;

  // The node signatures of one element (Definition 4), used for the
  // verification-side grouping (Lemma 8) regardless of the filter scheme.
  // One per mapping (deduplicated); the token signature when unmapped.
  void AppendNodeSignatures(const Element& element, std::vector<SigId>* out) const;

  // kUnknownTokenSignature for token_id = -1.
  SigId TokenSignature(int32_t token_id) const {
    return token_id < 0 ? kUnknownTokenSignature : token_base_ + static_cast<SigId>(token_id);
  }

  SignatureScheme scheme() const { return scheme_; }
  double delta() const { return delta_; }
  // d_δ (meaningful for the node scheme; INT_MAX/2 when delta == 1).
  int node_signature_depth() const { return d_delta_; }

 private:
  void AppendForMapping(const ElementMapping& mapping, int32_t element_index,
                        std::vector<Signature>* out) const;

  const Hierarchy* hierarchy_;
  ElementMetric metric_;
  SignatureScheme scheme_;
  double delta_;
  int d_delta_;
  SigId token_base_;
};

}  // namespace kjoin

#endif  // KJOIN_CORE_SIGNATURE_H_
