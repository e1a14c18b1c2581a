#ifndef KJOIN_CORE_ELEMENT_H_
#define KJOIN_CORE_ELEMENT_H_

// The element model.
//
// An object (record) is a multiset of elements; each element is a token
// that maps onto zero or more knowledge-hierarchy nodes (paper §2.1.1).
// K-Join uses a single exact mapping; K-Join+ attaches several mappings,
// each with a confidence φ (1 for exact matches and synonyms, the
// normalized edit similarity for typo matches). Tokens that match no node
// keep an empty mapping list and can only be similar to an identical
// token.

#include <cstdint>
#include <string>
#include <vector>

#include "hierarchy/hierarchy.h"

namespace kjoin {

// One (node, confidence) mapping of an element.
struct ElementMapping {
  NodeId node = kInvalidNode;
  double phi = 0.0;

  friend bool operator==(const ElementMapping&, const ElementMapping&) = default;
};

struct Element {
  // Normalized surface form.
  std::string token;
  // Dense id of `token` from the ObjectBuilder's interner; identical
  // tokens (across both join sides) share an id. -1 for a query token
  // the dictionary it was built against did not hold
  // (ObjectBuilder::BuildQuery).
  int32_t token_id = -1;
  // Candidate nodes, sorted by phi descending. Empty when unmatched.
  std::vector<ElementMapping> mappings;

  bool has_node() const { return !mappings.empty(); }

  // Largest mapping confidence (0 when unmatched).
  double max_phi() const;
};

}  // namespace kjoin

#endif  // KJOIN_CORE_ELEMENT_H_
