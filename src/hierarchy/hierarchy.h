#ifndef KJOIN_HIERARCHY_HIERARCHY_H_
#define KJOIN_HIERARCHY_HIERARCHY_H_

// The knowledge hierarchy: an immutable rooted, labeled tree.
//
// K-Join (Shang et al., ICDE 2017) models the knowledge base as a tree T.
// Elements of objects are mapped to tree nodes; the element similarity
// (Definition 1) is d_LCA / max(d_x, d_y), where d_x is the depth of node x
// and the root has depth 0. This class stores the tree plus the derived
// data every K-Join component consumes: depths, children, label lookup and
// ancestor-at-depth walks. Instances are created by HierarchyBuilder,
// HierarchyGenerator, ConvertDagToTree, or ParseHierarchy.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace kjoin {

// Index of a node inside one Hierarchy. Nodes are dense: 0..num_nodes()-1,
// with 0 always the root. Parents always precede children.
using NodeId = int32_t;

inline constexpr NodeId kInvalidNode = -1;

// Shape statistics in the form the paper reports (its Table 2).
struct HierarchyStats {
  int64_t num_nodes = 0;
  int height = 0;           // max depth of any node
  double avg_fanout = 0.0;  // over internal (non-leaf) nodes
  int max_fanout = 0;
  int min_fanout = 0;  // over internal nodes
  int64_t num_leaves = 0;
  double avg_leaf_depth = 0.0;
};

// The full precomputed state of a Hierarchy, as serialized by the index
// snapshot format (serve/snapshot.h). FromParts validates everything in
// O(n) and adopts the arrays without re-deriving them.
struct HierarchyParts {
  std::vector<NodeId> parents;
  std::vector<std::string> labels;
  std::vector<int> depths;
  std::vector<int32_t> child_offsets;
  std::vector<NodeId> child_nodes;
  std::vector<NodeId> leaves;
  int height = 0;
};

class Hierarchy {
 public:
  // Use HierarchyBuilder to construct instances.
  Hierarchy(std::vector<NodeId> parents, std::vector<std::string> labels);

  // Adopts precomputed arrays (snapshot restore). Unlike the constructor
  // — which terminates on broken invariants, since its callers derive the
  // arrays themselves — this treats `parts` as untrusted input: every
  // derived array is checked for exact consistency with `parents` in
  // O(n), and any mismatch returns kInvalidArgument instead of aborting.
  // Nothing is re-derived.
  static StatusOr<Hierarchy> FromParts(HierarchyParts parts);

  Hierarchy(const Hierarchy&) = delete;
  Hierarchy& operator=(const Hierarchy&) = delete;
  Hierarchy(Hierarchy&&) = default;
  Hierarchy& operator=(Hierarchy&&) = default;

  int64_t num_nodes() const { return static_cast<int64_t>(parents_.size()); }
  NodeId root() const { return 0; }

  NodeId parent(NodeId node) const { return parents_[CheckId(node)]; }
  int depth(NodeId node) const { return depths_[CheckId(node)]; }
  const std::string& label(NodeId node) const { return labels_[CheckId(node)]; }
  // Children in ascending id order. Adjacency is stored in CSR form
  // (child_offsets_ + child_nodes_), so the whole tree's child lists are
  // one contiguous array and a node's list is a view into it.
  std::span<const NodeId> children(NodeId node) const {
    CheckId(node);
    return {child_nodes_.data() + child_offsets_[node],
            child_nodes_.data() + child_offsets_[node + 1]};
  }
  bool IsLeaf(NodeId node) const {
    return child_offsets_[CheckId(node)] == child_offsets_[node + 1];
  }

  // Max depth over all nodes (root alone => 0).
  int height() const { return height_; }

  // All leaf nodes in id order. K-Join treats leaves as the entity
  // vocabulary that records are drawn from.
  const std::vector<NodeId>& leaves() const { return leaves_; }

  // All nodes carrying `label` (several when a DAG was unfolded into a
  // tree, or when distinct entities share a surface form), in id order.
  // Empty vector if none. One O(n) scan of the labels: no caller on a hot
  // path looks nodes up by label, so no index is kept for it.
  std::vector<NodeId> NodesWithLabel(std::string_view label) const;

  // The unique node with `label`, or nullopt when absent/ambiguous. O(n).
  std::optional<NodeId> FindByLabel(std::string_view label) const;

  // The ancestor of `node` at depth `target_depth`. Requires
  // 0 <= target_depth <= depth(node). O(depth - target_depth).
  NodeId AncestorAtDepth(NodeId node, int target_depth) const;

  // True iff `ancestor` lies on the root path of `node` (a node is its own
  // ancestor).
  bool IsAncestor(NodeId ancestor, NodeId node) const;

  // The paper's O(d_x + d_y) bottom-up LCA: lift the deeper node to the
  // shallower depth, then walk both up in lock step. LcaIndex provides the
  // O(1) alternative.
  NodeId LowestCommonAncestorNaive(NodeId x, NodeId y) const;

  HierarchyStats ComputeStats() const;

  // Raw derived arrays, for the snapshot writer (serve/snapshot.h).
  const std::vector<NodeId>& parents() const { return parents_; }
  const std::vector<std::string>& labels() const { return labels_; }
  const std::vector<int>& depths() const { return depths_; }
  const std::vector<int32_t>& child_offsets() const { return child_offsets_; }
  const std::vector<NodeId>& child_nodes() const { return child_nodes_; }

 private:
  struct AdoptTag {};
  Hierarchy(HierarchyParts parts, AdoptTag);

  NodeId CheckId(NodeId node) const;

  std::vector<NodeId> parents_;       // parents_[0] == kInvalidNode
  std::vector<std::string> labels_;   // node labels, not necessarily unique
  std::vector<int> depths_;
  // CSR adjacency: node v's children are child_nodes_[child_offsets_[v] ..
  // child_offsets_[v + 1]), ascending. One allocation for the whole tree.
  std::vector<int32_t> child_offsets_;  // size num_nodes() + 1
  std::vector<NodeId> child_nodes_;     // size num_nodes() - 1
  std::vector<NodeId> leaves_;
  int height_ = 0;
};

}  // namespace kjoin

#endif  // KJOIN_HIERARCHY_HIERARCHY_H_
