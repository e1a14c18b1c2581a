#include "hierarchy/hierarchy.h"

#include <algorithm>

#include "common/logging.h"

namespace kjoin {

Hierarchy::Hierarchy(std::vector<NodeId> parents, std::vector<std::string> labels)
    : parents_(std::move(parents)), labels_(std::move(labels)) {
  KJOIN_CHECK(!parents_.empty()) << "a hierarchy needs at least a root";
  KJOIN_CHECK_EQ(parents_.size(), labels_.size());
  KJOIN_CHECK_EQ(parents_[0], kInvalidNode) << "node 0 must be the root";

  const int64_t n = num_nodes();
  depths_.assign(n, 0);
  child_offsets_.assign(n + 1, 0);
  for (NodeId v = 1; v < n; ++v) {
    const NodeId p = parents_[v];
    KJOIN_CHECK(p >= 0 && p < v) << "parents must precede children (node " << v << ")";
    depths_[v] = depths_[p] + 1;
    ++child_offsets_[p + 1];
    height_ = std::max(height_, depths_[v]);
  }
  // CSR fill: prefix-sum the per-parent counts, then place children in
  // ascending id order (the same order the old per-node vectors grew in).
  for (NodeId v = 0; v < n; ++v) child_offsets_[v + 1] += child_offsets_[v];
  child_nodes_.resize(n > 0 ? n - 1 : 0);
  std::vector<int32_t> cursor(child_offsets_.begin(), child_offsets_.end() - 1);
  for (NodeId v = 1; v < n; ++v) child_nodes_[cursor[parents_[v]]++] = v;
  for (NodeId v = 0; v < n; ++v) {
    if (IsLeaf(v)) leaves_.push_back(v);
  }
}

Hierarchy::Hierarchy(HierarchyParts parts, AdoptTag)
    : parents_(std::move(parts.parents)),
      labels_(std::move(parts.labels)),
      depths_(std::move(parts.depths)),
      child_offsets_(std::move(parts.child_offsets)),
      child_nodes_(std::move(parts.child_nodes)),
      leaves_(std::move(parts.leaves)),
      height_(parts.height) {}

StatusOr<Hierarchy> Hierarchy::FromParts(HierarchyParts parts) {
  const auto reject = [](const std::string& what) {
    return InvalidArgumentError("hierarchy parts: " + what);
  };
  const int64_t n = static_cast<int64_t>(parts.parents.size());
  if (n == 0) return reject("no nodes");
  if (parts.labels.size() != parts.parents.size()) return reject("label count mismatch");
  if (parts.depths.size() != parts.parents.size()) return reject("depth count mismatch");
  if (parts.parents[0] != kInvalidNode) return reject("node 0 is not the root");
  if (parts.depths[0] != 0) return reject("root depth is not 0");
  if (parts.child_offsets.size() != static_cast<size_t>(n) + 1 ||
      parts.child_nodes.size() != static_cast<size_t>(n) - 1) {
    return reject("CSR adjacency sizes inconsistent");
  }
  if (parts.child_offsets[0] != 0 || parts.child_offsets[n] != n - 1) {
    return reject("CSR offsets do not cover all children");
  }
  int height = 0;
  for (NodeId v = 1; v < n; ++v) {
    const NodeId p = parts.parents[v];
    if (p < 0 || p >= v) return reject("parent of node " + std::to_string(v) + " out of order");
    if (parts.depths[v] != parts.depths[p] + 1) {
      return reject("depth of node " + std::to_string(v) + " inconsistent with its parent");
    }
    height = std::max(height, parts.depths[v]);
  }
  if (parts.height != height) return reject("height inconsistent with depths");
  // Monotone offsets plus the pinned endpoints above prove every offset
  // lies in [0, n-1], so the replay below never indexes child_nodes out
  // of bounds whatever the (untrusted) interior values are.
  for (NodeId v = 0; v < n; ++v) {
    if (parts.child_offsets[v + 1] < parts.child_offsets[v]) {
      return reject("CSR offsets not monotone");
    }
  }
  // The CSR must be exactly the adjacency of `parents` with each child
  // list ascending: replay the fill the constructor would do and compare.
  std::vector<int32_t> cursor(parts.child_offsets.begin(), parts.child_offsets.end() - 1);
  for (NodeId v = 1; v < n; ++v) {
    const NodeId p = parts.parents[v];
    const int32_t slot = cursor[p]++;
    if (slot >= parts.child_offsets[p + 1] || parts.child_nodes[slot] != v) {
      return reject("CSR adjacency inconsistent with parents at node " + std::to_string(v));
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (cursor[v] != parts.child_offsets[v + 1]) {
      return reject("child list of node " + std::to_string(v) + " over- or under-full");
    }
  }
  size_t leaf_cursor = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (parts.child_offsets[v] != parts.child_offsets[v + 1]) continue;
    if (leaf_cursor >= parts.leaves.size() || parts.leaves[leaf_cursor] != v) {
      return reject("leaf list inconsistent");
    }
    ++leaf_cursor;
  }
  if (leaf_cursor != parts.leaves.size()) return reject("leaf list has extra entries");
  return Hierarchy(std::move(parts), AdoptTag{});
}

std::vector<NodeId> Hierarchy::NodesWithLabel(std::string_view label) const {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (labels_[v] == label) nodes.push_back(v);
  }
  return nodes;
}

std::optional<NodeId> Hierarchy::FindByLabel(std::string_view label) const {
  const std::vector<NodeId> nodes = NodesWithLabel(label);
  if (nodes.size() != 1) return std::nullopt;
  return nodes[0];
}

NodeId Hierarchy::AncestorAtDepth(NodeId node, int target_depth) const {
  KJOIN_CHECK_GE(target_depth, 0);
  KJOIN_CHECK_LE(target_depth, depth(node));
  while (depths_[node] > target_depth) node = parents_[node];
  return node;
}

bool Hierarchy::IsAncestor(NodeId ancestor, NodeId node) const {
  if (depth(ancestor) > depth(node)) return false;
  return AncestorAtDepth(node, depth(ancestor)) == ancestor;
}

NodeId Hierarchy::LowestCommonAncestorNaive(NodeId x, NodeId y) const {
  CheckId(x);
  CheckId(y);
  while (depths_[x] > depths_[y]) x = parents_[x];
  while (depths_[y] > depths_[x]) y = parents_[y];
  while (x != y) {
    x = parents_[x];
    y = parents_[y];
  }
  return x;
}

HierarchyStats Hierarchy::ComputeStats() const {
  HierarchyStats stats;
  stats.num_nodes = num_nodes();
  stats.height = height_;
  stats.num_leaves = static_cast<int64_t>(leaves_.size());

  int64_t fanout_sum = 0;
  int64_t internal = 0;
  stats.min_fanout = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    const int fanout = child_offsets_[v + 1] - child_offsets_[v];
    if (fanout == 0) continue;
    ++internal;
    fanout_sum += fanout;
    stats.max_fanout = std::max(stats.max_fanout, fanout);
    stats.min_fanout = (internal == 1) ? fanout : std::min(stats.min_fanout, fanout);
  }
  stats.avg_fanout = internal > 0 ? static_cast<double>(fanout_sum) / internal : 0.0;

  int64_t leaf_depth_sum = 0;
  for (NodeId leaf : leaves_) leaf_depth_sum += depths_[leaf];
  stats.avg_leaf_depth =
      leaves_.empty() ? 0.0 : static_cast<double>(leaf_depth_sum) / leaves_.size();
  return stats;
}

NodeId Hierarchy::CheckId(NodeId node) const {
  KJOIN_DCHECK(node >= 0 && node < num_nodes()) << "bad node id " << node;
  return node;
}

}  // namespace kjoin
