#include "rtree/iwp_index.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "rtree/queries.h"

namespace nwc {

namespace {

// Number of backward pointers per leaf for a tree of height h: the
// smallest r with h - 2^(r-2) <= 0, i.e. r = ceil(log2 h) + 2; a
// root-only tree needs just the single self/root pointer.
int BackwardPointerCountFor(int height) {
  if (height <= 0) return 1;
  int r = 2;
  while (height - (1 << (r - 2)) > 0) ++r;
  return r;
}

}  // namespace

IwpIndex::PointerTable IwpIndex::PointerTable::FromEntries(
    size_t slot_count, const std::vector<std::pair<NodeId, NodePointer>>& entries) {
  PointerTable table;
  table.begin.assign(slot_count + 1, 0);
  for (const auto& [owner, pointer] : entries) ++table.begin[owner + 1];
  for (size_t i = 1; i < table.begin.size(); ++i) table.begin[i] += table.begin[i - 1];
  table.pointers.resize(entries.size());
  std::vector<uint32_t> next(table.begin.begin(), table.begin.end() - 1);
  for (const auto& [owner, pointer] : entries) table.pointers[next[owner]++] = pointer;
  return table;
}

IwpIndex IwpIndex::Build(const RStarTree& tree) {
  IwpIndex index;
  index.root_ = tree.root();
  const int h = tree.height();  // leaves are at paper-depth h
  const int r = BackwardPointerCountFor(h);

  // One walk down from the root (the arena may contain freed slots, so
  // traverse rather than scan ids) reads every node's MBR exactly once:
  // from its parent's child entry, which ValidateTree holds equal to the
  // recomputed MBR, or by recomputation for the root alone. The walk is
  // depth-first, so when a leaf is reached `path[l]` holds its ancestor at
  // level l.
  std::vector<std::vector<NodePointer>> by_level(static_cast<size_t>(h) + 1);
  std::vector<NodePointer> path(static_cast<size_t>(h) + 1);
  std::vector<std::pair<NodeId, NodePointer>> backward;
  backward.reserve(tree.node_count() * static_cast<size_t>(r));
  std::vector<NodePointer> stack = {{tree.root(), tree.node(tree.root()).ComputeMbr()}};
  while (!stack.empty()) {
    const NodePointer visit = stack.back();
    stack.pop_back();
    const RTreeNode& n = tree.node(visit.node);
    by_level[static_cast<size_t>(n.level)].push_back(visit);
    path[static_cast<size_t>(n.level)] = visit;
    for (const ChildEntry& entry : n.children) stack.push_back({entry.child, entry.mbr});
    if (!n.is_leaf()) continue;

    // Backward pointers for each leaf: self, ancestors at exponentially
    // growing height offsets, then the root. bp_i targets the ancestor at
    // paper-depth h - 2^(i-2), i.e. at level 2^(i-2) above the leaf.
    backward.emplace_back(visit.node, visit);
    for (int i = 2; i < r; ++i) backward.emplace_back(visit.node, path[1u << (i - 2)]);
    if (r >= 2) backward.emplace_back(visit.node, path[static_cast<size_t>(h)]);
  }

  // Overlapping pointers for every backward-target node except the root:
  // same-level nodes with overlapping MBRs. Backward targets are the
  // leaves plus every node at a level of the form 2^(i-2) (any node at
  // such a level is an ancestor of its leaves, hence a target).
  std::vector<std::pair<NodeId, NodePointer>> overlaps;
  std::vector<int> target_levels = {0};
  for (int i = 2; i < r; ++i) target_levels.push_back(1 << (i - 2));
  for (const int level : target_levels) {
    // Sweep over min_x so only x-overlapping pairs are compared.
    std::vector<NodePointer>& boxes = by_level[static_cast<size_t>(level)];
    std::sort(boxes.begin(), boxes.end(), [](const NodePointer& a, const NodePointer& b) {
      return a.mbr.min_x < b.mbr.min_x;
    });
    for (size_t i = 0; i < boxes.size(); ++i) {
      if (boxes[i].node == tree.root()) continue;
      for (size_t j = i + 1; j < boxes.size(); ++j) {
        if (boxes[j].mbr.min_x > boxes[i].mbr.max_x) break;
        if (!boxes[i].mbr.Intersects(boxes[j].mbr)) continue;
        overlaps.emplace_back(boxes[i].node, boxes[j]);
        if (boxes[j].node != tree.root()) overlaps.emplace_back(boxes[j].node, boxes[i]);
      }
    }
  }

  index.backward_pointer_count_ = backward.size();
  index.overlap_pointer_count_ = overlaps.size();
  index.backward_ = PointerTable::FromEntries(tree.node_slot_count(), backward);
  index.overlaps_ = PointerTable::FromEntries(tree.node_slot_count(), overlaps);
  return index;
}

void IwpIndex::ResolveStartNodes(NodeId leaf, const Rect& window,
                                 std::vector<NodeId>* starts) const {
  starts->clear();
  // Smallest i whose MBR covers the window; the root covers every window
  // that can contain objects, and search regions may extend beyond the
  // data space, so fall back to the root when nothing covers.
  const NodePointer* chosen = nullptr;
  for (const NodePointer& bp : BackwardPointers(leaf)) {
    if (bp.mbr.Contains(window)) {
      chosen = &bp;
      break;
    }
  }
  if (chosen == nullptr) {
    starts->push_back(root_);
    return;
  }
  starts->push_back(chosen->node);
  for (const NodePointer& op : OverlapPointers(chosen->node)) {
    if (op.mbr.Intersects(window)) starts->push_back(op.node);
  }
}

void IwpIndex::WindowQuery(const RStarTree& tree, NodeId leaf, const Rect& window,
                           std::vector<NodeId>* starts, std::vector<DataObject>* out,
                           IoCounter* io, IoPhase phase, QueryControl* control) const {
  ResolveStartNodes(leaf, window, starts);
  WindowQueryFrom(tree, *starts, window, out, io, phase, control);
}

std::vector<DataObject> IwpIndex::WindowQuery(const RStarTree& tree, NodeId leaf,
                                              const Rect& window, IoCounter* io, IoPhase phase,
                                              QueryControl* control) const {
  std::vector<NodeId> starts;
  std::vector<DataObject> out;
  WindowQuery(tree, leaf, window, &starts, &out, io, phase, control);
  return out;
}

}  // namespace nwc
