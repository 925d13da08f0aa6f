#include "rtree/iwp_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>
#include <vector>

#include "rtree/queries.h"

namespace nwc {

namespace {

using Entries = std::vector<std::pair<NodeId, NodePointer>>;

// Number of backward pointers per leaf for a tree of height h: the
// smallest r with h - 2^(r-2) <= 0, i.e. r = ceil(log2 h) + 2; a
// root-only tree needs just the single self/root pointer.
int BackwardPointerCountFor(int height) {
  if (height <= 0) return 1;
  int r = 2;
  while (height - (1 << (r - 2)) > 0) ++r;
  return r;
}

// Backward targets are the leaves plus every node at a level 2^(i-2) for
// 1 < i < r, i.e. every power of two below the root's level h.
bool IsTargetLevel(int level, int height) {
  return level == 0 || (level < height && (level & (level - 1)) == 0);
}

// The overlap sweep's order, and so the order of every overlap list:
// min_x, ties by node id.
bool ByMinXThenId(const NodePointer& a, const NodePointer& b) {
  return a.mbr.min_x < b.mbr.min_x || (a.mbr.min_x == b.mbr.min_x && a.node < b.node);
}

bool SameBits(const Rect& a, const Rect& b) { return std::memcmp(&a, &b, sizeof(Rect)) == 0; }

// Backward pointers of `leaf`: self, ancestors at exponentially growing
// height offsets, then the root. bp_i targets the ancestor at paper-depth
// h - 2^(i-2), i.e. at level 2^(i-2) above the leaf; `path[l]` holds the
// leaf's ancestor at level l.
void AppendBackward(const NodePointer& leaf, const std::vector<NodePointer>& path, int h, int r,
                    Entries* out) {
  out->emplace_back(leaf.node, leaf);
  for (int i = 2; i < r; ++i) out->emplace_back(leaf.node, path[1u << (i - 2)]);
  if (r >= 2) out->emplace_back(leaf.node, path[static_cast<size_t>(h)]);
}

// MBR of `id` as Build reads it: the parent's child entry, or recomputed
// for the root.
Rect EntryMbr(const RStarTree& tree, NodeId id) {
  const RTreeNode& n = tree.node(id);
  if (n.parent == kInvalidNodeId) return n.ComputeMbr();
  for (const ChildEntry& entry : tree.node(n.parent).children) {
    if (entry.child == id) return entry.mbr;
  }
  assert(false && "child entry missing from parent");
  return n.ComputeMbr();
}

// Appends the overlap list of node `self` at `level` with MBR `mbr`: every
// other non-root node of that level whose MBR intersects it, in sweep
// order. Descends only into subtrees whose MBR intersects `mbr`, which
// every ancestor of such a node does.
void AppendOverlaps(const RStarTree& tree, NodeId self, int level, const Rect& mbr,
                    std::vector<NodeId>* stack, std::vector<NodePointer>* peers, Entries* out) {
  peers->clear();
  stack->assign(1, tree.root());
  while (!stack->empty()) {
    const RTreeNode& n = tree.node(stack->back());
    stack->pop_back();
    if (n.level <= level) continue;  // a root at `level` has no peers
    for (const ChildEntry& entry : n.children) {
      if (!entry.mbr.Intersects(mbr)) continue;
      if (n.level - 1 > level) {
        stack->push_back(entry.child);
      } else if (entry.child != self) {
        peers->push_back({entry.child, entry.mbr});
      }
    }
  }
  std::sort(peers->begin(), peers->end(), ByMinXThenId);
  for (const NodePointer& peer : *peers) out->emplace_back(self, peer);
}

}  // namespace

IwpIndex::PointerTable IwpIndex::PointerTable::FromEntries(size_t slot_count,
                                                           const Entries& entries) {
  PointerTable table;
  table.begin.assign(slot_count + 1, 0);
  for (const auto& [owner, pointer] : entries) ++table.begin[owner + 1];
  for (size_t i = 1; i < table.begin.size(); ++i) table.begin[i] += table.begin[i - 1];
  table.pointers.resize(entries.size());
  std::vector<uint32_t> next(table.begin.begin(), table.begin.end() - 1);
  for (const auto& [owner, pointer] : entries) table.pointers[next[owner]++] = pointer;
  return table;
}

IwpIndex::PointerTable IwpIndex::PointerTable::Patched(size_t slot_count,
                                                       const std::vector<NodeId>& owners,
                                                       const Entries& entries) const {
  PointerTable table;
  table.begin.resize(slot_count + 1);
  table.pointers.reserve(pointers.size() + entries.size());
  const size_t old_slots = begin.size() - 1;
  // Copies the lists of slots [from, to) in one run; slots past this
  // table's end get empty lists.
  const auto keep = [&](size_t from, size_t to) {
    const size_t kept_to = std::max(from, std::min(to, old_slots));
    const size_t base = table.pointers.size();
    for (size_t s = from; s < kept_to; ++s) {
      table.begin[s] = static_cast<uint32_t>(base + (begin[s] - begin[from]));
    }
    if (from < kept_to) {
      table.pointers.insert(table.pointers.end(), pointers.begin() + begin[from],
                            pointers.begin() + begin[kept_to]);
    }
    for (size_t s = kept_to; s < to; ++s) {
      table.begin[s] = static_cast<uint32_t>(table.pointers.size());
    }
  };
  size_t next = 0;
  size_t e = 0;
  for (const NodeId owner : owners) {
    if (owner >= slot_count) break;
    keep(next, owner);
    table.begin[owner] = static_cast<uint32_t>(table.pointers.size());
    for (; e < entries.size() && entries[e].first == owner; ++e) {
      table.pointers.push_back(entries[e].second);
    }
    next = owner + 1;
  }
  keep(next, slot_count);
  table.begin[slot_count] = static_cast<uint32_t>(table.pointers.size());
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
  Entries backward;
  backward.reserve(tree.node_count() * static_cast<size_t>(r));
  std::vector<NodePointer> stack = {{tree.root(), tree.node(tree.root()).ComputeMbr()}};
  while (!stack.empty()) {
    const NodePointer visit = stack.back();
    stack.pop_back();
    const RTreeNode& n = tree.node(visit.node);
    by_level[static_cast<size_t>(n.level)].push_back(visit);
    path[static_cast<size_t>(n.level)] = visit;
    for (const ChildEntry& entry : n.children) stack.push_back({entry.child, entry.mbr});
    if (n.is_leaf()) AppendBackward(visit, path, h, r, &backward);
  }

  // Overlapping pointers for every backward-target node except the root:
  // same-level nodes with overlapping MBRs (any node at a target level is
  // an ancestor of its leaves, hence a target).
  Entries overlaps;
  for (int level = 0; level <= h; ++level) {
    if (!IsTargetLevel(level, h)) continue;
    // Sweep over min_x so only x-overlapping pairs are compared. Each
    // node's list comes out in sweep order: the partners before it, then
    // those after it.
    std::vector<NodePointer>& boxes = by_level[static_cast<size_t>(level)];
    std::sort(boxes.begin(), boxes.end(), ByMinXThenId);
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

IwpIndex IwpIndex::Update(const IwpIndex& previous, const RStarTree& old_tree,
                          const RStarTree& tree) {
  const int h = tree.height();
  if (h != old_tree.height() || tree.root() != old_tree.root()) return Build(tree);
  assert(previous.root_ == old_tree.root() &&
         previous.backward_.begin.size() == old_tree.node_slot_count() + 1);
  const int r = BackwardPointerCountFor(h);
  const size_t slots = tree.node_slot_count();

  // Changed slots: a different node object (or liveness) than in the old
  // tree. Copy-on-write shares every node a mutation did not write.
  constexpr uint8_t kChanged = 1;
  constexpr uint8_t kOnPath = 2;  // changed, or an ancestor of a changed node
  std::vector<uint8_t> flags(slots, 0);
  std::vector<NodeId> changed;
  for (NodeId id = 0; id < std::max(slots, old_tree.node_slot_count()); ++id) {
    const bool live = tree.IsLive(id);
    if (live == old_tree.IsLive(id) && (!live || &tree.node(id) == &old_tree.node(id))) continue;
    changed.push_back(id);
    if (!live) continue;
    flags[id] |= kChanged;
    for (NodeId a = id; a != kInvalidNodeId && (flags[a] & kOnPath) == 0;
         a = tree.node(a).parent) {
      flags[a] |= kOnPath;
    }
  }

  // Backward lists. A leaf's list is (id, MBR) of itself, of its
  // ancestors at target levels and of the root. Walk down only into
  // subtrees holding a changed node or below a "dirty" node — one whose
  // list of target ancestors (itself included at a target level) may
  // differ from the old tree's: it moved, or a target on its path changed
  // MBR. The root's MBR is patched into copied lists afterwards.
  const Rect root_mbr = tree.node(tree.root()).ComputeMbr();
  Entries backward;
  std::vector<NodeId> backward_owners = changed;
  std::vector<NodePointer> path(static_cast<size_t>(h) + 1);
  struct Visit {
    NodePointer pointer;
    bool dirty;
  };
  std::vector<Visit> walk = {{{tree.root(), root_mbr}, false}};
  while (!walk.empty()) {
    const Visit visit = walk.back();
    walk.pop_back();
    const NodeId id = visit.pointer.node;
    const RTreeNode& n = tree.node(id);
    path[static_cast<size_t>(n.level)] = visit.pointer;
    if (n.is_leaf()) {
      AppendBackward(visit.pointer, path, h, r, &backward);
      backward_owners.push_back(id);
      continue;
    }
    bool dirty = visit.dirty;
    if (!dirty && (flags[id] & kChanged) != 0 && id != tree.root()) {
      const bool moved = !old_tree.IsLive(id) || old_tree.node(id).level != n.level ||
                         old_tree.node(id).parent != n.parent;
      dirty = moved || (IsTargetLevel(n.level, h) &&
                        !SameBits(EntryMbr(old_tree, id), visit.pointer.mbr));
    }
    for (const ChildEntry& entry : n.children) {
      if (dirty || (flags[entry.child] & kOnPath) != 0) {
        walk.push_back({{entry.child, entry.mbr}, dirty});
      }
    }
  }
  std::stable_sort(backward.begin(), backward.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(backward_owners.begin(), backward_owners.end());
  backward_owners.erase(std::unique(backward_owners.begin(), backward_owners.end()),
                        backward_owners.end());

  IwpIndex index;
  index.root_ = tree.root();
  index.backward_ = previous.backward_.Patched(slots, backward_owners, backward);
  if (&tree.node(tree.root()) != &old_tree.node(tree.root()) &&
      !SameBits(root_mbr, old_tree.node(tree.root()).ComputeMbr())) {
    // Every list ends with the root.
    const std::vector<uint32_t>& begin = index.backward_.begin;
    for (size_t s = 0; s < slots; ++s) {
      if (begin[s + 1] > begin[s]) index.backward_.pointers[begin[s + 1] - 1].mbr = root_mbr;
    }
  }

  // Overlap lists. A node's list depends only on the boxes (level and
  // MBR) of itself and its same-level peers, and overlap is symmetric: the
  // lists to recompute are those of every node whose box changed, of its
  // old peers (its previous list) and of its new peers (its new list).
  constexpr uint8_t kFresh = 4;  // box changed; its new list is in `fresh`
  Entries fresh;
  std::vector<NodeId> overlap_owners;
  std::vector<NodeId> stack;
  std::vector<NodePointer> peers;
  for (const NodeId id : changed) {
    const bool live = id < slots && tree.IsLive(id);
    const int level = live ? tree.node(id).level : -1;
    const bool owns = live && id != tree.root() && IsTargetLevel(level, h);
    const Rect mbr = owns ? EntryMbr(tree, id) : Rect::Empty();
    if (live && old_tree.IsLive(id) && old_tree.node(id).level == level &&
        (!owns || SameBits(EntryMbr(old_tree, id), mbr))) {
      continue;  // same box
    }
    overlap_owners.push_back(id);
    for (const NodePointer& peer : previous.OverlapPointers(id)) {
      overlap_owners.push_back(peer.node);
    }
    if (!owns) continue;
    flags[id] |= kFresh;
    const size_t first = fresh.size();
    AppendOverlaps(tree, id, level, mbr, &stack, &peers, &fresh);
    for (size_t i = first; i < fresh.size(); ++i) overlap_owners.push_back(fresh[i].second.node);
  }
  std::sort(overlap_owners.begin(), overlap_owners.end());
  overlap_owners.erase(std::unique(overlap_owners.begin(), overlap_owners.end()),
                       overlap_owners.end());
  Entries overlaps;
  size_t next_fresh = 0;  // `fresh` is in ascending owner order, as `changed` is
  for (const NodeId id : overlap_owners) {
    if (id >= slots || !tree.IsLive(id) || id == tree.root()) continue;
    if ((flags[id] & kFresh) != 0) {
      for (; next_fresh < fresh.size() && fresh[next_fresh].first == id; ++next_fresh) {
        overlaps.push_back(fresh[next_fresh]);
      }
      continue;
    }
    const int level = tree.node(id).level;
    if (IsTargetLevel(level, h)) {
      AppendOverlaps(tree, id, level, EntryMbr(tree, id), &stack, &peers, &overlaps);
    }
  }
  index.overlaps_ = previous.overlaps_.Patched(slots, overlap_owners, overlaps);

  index.backward_pointer_count_ = index.backward_.pointers.size();
  index.overlap_pointer_count_ = index.overlaps_.pointers.size();
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

std::vector<DataObject> IwpIndex::WindowQuery(const RStarTree& tree, NodeId leaf,
                                              const Rect& window, IoCounter* io, IoPhase phase,
                                              QueryControl* control) const {
  std::vector<NodeId> starts;
  std::vector<DataObject> out;
  ResolveStartNodes(leaf, window, &starts);
  WindowQueryFrom(tree, starts, window, &out, io, phase, control);
  return out;
}

}  // namespace nwc
