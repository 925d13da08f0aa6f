#ifndef NWC_RTREE_IWP_INDEX_H_
#define NWC_RTREE_IWP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/io_stats.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/rstar_tree.h"

namespace nwc {

/// A stored pointer to another node together with a copy of that node's
/// MBR, as the IWP technique embeds into the R-tree (paper Sec. 3.3.4).
/// The MBR copy is what lets coverage/overlap be tested without an I/O.
struct NodePointer {
  NodeId node = kInvalidNodeId;
  Rect mbr;
};

/// The Incremental Window query Processing (IWP) augmentation of an
/// R*-tree (paper Sec. 3.3.4).
///
/// Every leaf carries r backward pointers following the Exponential Index
/// pattern: bp_1 is the leaf itself, bp_i (1 < i < r) is the ancestor at
/// depth h - 2^(i-2) (paper depth convention: root 0, leaves h), and bp_r
/// is the root, with r = ceil(log2 h) + 2 (r = 1 for a root-only tree).
/// Every node targeted by a backward pointer except the root carries
/// overlapping pointers to all same-depth nodes whose MBR overlaps its own.
///
/// A window query for the search region of an object p then starts from
/// the lowest backward-pointed ancestor of p's leaf whose MBR covers the
/// region (Algorithm 3), plus the overlapping same-depth nodes intersecting
/// the region, instead of from the root.
///
/// The paper builds the structure over a static tree. Its tables hold the
/// node ids and MBRs of the exact tree they describe, so after the tree
/// mutates they must be rebuilt (Build) or patched from the previous index
/// (Update).
///
/// ThreadSafety: immutable after Build() or Update() returns — every member is const
/// and touches no mutable state, so concurrent readers are safe. Per-query
/// IoCounters passed to WindowQuery() must not be shared across threads.
class IwpIndex {
 public:
  /// Builds the pointer structure for `tree` in one depth-first walk. The
  /// tree must outlive the index and remain unmodified. Every non-root MBR
  /// is taken from the parent's child entry, so the tree must be valid in
  /// the ValidateTree sense (entries equal their children's MBRs).
  static IwpIndex Build(const RStarTree& tree);

  /// The index Build(tree) returns, entry for entry, patched from
  /// `previous` = Build(old_tree) (or an earlier Update) in time that grows
  /// with the nodes `tree` does not share with `old_tree`. `tree` must have
  /// been derived from `old_tree` by copy-on-write mutation (RStarTree::
  /// Clone, Insert, Delete) with `old_tree` alive since: a slot holding the
  /// same node object in both trees is then unchanged, and a node whose
  /// entries, MBR or parent changed is a new object. Lists copied
  /// unchanged: those of every node whose own node, target ancestors and
  /// same-level overlap peers are all unchanged. Falls back to Build when
  /// the height or the root changed.
  static IwpIndex Update(const IwpIndex& previous, const RStarTree& old_tree,
                         const RStarTree& tree);

  /// Backward pointers of `leaf` (lowest first, root last; empty for a
  /// node that is not a leaf of the indexed tree).
  std::span<const NodePointer> BackwardPointers(NodeId leaf) const {
    return backward_.Of(leaf);
  }

  /// Overlapping pointers of `node` (empty for nodes that are not backward
  /// targets and for the root).
  std::span<const NodePointer> OverlapPointers(NodeId node) const {
    return overlaps_.Of(node);
  }

  /// Algorithm 3: answers the window query for `window`, issued while
  /// processing an object stored in `leaf`: WindowQueryFrom over the start
  /// nodes ResolveStartNodes picks. The NWC search runs the same walk
  /// through WindowQueryAtLeast with reused buffers.
  ///
  /// I/O accounting: consulting the pointer tables is free — the backward
  /// pointers ride along with the object when its leaf is expanded into the
  /// priority queue, and the overlap table of the chosen start node is
  /// embedded in that node's page. Every node traversed by the window
  /// query itself charges one read, exactly as a root-based query would.
  std::vector<DataObject> WindowQuery(const RStarTree& tree, NodeId leaf, const Rect& window,
                                      IoCounter* io, IoPhase phase = IoPhase::kWindowQuery,
                                      QueryControl* control = nullptr) const;

  /// Replaces `starts` with the start nodes Algorithm 3 searches from
  /// (exposed for tests and for the storage/ablation analysis).
  void ResolveStartNodes(NodeId leaf, const Rect& window, std::vector<NodeId>* starts) const;

  /// Total number of stored backward pointers (Sec. 5.2 accounting).
  size_t backward_pointer_count() const { return backward_pointer_count_; }

  /// Total number of stored overlapping pointers (Sec. 5.2 accounting).
  size_t overlap_pointer_count() const { return overlap_pointer_count_; }

  /// Storage overhead in bytes under the paper's 4-bytes-per-pointer
  /// assumption (MBR copies excluded, matching Sec. 5.2's accounting).
  size_t StorageBytes() const {
    return (backward_pointer_count_ + overlap_pointer_count_) * kPointerBytes;
  }

 private:
  /// Per-node pointer lists in two flat arrays indexed by NodeId: the list
  /// of node `id` is pointers[begin[id], begin[id + 1]). A probe reads it
  /// with two loads instead of a hash lookup.
  struct PointerTable {
    std::vector<uint32_t> begin;  // node_slot_count() + 1 offsets
    std::vector<NodePointer> pointers;

    std::span<const NodePointer> Of(NodeId id) const {
      if (static_cast<size_t>(id) + 1 >= begin.size()) return {};
      return {pointers.data() + begin[id], pointers.data() + begin[id + 1]};
    }

    /// Lays out `entries` (owner, pointer) by owner, keeping the order in
    /// which each owner's pointers were produced.
    static PointerTable FromEntries(size_t slot_count,
                                    const std::vector<std::pair<NodeId, NodePointer>>& entries);

    /// This table resized to `slot_count` slots with the list of every id
    /// in `owners` (ascending, unique) replaced by its run in `entries`
    /// (grouped by owner in ascending owner order; an owner without
    /// entries gets an empty list). Every other list is copied.
    PointerTable Patched(size_t slot_count, const std::vector<NodeId>& owners,
                         const std::vector<std::pair<NodeId, NodePointer>>& entries) const;
  };

  IwpIndex() = default;

  PointerTable backward_;
  PointerTable overlaps_;
  NodeId root_ = kInvalidNodeId;
  size_t backward_pointer_count_ = 0;
  size_t overlap_pointer_count_ = 0;
};

}  // namespace nwc

#endif  // NWC_RTREE_IWP_INDEX_H_
