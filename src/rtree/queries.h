#ifndef NWC_RTREE_QUERIES_H_
#define NWC_RTREE_QUERIES_H_

#include <cstddef>
#include <cstdint>
#include <queue>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/io_stats.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/rstar_tree.h"

namespace nwc {

/// Memo of completed window-query verifications within one batch of NWC
/// queries, keyed on (traversal scope, exact window rectangle). The scope
/// is the subtree the walk started from — the tree root for a plain
/// WindowQuery, the candidate's leaf for an IWP probe — so memoized hits
/// are only reused for walks that would have visited the identical pages.
///
/// Hits are stored in the exact order the DFS emitted them, so a memo hit
/// is bit-identical to re-running the walk (the NWC group evaluation sorts
/// members itself, but kept order makes the equivalence unconditional). A
/// memo hit charges no page reads: that is the point — consecutive batched
/// queries with overlapping search regions re-verify the same windows.
///
/// Entries are only inserted for *completed* walks (callers must skip
/// Insert when a QueryControl stopped the traversal; a truncated hit set
/// memoized as complete would corrupt every later query in the batch).
/// The memo is bounded: once `max_entries` windows are stored, further
/// inserts are dropped (lookups still hit the existing entries).
///
/// NOT thread-safe; intended to live on one worker's stack for the
/// duration of one batch group.
class WindowQueryMemo {
 public:
  explicit WindowQueryMemo(size_t max_entries = 4096) : max_entries_(max_entries) {}

  /// Returns the memoized hits for (scope, window), or nullptr. The
  /// pointer is invalidated by the next Insert.
  const std::vector<DataObject>* Find(NodeId scope, const Rect& window);

  /// Memoizes the hits of a completed walk. Drops the entry when full.
  void Insert(NodeId scope, const Rect& window, std::vector<DataObject> hits);

  uint64_t hits() const { return hits_; }      ///< Find calls that matched.
  uint64_t misses() const { return misses_; }  ///< Find calls that did not.
  size_t size() const { return entries_.size(); }

 private:
  struct Key {
    NodeId scope;
    Rect window;
    friend bool operator==(const Key& a, const Key& b) {
      return a.scope == b.scope && a.window == b.window;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  size_t max_entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::unordered_map<Key, std::vector<DataObject>, KeyHash> entries_;
};

/// Returns all objects whose position lies inside `window` (boundary
/// inclusive), via depth-first traversal from the root. Every visited node
/// (including the root) charges one page read to `io` in `phase`.
///
/// When `control` is non-null the walk polls it before each node access and
/// abandons the traversal once the control reports a stop (deadline, cancel,
/// or injected fault). A stopped walk returns a *truncated* hit set; callers
/// must consult the control's status before treating the result as complete
/// (the NWC engines surface the stop as a non-OK query status, so truncated
/// hits never leak into an ok answer).
std::vector<DataObject> WindowQuery(const RStarTree& tree, const Rect& window, IoCounter* io,
                                    IoPhase phase = IoPhase::kWindowQuery,
                                    QueryControl* control = nullptr);

/// Window query that starts from an explicit set of subtree roots instead
/// of the tree root, appending the hits to `out`; the IWP technique
/// (Algorithm 3) uses this with the nodes reached through backward/
/// overlapping pointers, and the NWC search with the root and a reused
/// buffer. Subtrees must be disjoint (as same-depth R-tree nodes are), or
/// duplicates will result.
void WindowQueryFrom(const RStarTree& tree, std::span<const NodeId> start_nodes,
                     const Rect& window, std::vector<DataObject>* out, IoCounter* io,
                     IoPhase phase = IoPhase::kWindowQuery, QueryControl* control = nullptr);

/// Counts the objects inside `window` without materializing them; same
/// traversal and I/O accounting as WindowQuery.
size_t WindowCount(const RStarTree& tree, const Rect& window, IoCounter* io,
                   IoPhase phase = IoPhase::kWindowQuery, QueryControl* control = nullptr);

/// Returns the `k` objects nearest to `q`, ascending by distance (fewer
/// when the tree holds fewer than `k`). Best-first search (Hjaltason &
/// Samet, TODS 1999); each expanded node charges one page read.
std::vector<DataObject> KnnQuery(const RStarTree& tree, const Point& q, size_t k, IoCounter* io,
                                 IoPhase phase = IoPhase::kTraversal);

/// Incremental nearest-object iterator ("distance browsing", Hjaltason &
/// Samet). Yields stored objects in non-decreasing distance from `q`,
/// expanding R*-tree nodes lazily; the NWC algorithm's visit order
/// (Sec. 3.2: "visits all data objects based on their distance to q in
/// ascending order") is built on the same queue discipline.
///
/// The browser borrows the tree; the tree must outlive it and must not be
/// modified while browsing.
class DistanceBrowser {
 public:
  /// An object produced by the browser, together with its distance from q
  /// and the leaf that stores it (the leaf id is what the IWP technique
  /// attaches backward pointers to).
  struct BrowseItem {
    DataObject object;
    double distance = 0.0;
    NodeId leaf = kInvalidNodeId;
  };

  DistanceBrowser(const RStarTree& tree, const Point& q, IoCounter* io,
                  IoPhase phase = IoPhase::kTraversal);

  /// True when another object is available.
  bool HasNext();

  /// Returns the next nearest object. Requires HasNext().
  BrowseItem Next();

 private:
  struct QueueEntry {
    double distance = 0.0;
    bool is_object = false;
    NodeId node = kInvalidNodeId;   // node to expand, or leaf holding object
    DataObject object;

    // std::priority_queue is a max-heap; invert for nearest-first. Nodes
    // win ties against objects so an object is only emitted once every node
    // that could contain a closer object has been expanded. The remaining
    // tie-breaks make this a strict total order — without them,
    // equal-distance entries popped in heap-layout order, so the browse
    // sequence depended on how the tree was built (insertion vs bulk load).
    // Object ties break on object id (layout-independent: every leaf whose
    // MINDIST is within the tie distance has already been expanded, so all
    // tied objects are in the queue together and emit in ascending id).
    // Node ties break on node id, which only affects expansion order, not
    // emission order.
    friend bool operator<(const QueueEntry& a, const QueueEntry& b) {
      if (a.distance != b.distance) return a.distance > b.distance;
      if (a.is_object != b.is_object) return a.is_object;
      if (a.is_object) return a.object.id > b.object.id;
      return a.node > b.node;
    }
  };

  /// Expands queue-front nodes until an object is at the front (or empty).
  void Advance();

  const RStarTree& tree_;
  Point q_;
  IoCounter* io_;
  IoPhase phase_;
  std::priority_queue<QueueEntry> queue_;
};

}  // namespace nwc

#endif  // NWC_RTREE_QUERIES_H_
