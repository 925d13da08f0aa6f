#include "core/search_driver.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>

#include "core/distance_measures.h"
#include "core/search_region.h"
#include "geometry/quadrant.h"
#include "rtree/queries.h"
#include "simd/kernels.h"

namespace nwc::internal {

namespace {

// Entry of the best-first queue: 24 bytes. A node entry carries the node's
// MINDIST and id, with its MBR in SearchScratch::node_mbrs at `slot`. An
// object entry stands for one expanded leaf: its objects wait in a run
// sorted by (distance, id) (SearchScratch::runs at `slot`), and the entry
// carries the key and id of the run's next object. Popping that object
// advances the run and sifts the entry down once, so a leaf costs one
// queue entry instead of one per object.
//
// `tie` is (is_object << 32) | id. Ordering by (key, tie) is a strict
// total order: nearest first, then nodes before objects (an object pops
// only once every node that could hold a closer object was expanded, so
// all tied objects are queued together), then ascending object id, then
// ascending node id. Each run is sorted by the same order and the queue
// holds each run's first object, so objects pop exactly in the order one
// queue holding every object would pop them. Without the tie-breaks equal
// keys would pop in heap-layout order, which varies with how the tree was
// built and made candidate order — hence trace contents and tie-distance
// results — nondeterministic on tie-heavy data.
struct QueueEntry {
  double key = 0.0;
  uint64_t tie = 0;
  uint32_t slot = 0;
};
static_assert(sizeof(QueueEntry) <= 24);

constexpr uint64_t kObjectTie = uint64_t{1} << 32;

bool PopsBefore(const QueueEntry& a, const QueueEntry& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.tie < b.tie;
}

// One object of a sorted leaf run: its distance, id and index in the
// leaf's arrays, where its position is read back when it pops (the leaf
// was charged when it was expanded and the tree keeps it alive).
struct RunObject {
  double key = 0.0;
  ObjectId id = 0;
  uint32_t index = 0;
};
static_assert(sizeof(RunObject) == 16);

// The unpopped objects of one expanded leaf: run_objects[next, end).
struct Run {
  const RTreeNode* leaf = nullptr;
  NodeId leaf_id = kInvalidNodeId;
  uint32_t next = 0;
  uint32_t end = 0;
};

// A window-query hit mapped into the object's first-quadrant frame.
struct Member {
  double frame_y = 0.0;
  double dist = 0.0;  // distance to q (reflection-invariant)
  DataObject object;
};

// Every transient buffer of one search. One instance per worker thread:
// Clear() empties the queue and its side arrays at the start of each query
// and every buffer keeps its capacity, so a warmed-up worker searches
// without heap allocation and holds each buffer at the high-water mark of
// its own queries.
struct SearchScratch {
  std::vector<QueueEntry> heap;  // binary min-heap under PopsBefore
  std::vector<Rect> node_mbrs;   // slots of node entries
  std::vector<Run> runs;         // slots of object entries
  std::vector<RunObject> run_objects;
  size_t queued = 0;  // queued nodes plus unpopped run objects
  std::vector<double> keys;           // distances of one expanded node's entries
  std::vector<NodeId> starts;         // start nodes of one IWP probe
  std::vector<DataObject> hits;       // hits of one window query
  std::vector<double> hit_distances;
  std::vector<Member> members;
  std::vector<const Member*> nearest;  // one window's members, for nth_element

  void Clear() {
    heap.clear();
    node_mbrs.clear();
    runs.clear();
    run_objects.clear();
    queued = 0;
  }

  void PushNode(double key, NodeId node, const Rect& mbr) {
    Push(QueueEntry{key, node, static_cast<uint32_t>(node_mbrs.size())});
    node_mbrs.push_back(mbr);
    ++queued;
  }

  // Sorts run_objects[begin, end) — the objects of `leaf` — and queues
  // them as one run.
  void PushRun(const RTreeNode& leaf, NodeId leaf_id, size_t begin) {
    const auto first = run_objects.begin() + static_cast<ptrdiff_t>(begin);
    std::sort(first, run_objects.end(), [](const RunObject& a, const RunObject& b) {
      if (a.key != b.key) return a.key < b.key;
      return a.id < b.id;
    });
    Push(QueueEntry{first->key, kObjectTie | first->id, static_cast<uint32_t>(runs.size())});
    runs.push_back(Run{&leaf, leaf_id, static_cast<uint32_t>(begin),
                       static_cast<uint32_t>(run_objects.size())});
    queued += run_objects.size() - begin;
  }

  // Removes the first object of the top entry's run; the top must be an
  // object entry.
  DataObject PopObject(NodeId* leaf_id) {
    QueueEntry& top = heap.front();
    Run& run = runs[top.slot];
    const RunObject& popped = run_objects[run.next++];
    const DataObject object{popped.id, run.leaf->objects.position(popped.index)};
    *leaf_id = run.leaf_id;
    if (run.next < run.end) {
      const RunObject& next = run_objects[run.next];
      top.key = next.key;
      top.tie = kObjectTie | next.id;
      SiftDown(0);
    } else {
      PopTop();
    }
    --queued;
    return object;
  }

  // Removes the top entry, which must be a node entry, and returns it.
  NodeId PopNode(Rect* mbr) {
    const QueueEntry top = heap.front();
    *mbr = node_mbrs[top.slot];
    PopTop();
    --queued;
    return static_cast<NodeId>(top.tie);
  }

 private:
  void PopTop() {
    heap.front() = heap.back();
    heap.pop_back();
    if (!heap.empty()) SiftDown(0);
  }

  void Push(const QueueEntry& entry) {
    size_t i = heap.size();
    heap.push_back(entry);
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!PopsBefore(entry, heap[parent])) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = entry;
  }

  void SiftDown(size_t i) {
    const QueueEntry entry = heap[i];
    const size_t size = heap.size();
    while (true) {
      size_t child = 2 * i + 1;
      if (child >= size) break;
      if (child + 1 < size && PopsBefore(heap[child + 1], heap[child])) ++child;
      if (!PopsBefore(heap[child], entry)) break;
      heap[i] = heap[child];
      i = child;
    }
    heap[i] = entry;
  }
};

// Evaluates every window generated by `object`, stored in `leaf` (Sec. 3.2):
// builds the (possibly reduced) search region, runs the window query, and
// scans candidate top edges in ascending frame-y with a sliding lower bound.
void ProcessObject(const RStarTree& tree, const IwpIndex* iwp, const DensityGrid* grid,
                   const NwcQuery& query, const NwcOptions& options, IoCounter* io,
                   GroupSink& sink, QueryTrace& trace, QueryControl& control,
                   const DataObject& object, NodeId leaf, SearchScratch& scratch) {
  const Point& q = query.q;
  const double l = query.length;
  const double w = query.width;

  const QuadrantTransform transform = QuadrantTransform::MapToFirstQuadrant(q, object.pos);
  const Point p_frame = transform.Apply(object.pos);

  // SRR: skip the object or shrink its search region's far side using the
  // current pruning distance; otherwise keep the full w above p.
  double top_extent = w;
  if (options.use_srr) {
    std::optional<double> shrunk;
    {
      TraceSpanScope srr_span(trace, SpanKind::kSrrCheck, io);
      shrunk = SrrTopExtent(q, p_frame, l, w, sink.PruneDistance());
    }
    if (!shrunk.has_value()) {
      trace.Count(TraceCounter::kPrunedSrr);
      return;
    }
    top_extent = *shrunk;
  }
  // The world-space region is anchored exactly at p's coordinates (not
  // reflected back from the frame, which rounds and can exclude p itself
  // from its own window query).
  const Rect sr_world = SearchRegionWorld(object.pos, l, w, top_extent, transform);

  // DEP: cancel the window query when the grid proves the region cannot
  // hold n objects (Algorithm 2 applied to SR'_p).
  if (options.use_dep) {
    bool cancelled;
    {
      TraceSpanScope dep_span(trace, SpanKind::kDepCheck, io);
      cancelled = grid->CountUpperBound(sr_world) < query.n;
    }
    if (cancelled) {
      trace.Count(TraceCounter::kPrunedDepWindow);
      return;
    }
  }

  // The window query for SR'_p — incremental (Algorithm 3) or root-based.
  // It counts first and collects the hits only when there are at least n:
  // a region with fewer holds no qualified window.
  trace.Count(TraceCounter::kWindowQueries);
  size_t hit_count;
  {
    TraceSpanScope wq_span(trace, options.use_iwp ? SpanKind::kIwpProbe : SpanKind::kWindowQuery,
                           io);
    const NodeId root = tree.root();
    std::span<const NodeId> starts(&root, 1);
    if (options.use_iwp) {
      iwp->ResolveStartNodes(leaf, sr_world, &scratch.starts);
      starts = scratch.starts;
    }
    scratch.hits.clear();
    hit_count = WindowQueryAtLeast(tree, starts, sr_world, query.n, &scratch.hits, io,
                                   IoPhase::kWindowQuery, &control);
    trace.SetDetail(wq_span.id(), static_cast<int64_t>(hit_count));
  }
  const std::vector<DataObject>& hits = scratch.hits;
  // A stopped walk returns truncated hits; never evaluate them as windows.
  if (control.stopped()) return;
  if (hit_count < query.n) return;

  std::vector<Member>& members = scratch.members;
  members.clear();
  scratch.hit_distances.resize(hits.size());
  simd::BatchDistancePoints(q, hits.data(), hits.size(), scratch.hit_distances.data());
  for (size_t i = 0; i < hits.size(); ++i) {
    const Point hit_frame = transform.Apply(hits[i].pos);
    members.push_back(Member{hit_frame.y, scratch.hit_distances[i], hits[i]});
  }
  // Ascending frame-y; ties by id for determinism across schemes.
  std::sort(members.begin(), members.end(), [](const Member& a, const Member& b) {
    if (a.frame_y != b.frame_y) return a.frame_y < b.frame_y;
    return a.object.id < b.object.id;
  });

  // Candidate top edges are members at or above p (frame-y >= y_p); those
  // below p are skipped as edges but still count as window members. Each
  // distinct frame-y is one window; the run of equal values is processed
  // at its last index so the member count is complete.
  size_t low = 0;  // first member with frame_y >= top - w
  for (size_t j = 0; j < members.size(); ++j) {
    if (members[j].frame_y < p_frame.y) continue;
    if (j + 1 < members.size() && members[j + 1].frame_y == members[j].frame_y) continue;
    const double top = members[j].frame_y;
    while (members[low].frame_y < top - w) ++low;
    const size_t count = j - low + 1;
    if (count < query.n) continue;
    trace.Count(TraceCounter::kWindowsEvaluated);

    // MINDIST gate (Sec. 2.1 Step 3): the window cannot beat the current
    // pruning distance.
    const Rect window_frame{p_frame.x - l, top - w, p_frame.x, top};
    if (MinDist(q, window_frame) >= sink.PruneDistance()) continue;

    // The n members closest to q.
    std::vector<const Member*>& nearest = scratch.nearest;
    nearest.clear();
    for (size_t i = low; i <= j; ++i) nearest.push_back(&members[i]);
    std::nth_element(nearest.begin(), nearest.begin() + static_cast<ptrdiff_t>(query.n - 1),
                     nearest.end(),
                     [](const Member* a, const Member* b) { return a->dist < b->dist; });
    std::vector<DataObject> group;
    group.reserve(query.n);
    for (size_t i = 0; i < query.n; ++i) group.push_back(nearest[i]->object);

    const double d = GroupDistance(q, group, l, w, options.measure);
    if (d < sink.PruneDistance()) {
      trace.Count(TraceCounter::kGroupsOffered);
      sink.Offer(std::move(group), d);
    }
  }
}

// Expands one index/leaf node of the best-first traversal, applying the
// DIP / DEP node-pruning tests before paying the page read.
void ExpandNode(const RStarTree& tree, const DensityGrid* grid, const NwcQuery& query,
                const NwcOptions& options, IoCounter* io, GroupSink& sink, QueryTrace& trace,
                NodeId node_id, const Rect& mbr, SearchScratch& scratch) {
  TraceSpanScope browse_span(trace, SpanKind::kBrowseNode, io, static_cast<int64_t>(node_id));

  // DIP: prune the node when no window generated by its objects can beat
  // the pruning distance (the complement of Eq. 7's region PR).
  if (options.use_dip) {
    bool pruned;
    {
      TraceSpanScope dip_span(trace, SpanKind::kDipCheck, io);
      pruned = GeneratedWindowLowerBound(query.q, mbr, query.length, query.width) >=
               sink.PruneDistance();
    }
    if (pruned) {
      trace.Count(TraceCounter::kPrunedDip);
      return;
    }
  }
  // DEP: prune the node when its extended MBR cannot hold n objects.
  if (options.use_dep) {
    bool pruned;
    {
      TraceSpanScope dep_span(trace, SpanKind::kDepCheck, io);
      pruned = grid->CountUpperBound(DepExtendedMbr(query.q, mbr, query.length, query.width)) <
               query.n;
    }
    if (pruned) {
      trace.Count(TraceCounter::kPrunedDepNode);
      return;
    }
  }

  const RTreeNode& node = tree.AccessNode(node_id, io, IoPhase::kTraversal);
  trace.Count(TraceCounter::kNodesExpanded);
  std::vector<double>& keys = scratch.keys;
  if (node.is_leaf()) {
    const LeafObjects& objects = node.objects;
    if (!objects.empty()) {
      keys.resize(objects.size());
      simd::BatchDistance(query.q, objects.xs(), objects.ys(), objects.size(), keys.data());
      const size_t begin = scratch.run_objects.size();
      for (size_t i = 0; i < objects.size(); ++i) {
        scratch.run_objects.push_back(
            RunObject{keys[i], objects.ids()[i], static_cast<uint32_t>(i)});
      }
      scratch.PushRun(node, node_id, begin);
    }
  } else {
    keys.resize(node.children.size());
    if (!node.children.empty()) {
      simd::BatchMinDist(query.q, &node.children.data()->mbr, sizeof(ChildEntry),
                         node.children.size(), keys.data());
    }
    for (size_t i = 0; i < node.children.size(); ++i) {
      scratch.PushNode(keys[i], node.children[i].child, node.children[i].mbr);
    }
  }
  trace.NoteHeapSize(scratch.queued);
}

}  // namespace

void RunNwcSearch(const RStarTree& tree, const IwpIndex* iwp, const DensityGrid* grid,
                  const NwcQuery& query, const NwcOptions& options, IoCounter* io,
                  GroupSink& sink, QueryTrace& trace, QueryControl& control) {
  assert(!options.use_iwp || iwp != nullptr);
  assert(!options.use_dep || grid != nullptr);

  // Searches never nest on one thread (sinks only collect groups), so one
  // scratch per thread serves every query that thread runs.
  thread_local SearchScratch scratch;
  scratch.Clear();
  scratch.PushNode(MinDist(query.q, tree.bounds()), tree.root(), tree.bounds());

  while (!scratch.heap.empty()) {
    // Cooperative checkpoint: one poll per queue pop bounds the work done
    // after a deadline/cancel/fault to a single entry's processing (plus
    // the deadline stride of QueryControl).
    if (control.ShouldStop()) {
      trace.Count(TraceCounter::kAborted);
      TraceSpanScope abort_span(trace, SpanKind::kAbort, io,
                                static_cast<int64_t>(control.status().code()));
      break;
    }

    if (scratch.heap.front().tie & kObjectTie) {
      NodeId leaf;
      const DataObject object = scratch.PopObject(&leaf);
      trace.Count(TraceCounter::kObjectsBrowsed);
      TraceSpanScope candidate_span(trace, SpanKind::kCandidate, io,
                                    static_cast<int64_t>(object.id));
      ProcessObject(tree, iwp, grid, query, options, io, sink, trace, control, object, leaf,
                    scratch);
      continue;
    }

    Rect mbr;
    const NodeId node_id = scratch.PopNode(&mbr);
    ExpandNode(tree, grid, query, options, io, sink, trace, node_id, mbr, scratch);
  }
}

}  // namespace nwc::internal
