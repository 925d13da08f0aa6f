#include "rtree/iwp_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rtree/bulk_load.h"
#include "rtree/queries.h"

namespace nwc {
namespace {

std::vector<DataObject> RandomObjects(size_t count, uint64_t seed, double extent = 1000.0) {
  Rng rng(seed);
  std::vector<DataObject> objects;
  for (size_t i = 0; i < count; ++i) {
    objects.push_back(DataObject{static_cast<ObjectId>(i),
                                 Point{rng.NextDouble(0, extent), rng.NextDouble(0, extent)}});
  }
  return objects;
}

RStarTree BuildTree(size_t count, uint64_t seed, int max_entries = 8) {
  RTreeOptions options;
  options.max_entries = max_entries;
  options.min_entries = max_entries * 2 / 5;
  return BulkLoadStr(RandomObjects(count, seed), options);
}

std::vector<NodeId> AllLeaves(const RStarTree& tree) {
  std::vector<NodeId> leaves;
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const RTreeNode& n = tree.node(id);
    if (n.is_leaf()) {
      leaves.push_back(id);
    } else {
      for (const ChildEntry& entry : n.children) stack.push_back(entry.child);
    }
  }
  return leaves;
}

TEST(IwpIndexTest, BackwardPointerCountFollowsExponentialRule) {
  const RStarTree tree = BuildTree(4000, 71);
  const int h = tree.height();
  ASSERT_GE(h, 2);
  const IwpIndex index = IwpIndex::Build(tree);

  // r = ceil(log2 h) + 2.
  const int expected_r =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(h)))) + 2;
  for (const NodeId leaf : AllLeaves(tree)) {
    const std::span<const NodePointer> pointers = index.BackwardPointers(leaf);
    ASSERT_EQ(static_cast<int>(pointers.size()), expected_r);
    // bp_1 is the leaf itself, bp_r the root.
    EXPECT_EQ(pointers.front().node, leaf);
    EXPECT_EQ(pointers.back().node, tree.root());
    // Intermediate pointers target levels 2^(i-2) (= paper depth h-2^(i-2)).
    for (size_t i = 1; i + 1 < pointers.size(); ++i) {
      EXPECT_EQ(tree.node(pointers[i].node).level, 1 << (i - 1));
    }
    // Stored MBRs match the actual node MBRs.
    for (const NodePointer& bp : pointers) {
      EXPECT_EQ(bp.mbr, tree.node(bp.node).ComputeMbr());
    }
  }
}

TEST(IwpIndexTest, RootOnlyTree) {
  RStarTree tree;
  tree.Insert(DataObject{0, Point{1, 1}});
  const IwpIndex index = IwpIndex::Build(tree);
  const std::span<const NodePointer> pointers = index.BackwardPointers(tree.root());
  ASSERT_EQ(pointers.size(), 1u);
  EXPECT_EQ(pointers[0].node, tree.root());
}

TEST(IwpIndexTest, OverlapPointersAreSymmetricSameLevelOverlaps) {
  const RStarTree tree = BuildTree(3000, 72);
  const IwpIndex index = IwpIndex::Build(tree);
  for (const NodeId leaf : AllLeaves(tree)) {
    for (const NodePointer& op : index.OverlapPointers(leaf)) {
      const RTreeNode& other = tree.node(op.node);
      EXPECT_EQ(other.level, 0);
      EXPECT_NE(op.node, leaf);
      EXPECT_TRUE(op.mbr.Intersects(tree.node(leaf).ComputeMbr()));
      // Symmetry: the other node points back.
      const std::span<const NodePointer> reverse = index.OverlapPointers(op.node);
      EXPECT_TRUE(std::any_of(reverse.begin(), reverse.end(),
                              [leaf](const NodePointer& p) { return p.node == leaf; }));
    }
  }
}

TEST(IwpIndexTest, WindowQueryMatchesRootBasedQuery) {
  const std::vector<DataObject> objects = RandomObjects(5000, 73);
  RTreeOptions options;
  options.max_entries = 10;
  options.min_entries = 4;
  const RStarTree tree = BulkLoadStr(objects, options);
  const IwpIndex index = IwpIndex::Build(tree);
  const std::vector<NodeId> leaves = AllLeaves(tree);

  Rng rng(74);
  for (int trial = 0; trial < 200; ++trial) {
    // Windows anchored near a random leaf's area (the IWP use case), of
    // varying sizes including ones that exceed the leaf and its ancestors.
    const NodeId leaf = leaves[rng.NextUint64(leaves.size())];
    const Rect leaf_mbr = tree.node(leaf).ComputeMbr();
    const double cx = rng.NextDouble(leaf_mbr.min_x, leaf_mbr.max_x + 1e-9);
    const double cy = rng.NextDouble(leaf_mbr.min_y, leaf_mbr.max_y + 1e-9);
    const double half = rng.NextDouble(1.0, 200.0);
    const Rect window{cx - half, cy - half, cx + half, cy + half};

    auto sorted_ids = [](std::vector<DataObject> v) {
      std::vector<ObjectId> ids;
      for (const DataObject& o : v) ids.push_back(o.id);
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    EXPECT_EQ(sorted_ids(index.WindowQuery(tree, leaf, window, nullptr)),
              sorted_ids(WindowQuery(tree, window, nullptr)))
        << "window " << window;
  }
}

TEST(IwpIndexTest, WindowQueryNeverReturnsDuplicates) {
  const RStarTree tree = BuildTree(3000, 75);
  const IwpIndex index = IwpIndex::Build(tree);
  const std::vector<NodeId> leaves = AllLeaves(tree);
  Rng rng(76);
  for (int trial = 0; trial < 100; ++trial) {
    const NodeId leaf = leaves[rng.NextUint64(leaves.size())];
    const Rect leaf_mbr = tree.node(leaf).ComputeMbr();
    const Rect window = leaf_mbr.Inflated(rng.NextDouble(0, 100), rng.NextDouble(0, 100));
    const std::vector<DataObject> hits = index.WindowQuery(tree, leaf, window, nullptr);
    std::set<ObjectId> ids;
    for (const DataObject& obj : hits) {
      EXPECT_TRUE(ids.insert(obj.id).second) << "duplicate id " << obj.id;
    }
  }
}

TEST(IwpIndexTest, SmallWindowCostsLessIoThanRootQuery) {
  // The whole point of IWP: window queries near the object's leaf touch
  // fewer nodes than starting from the root.
  const RStarTree tree = BuildTree(20000, 77, /*max_entries=*/16);
  ASSERT_GE(tree.height(), 2);
  const IwpIndex index = IwpIndex::Build(tree);
  const std::vector<NodeId> leaves = AllLeaves(tree);

  Rng rng(78);
  uint64_t iwp_io = 0;
  uint64_t root_io = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId leaf = leaves[rng.NextUint64(leaves.size())];
    const Rect leaf_mbr = tree.node(leaf).ComputeMbr();
    const Point center = leaf_mbr.Center();
    const Rect window{center.x - 2, center.y - 2, center.x + 2, center.y + 2};
    IoCounter io_a;
    index.WindowQuery(tree, leaf, window, &io_a);
    IoCounter io_b;
    WindowQuery(tree, window, &io_b);
    iwp_io += io_a.window_query_reads();
    root_io += io_b.window_query_reads();
  }
  EXPECT_LT(iwp_io, root_io);
}

TEST(IwpIndexTest, StorageAccounting) {
  const RStarTree tree = BuildTree(4000, 79);
  const IwpIndex index = IwpIndex::Build(tree);
  EXPECT_GT(index.backward_pointer_count(), 0u);
  EXPECT_EQ(index.StorageBytes(),
            (index.backward_pointer_count() + index.overlap_pointer_count()) * kPointerBytes);
}

TEST(IwpIndexTest, ResolveStartNodesFallsBackToRootForHugeWindows) {
  const RStarTree tree = BuildTree(2000, 80);
  const IwpIndex index = IwpIndex::Build(tree);
  const NodeId leaf = AllLeaves(tree).front();
  // A window exceeding the data space is covered by nothing but must still
  // be answerable: the root is the fallback start.
  std::vector<NodeId> starts;
  index.ResolveStartNodes(leaf, Rect{-1e9, -1e9, 1e9, 1e9}, &starts);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], tree.root());
}

// ---- Equivalence with the per-leaf reference construction ---------------

// The pointer tables of the reference construction, as (owner, pointer)
// entries in production order.
struct ReferenceTables {
  std::vector<std::pair<NodeId, NodePointer>> backward;
  std::vector<std::pair<NodeId, NodePointer>> overlaps;
};

// The straightforward construction IwpIndex::Build must reproduce: every
// pointer's MBR recomputed from the target node's entries, every leaf's
// ancestors found by walking parent links, and each level's overlap sweep
// ordered by (min_x, node id).
ReferenceTables ReferenceBuild(const RStarTree& tree) {
  ReferenceTables tables;
  const int h = tree.height();
  int r = 1;
  if (h > 0) {
    r = 2;
    while (h - (1 << (r - 2)) > 0) ++r;
  }

  std::vector<std::vector<NodeId>> by_level(static_cast<size_t>(h) + 1);
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const RTreeNode& n = tree.node(id);
    by_level[static_cast<size_t>(n.level)].push_back(id);
    for (const ChildEntry& entry : n.children) stack.push_back(entry.child);
  }

  for (const NodeId leaf_id : by_level[0]) {
    tables.backward.emplace_back(leaf_id, NodePointer{leaf_id, tree.node(leaf_id).ComputeMbr()});
    for (int i = 2; i < r; ++i) {
      const int target_level = 1 << (i - 2);
      NodeId ancestor = leaf_id;
      while (tree.node(ancestor).level < target_level) {
        ancestor = tree.node(ancestor).parent;
        assert(ancestor != kInvalidNodeId);
      }
      tables.backward.emplace_back(leaf_id,
                                   NodePointer{ancestor, tree.node(ancestor).ComputeMbr()});
    }
    if (r >= 2) {
      tables.backward.emplace_back(
          leaf_id, NodePointer{tree.root(), tree.node(tree.root()).ComputeMbr()});
    }
  }

  std::vector<int> target_levels = {0};
  for (int i = 2; i < r; ++i) target_levels.push_back(1 << (i - 2));
  for (const int level : target_levels) {
    std::vector<std::pair<Rect, NodeId>> boxes;
    for (const NodeId id : by_level[static_cast<size_t>(level)]) {
      boxes.emplace_back(tree.node(id).ComputeMbr(), id);
    }
    std::sort(boxes.begin(), boxes.end(), [](const auto& a, const auto& b) {
      return a.first.min_x < b.first.min_x ||
             (a.first.min_x == b.first.min_x && a.second < b.second);
    });
    for (size_t i = 0; i < boxes.size(); ++i) {
      if (boxes[i].second == tree.root()) continue;
      for (size_t j = i + 1; j < boxes.size(); ++j) {
        if (boxes[j].first.min_x > boxes[i].first.max_x) break;
        if (!boxes[i].first.Intersects(boxes[j].first)) continue;
        tables.overlaps.emplace_back(boxes[i].second,
                                     NodePointer{boxes[j].second, boxes[j].first});
        if (boxes[j].second != tree.root()) {
          tables.overlaps.emplace_back(boxes[j].second,
                                       NodePointer{boxes[i].second, boxes[i].first});
        }
      }
    }
  }
  return tables;
}

// The reference pointers `owner` owns, in production order.
std::vector<NodePointer> PointersOf(const std::vector<std::pair<NodeId, NodePointer>>& entries,
                                    NodeId owner) {
  std::vector<NodePointer> out;
  for (const auto& [id, pointer] : entries) {
    if (id == owner) out.push_back(pointer);
  }
  return out;
}

// Entry-for-entry equality: target id and MBR bit pattern, in order.
void ExpectSameTable(std::span<const NodePointer> actual, const std::vector<NodePointer>& expected,
                     const char* table, NodeId owner) {
  ASSERT_EQ(actual.size(), expected.size()) << table << " pointers of node " << owner;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].node, expected[i].node) << table << " node " << owner << " entry " << i;
    EXPECT_EQ(std::memcmp(&actual[i].mbr, &expected[i].mbr, sizeof(Rect)), 0)
        << table << " node " << owner << " entry " << i;
  }
}

void ExpectMatchesReference(const RStarTree& tree) {
  const IwpIndex index = IwpIndex::Build(tree);
  const ReferenceTables reference = ReferenceBuild(tree);
  EXPECT_EQ(index.backward_pointer_count(), reference.backward.size());
  EXPECT_EQ(index.overlap_pointer_count(), reference.overlaps.size());
  EXPECT_EQ(index.StorageBytes(),
            (reference.backward.size() + reference.overlaps.size()) * kPointerBytes);
  for (NodeId id = 0; id < tree.node_slot_count(); ++id) {
    ExpectSameTable(index.BackwardPointers(id), PointersOf(reference.backward, id), "backward",
                    id);
    ExpectSameTable(index.OverlapPointers(id), PointersOf(reference.overlaps, id), "overlap", id);
  }
}

TEST(IwpIndexTest, MatchesReferenceOnBulkLoadedTrees) {
  for (const int max_entries : {8, 16, 50}) {
    for (const size_t count : {size_t{1}, size_t{40}, size_t{3000}}) {
      SCOPED_TRACE(testing::Message() << "max_entries " << max_entries << " count " << count);
      ExpectMatchesReference(BuildTree(count, 81 + count, max_entries));
    }
  }
  ExpectMatchesReference(RStarTree());  // empty root leaf
}

TEST(IwpIndexTest, MatchesReferenceOnInsertBuiltTrees) {
  // Positions snapped to a coarse grid give many nodes equal min_x, so the
  // overlap sweep's order among ties is compared too.
  std::vector<DataObject> snapped = RandomObjects(3000, 85);
  for (DataObject& obj : snapped) {
    obj.pos = Point{std::floor(obj.pos.x / 40), std::floor(obj.pos.y / 40)};
  }
  for (const int max_entries : {8, 50}) {
    RTreeOptions options;
    options.max_entries = max_entries;
    options.min_entries = max_entries * 2 / 5;
    for (const std::vector<DataObject>& objects : {RandomObjects(3000, 82), snapped}) {
      RStarTree tree(options);
      for (const DataObject& obj : objects) tree.Insert(obj);
      SCOPED_TRACE(testing::Message() << "max_entries " << max_entries);
      ExpectMatchesReference(tree);
    }
  }
}

TEST(IwpIndexTest, MatchesReferenceAfterMutations) {
  // 2,000 inserts and deletes on a bulk-loaded tree, cloned as a snapshot
  // every 100 mutations so the index is also built over shared nodes.
  const std::vector<DataObject> objects = RandomObjects(3000, 83);
  RStarTree tree = BuildTree(3000, 83);
  std::vector<DataObject> live = objects;
  Rng rng(84);
  ObjectId next_id = 100000;
  for (int step = 0; step < 2000; ++step) {
    if (rng.NextBernoulli(0.5)) {
      const DataObject obj{next_id++, Point{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)}};
      tree.Insert(obj);
      live.push_back(obj);
    } else {
      const size_t victim = static_cast<size_t>(rng.NextUint64(live.size()));
      ASSERT_TRUE(tree.Delete(live[victim]).ok());
      live[victim] = live.back();
      live.pop_back();
    }
    if (step % 100 == 99) {
      const RStarTree snapshot = tree.Clone();
      ExpectMatchesReference(snapshot);
    }
  }
  ExpectMatchesReference(tree);
}

// ---- IwpIndex::Update: patching from the previous snapshot ---------------

// Entry-for-entry equality of two indexes over `tree`: every slot's lists
// (node ids, MBR bits, order), the pointer counts and StorageBytes.
void ExpectSameIndex(const IwpIndex& patched, const IwpIndex& built, const RStarTree& tree) {
  EXPECT_EQ(patched.backward_pointer_count(), built.backward_pointer_count());
  EXPECT_EQ(patched.overlap_pointer_count(), built.overlap_pointer_count());
  EXPECT_EQ(patched.StorageBytes(), built.StorageBytes());
  for (NodeId id = 0; id < tree.node_slot_count() + 2; ++id) {
    const std::span<const NodePointer> backward = built.BackwardPointers(id);
    const std::span<const NodePointer> overlaps = built.OverlapPointers(id);
    ExpectSameTable(patched.BackwardPointers(id), {backward.begin(), backward.end()}, "backward",
                    id);
    ExpectSameTable(patched.OverlapPointers(id), {overlaps.begin(), overlaps.end()}, "overlap",
                    id);
  }
}

// Drives a writer tree the way SnapshotStore does: batches mutate the
// writer, Publish() clones it as the next snapshot and patches the index
// from the previous snapshot's, which must then equal a fresh Build.
class PatchHarness {
 public:
  PatchHarness(RStarTree tree, std::vector<DataObject> live)
      : writer_(std::move(tree)),
        snapshot_(writer_.Clone()),
        index_(IwpIndex::Build(snapshot_)),
        live_(std::move(live)) {}

  void Insert(const DataObject& object) {
    writer_.Insert(object);
    live_.push_back(object);
  }

  void DeleteAt(size_t slot) {
    ASSERT_TRUE(writer_.Delete(live_[slot]).ok());
    live_[slot] = live_.back();
    live_.pop_back();
  }

  // 16 mutations, about half inserts of fresh objects in `area`.
  void RandomBatch(Rng* rng, const Rect& area) {
    for (int i = 0; i < 16; ++i) {
      if (live_.empty() || rng->NextBernoulli(0.5)) {
        Insert(DataObject{next_id_++, Point{rng->NextDouble(area.min_x, area.max_x),
                                            rng->NextDouble(area.min_y, area.max_y)}});
      } else {
        DeleteAt(static_cast<size_t>(rng->NextUint64(live_.size())));
      }
    }
  }

  void Publish() {
    RStarTree next = writer_.Clone();
    IwpIndex patched = IwpIndex::Update(index_, snapshot_, next);
    ExpectSameIndex(patched, IwpIndex::Build(next), next);
    snapshot_ = std::move(next);
    index_ = std::move(patched);
    ++publishes_;
  }

  const RStarTree& writer() const { return writer_; }
  std::vector<DataObject>& live() { return live_; }
  ObjectId NextId() { return next_id_++; }

 private:
  RStarTree writer_;
  RStarTree snapshot_;
  IwpIndex index_;
  std::vector<DataObject> live_;
  ObjectId next_id_ = 1000000;
  size_t publishes_ = 0;
};

RTreeOptions SmallNodes(int max_entries) {
  RTreeOptions options;
  options.max_entries = max_entries;
  options.min_entries = max_entries * 2 / 5;
  return options;
}

TEST(IwpIndexTest, UpdateMatchesBuildAfterRandomBatches) {
  for (const int max_entries : {8, 50}) {
    SCOPED_TRACE(testing::Message() << "max_entries " << max_entries);
    const std::vector<DataObject> objects = RandomObjects(4000, 91);
    PatchHarness harness(BulkLoadStr(objects, SmallNodes(max_entries)), objects);
    Rng rng(92);
    for (int batch = 0; batch < 60 && !testing::Test::HasFailure(); ++batch) {
      harness.RandomBatch(&rng, Rect{0, 0, 1000, 1000});
      harness.Publish();
    }
  }
}

TEST(IwpIndexTest, UpdateMatchesBuildThroughSplitsAndCondense) {
  const std::vector<DataObject> objects = RandomObjects(800, 93);
  PatchHarness harness(BulkLoadStr(objects, SmallNodes(8)), objects);
  const int height = harness.writer().height();
  const size_t nodes = harness.writer().node_count();
  Rng rng(94);
  // Inserts packed into one small area split leaves, then their parents.
  for (int batch = 0; batch < 25 && !testing::Test::HasFailure(); ++batch) {
    for (int i = 0; i < 16; ++i) {
      harness.Insert(DataObject{harness.NextId(),
                                Point{rng.NextDouble(500, 520), rng.NextDouble(500, 520)}});
    }
    harness.Publish();
  }
  EXPECT_EQ(harness.writer().height(), height);
  EXPECT_GT(harness.writer().node_count(), nodes + 40);
  // Deleting every object of a band underflows its leaves: condense
  // removes them and reinserts their survivors.
  const size_t grown = harness.writer().node_count();
  for (int batch = 0; batch < 40 && !testing::Test::HasFailure(); ++batch) {
    std::vector<DataObject>& live = harness.live();
    int deleted = 0;
    for (size_t i = live.size(); i-- > 0 && deleted < 16;) {
      if (live[i].pos.x < 400) {
        harness.DeleteAt(i);
        ++deleted;
      }
    }
    harness.Publish();
  }
  EXPECT_LT(harness.writer().node_count(), grown - 40);
}

TEST(IwpIndexTest, UpdateMatchesBuildAcrossRootSplitsAndCollapses) {
  // Fanout 4 and one mutation per publish: the root splits as the tree
  // grows to height 4 or more and collapses as it drains (Update falls back to
  // Build on each height change).
  PatchHarness harness(RStarTree(SmallNodes(4)), {});
  Rng rng(95);
  std::set<int> heights;
  for (int i = 0; i < 300 && !testing::Test::HasFailure(); ++i) {
    harness.Insert(DataObject{harness.NextId(),
                              Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)}});
    harness.Publish();
    heights.insert(harness.writer().height());
  }
  const int tallest = harness.writer().height();
  EXPECT_GE(tallest, 4);
  while (!harness.live().empty() && !testing::Test::HasFailure()) {
    harness.DeleteAt(static_cast<size_t>(rng.NextUint64(harness.live().size())));
    harness.Publish();
    heights.insert(harness.writer().height());
  }
  EXPECT_EQ(harness.writer().height(), 0);
  EXPECT_EQ(heights.size(), static_cast<size_t>(tallest) + 1);
}

TEST(IwpIndexTest, UpdateMatchesBuildWhenTheRootMbrMoves) {
  const std::vector<DataObject> objects = RandomObjects(3000, 96);
  PatchHarness harness(BulkLoadStr(objects, SmallNodes(8)), objects);
  Rng rng(97);
  for (int round = 0; round < 12 && !testing::Test::HasFailure(); ++round) {
    // An insert past the current bounds grows the root MBR...
    const Rect before = harness.writer().bounds();
    const double reach = 10.0 * (round + 1);
    harness.Insert(DataObject{harness.NextId(), Point{before.max_x + reach,
                                                      rng.NextDouble(0, 1000)}});
    harness.Insert(DataObject{harness.NextId(), Point{rng.NextDouble(0, 1000),
                                                      before.min_y - reach}});
    harness.Publish();
    EXPECT_NE(harness.writer().bounds(), before);
    // ...and deleting the extreme objects on every side shrinks it.
    const Rect grown = harness.writer().bounds();
    for (int side = 0; side < 4; ++side) {
      std::vector<DataObject>& live = harness.live();
      size_t extreme = 0;
      for (size_t i = 1; i < live.size(); ++i) {
        const Point a = live[i].pos;
        const Point b = live[extreme].pos;
        const bool more = side == 0 ? a.x < b.x : side == 1 ? a.x > b.x : side == 2 ? a.y < b.y
                                                                                  : a.y > b.y;
        if (more) extreme = i;
      }
      harness.DeleteAt(extreme);
    }
    harness.Publish();
    EXPECT_NE(harness.writer().bounds(), grown);
  }
}

TEST(IwpIndexTest, UpdateMatchesBuildAcrossSeveralBatches) {
  // A stale index patched across up to five batches at once, as the
  // snapshot store does with a positive IWP staleness limit.
  const std::vector<DataObject> objects = RandomObjects(4000, 98);
  PatchHarness harness(BulkLoadStr(objects, SmallNodes(8)), objects);
  Rng rng(99);
  for (int publish = 0; publish < 30 && !testing::Test::HasFailure(); ++publish) {
    const uint64_t batches = 1 + rng.NextUint64(5);
    for (uint64_t b = 0; b < batches; ++b) harness.RandomBatch(&rng, Rect{0, 0, 1000, 1000});
    harness.Publish();
  }
}

}  // namespace
}  // namespace nwc
