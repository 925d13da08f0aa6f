#include "core/search_driver.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/nwc_engine.h"
#include "rtree/bulk_load.h"

// Counting operator new for the allocation test: each thread tallies the
// allocations it makes, so other threads cannot disturb a measurement.
namespace {
thread_local uint64_t t_allocations = 0;

void* CountedAlloc(size_t bytes) {
  ++t_allocations;
  return std::malloc(bytes == 0 ? 1 : bytes);
}

void* CountedAllocOrThrow(size_t bytes) {
  void* p = CountedAlloc(bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(size_t bytes) { return CountedAllocOrThrow(bytes); }
void* operator new[](size_t bytes) { return CountedAllocOrThrow(bytes); }
void* operator new(size_t bytes, const std::nothrow_t&) noexcept { return CountedAlloc(bytes); }
void* operator new[](size_t bytes, const std::nothrow_t&) noexcept {
  return CountedAlloc(bytes);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace nwc {
namespace {

struct Fixture {
  std::vector<DataObject> objects;
  RStarTree tree;
  IwpIndex iwp;
  DensityGrid grid;
};

Fixture MakeFixture(std::vector<DataObject> objects, bool bulk_load) {
  RTreeOptions options;
  options.max_entries = 8;
  options.min_entries = 3;
  RStarTree tree(options);
  if (bulk_load) {
    tree = BulkLoadStr(objects, options);
  } else {
    for (const DataObject& object : objects) tree.Insert(object);
  }
  IwpIndex iwp = IwpIndex::Build(tree);
  DensityGrid grid(Rect{0, 0, 100, 100}, 5.0, objects);
  return Fixture{std::move(objects), std::move(tree), std::move(iwp), std::move(grid)};
}

// Positions snapped to a 4-unit grid with up to three objects per point:
// many equal distances from a grid-point query, and equal positions.
std::vector<DataObject> TieHeavyObjects(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<DataObject> objects;
  for (size_t i = 0; i < count; ++i) {
    const Point pos{4.0 * static_cast<double>(rng.NextUint64(25)),
                    4.0 * static_cast<double>(rng.NextUint64(25))};
    const size_t copies = 1 + rng.NextUint64(3);
    for (size_t c = 0; c < copies && objects.size() < count; ++c) {
      objects.push_back(DataObject{static_cast<ObjectId>(objects.size() * 7 % 1009), pos});
    }
  }
  return objects;
}

// The ids of the kCandidate spans of one traced query, in pop order.
std::vector<ObjectId> CandidateOrder(const Fixture& fixture, const NwcQuery& query,
                                     const NwcOptions& options) {
  const NwcEngine engine(fixture.tree, &fixture.iwp, &fixture.grid);
  QueryTrace trace = QueryTrace::Enabled();
  EXPECT_TRUE(engine.Execute(query, options, nullptr, &trace).ok());
  std::vector<ObjectId> ids;
  for (const TraceSpan& span : trace.spans()) {
    if (span.kind == SpanKind::kCandidate) ids.push_back(static_cast<ObjectId>(span.detail));
  }
  return ids;
}

TEST(SearchDriverTest, CandidatesPopInAscendingDistanceThenIdOnTieHeavyTrees) {
  for (const bool bulk_load : {true, false}) {
    const Fixture fixture = MakeFixture(TieHeavyObjects(1000, 61), bulk_load);
    std::unordered_map<ObjectId, Point> position;
    for (const DataObject& object : fixture.objects) position[object.id] = object.pos;
    ASSERT_EQ(position.size(), fixture.objects.size()) << "ids must be distinct";

    Rng rng(62);
    for (int trial = 0; trial < 10; ++trial) {
      const Point q{4.0 * static_cast<double>(rng.NextUint64(25)),
                    4.0 * static_cast<double>(rng.NextUint64(25))};
      const NwcQuery query{q, 8.0, 8.0, 4};
      auto before = [&](ObjectId a, ObjectId b) {
        const double da = Distance(q, position.at(a));
        const double db = Distance(q, position.at(b));
        return da != db ? da < db : a < b;
      };
      SCOPED_TRACE(testing::Message() << "bulk_load " << bulk_load << " trial " << trial);

      // Without node pruning every object pops: the whole data set in
      // (distance, id) order.
      std::vector<ObjectId> expected;
      for (const DataObject& object : fixture.objects) expected.push_back(object.id);
      std::sort(expected.begin(), expected.end(), before);
      EXPECT_EQ(CandidateOrder(fixture, query, NwcOptions::Plain()), expected);

      // With every pruning technique the popped objects keep that order.
      const std::vector<ObjectId> star = CandidateOrder(fixture, query, NwcOptions::Star());
      EXPECT_FALSE(star.empty());
      EXPECT_TRUE(std::is_sorted(star.begin(), star.end(), before));
    }
  }
}

// The traced heap high-water mark of a search without node pruning,
// computed with one queue holding every node and object: its size after
// each node expansion, maximized.
uint64_t ReferenceHeapHighWater(const RStarTree& tree, const Point& q) {
  // (key, is_object, id): the search's pop order.
  using Entry = std::tuple<double, bool, uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  queue.emplace(MinDist(q, tree.bounds()), false, tree.root());
  uint64_t high_water = 0;
  while (!queue.empty()) {
    const auto [key, is_object, id] = queue.top();
    queue.pop();
    if (is_object) continue;
    const RTreeNode& node = tree.node(id);
    for (size_t i = 0; i < node.objects.size(); ++i) {
      queue.emplace(Distance(q, node.objects.position(i)), true, node.objects.id(i));
    }
    for (const ChildEntry& child : node.children) {
      queue.emplace(MinDist(q, child.mbr), false, child.child);
    }
    high_water = std::max<uint64_t>(high_water, queue.size());
  }
  return high_water;
}

TEST(SearchDriverTest, HeapHighWaterCountsQueuedNodesAndUnpoppedObjects) {
  for (const bool bulk_load : {true, false}) {
    const Fixture fixture = MakeFixture(TieHeavyObjects(1000, 63), bulk_load);
    const NwcEngine engine(fixture.tree, &fixture.iwp, &fixture.grid);
    Rng rng(64);
    for (int trial = 0; trial < 10; ++trial) {
      const Point q{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
      QueryTrace trace = QueryTrace::Enabled();
      ASSERT_TRUE(
          engine.Execute(NwcQuery{q, 8.0, 8.0, 4}, NwcOptions::Plain(), nullptr, &trace).ok());
      EXPECT_EQ(trace.heap_high_water(), ReferenceHeapHighWater(fixture.tree, q))
          << "bulk_load " << bulk_load << " trial " << trial;
    }
  }
}

// Keeps the best group; counts the groups it was offered.
class CountingSink : public internal::GroupSink {
 public:
  double PruneDistance() const override { return best_; }
  void Offer(std::vector<DataObject> group, double distance) override {
    ++offers_;
    if (distance < best_) {
      best_ = distance;
      group_ = std::move(group);
    }
  }
  uint64_t offers() const { return offers_; }

 private:
  double best_ = std::numeric_limits<double>::infinity();
  std::vector<DataObject> group_;
  uint64_t offers_ = 0;
};

TEST(SearchDriverTest, WarmedUpThreadAllocatesOnlyForOfferedGroups) {
  std::vector<DataObject> objects;
  Rng rng(71);
  for (ObjectId id = 0; id < 4000; ++id) {
    objects.push_back(DataObject{id, Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)}});
  }
  const Fixture fixture = MakeFixture(std::move(objects), /*bulk_load=*/true);
  std::vector<NwcQuery> queries;
  for (int i = 0; i < 20; ++i) {
    queries.push_back(
        NwcQuery{Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)}, 6.0, 6.0, 5});
  }
  for (const NwcOptions& options : {NwcOptions::Plain(), NwcOptions::Star()}) {
    auto run = [&](const NwcQuery& query, uint64_t* offers) {
      CountingSink sink;
      IoCounter io;
      const uint64_t before = t_allocations;
      internal::RunNwcSearch(fixture.tree, &fixture.iwp, &fixture.grid, query, options, &io,
                             sink, NullTrace(), NullControl());
      *offers = sink.offers();
      return t_allocations - before;
    };
    uint64_t offers = 0;
    for (const NwcQuery& query : queries) run(query, &offers);  // warm up
    uint64_t total_offers = 0;
    for (const NwcQuery& query : queries) {
      EXPECT_EQ(run(query, &offers), offers) << "one allocation per offered group";
      total_offers += offers;
    }
    EXPECT_GT(total_offers, 0u);

    // Through the engine, the answer reuses the best group's allocation.
    const NwcEngine engine(fixture.tree, &fixture.iwp, &fixture.grid);
    for (const NwcQuery& query : queries) {
      run(query, &offers);
      const uint64_t before = t_allocations;
      const Result<NwcResult> result = engine.Execute(query, options, nullptr);
      const uint64_t allocations = t_allocations - before;
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(allocations, offers);
    }
  }
}

}  // namespace
}  // namespace nwc
