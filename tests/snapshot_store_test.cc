// SnapshotStore semantics: epoch-based copy-on-write publishing, snapshot
// lifetime pinned by readers, lazy IWP rebuild behind the staleness bound,
// and the service-level guarantees built on top — epoch-keyed result-cache
// correctness under real mutations (positive and negative entries) and the
// typed update API's static/dynamic split.

#include <atomic>
#include <bit>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/nwc_engine.h"
#include "rtree/bulk_load.h"
#include "rtree/validate.h"
#include "service/query_service.h"
#include "service/snapshot.h"

namespace nwc {
namespace {

std::vector<DataObject> UniformObjects(size_t count, uint64_t seed, double span = 100.0) {
  Rng rng(seed);
  std::vector<DataObject> objects;
  objects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    objects.push_back(DataObject{static_cast<ObjectId>(i),
                                 Point{rng.NextDouble(0, span), rng.NextDouble(0, span)}});
  }
  return objects;
}

std::unique_ptr<SnapshotStore> OpenStore(const std::vector<DataObject>& objects,
                                         size_t iwp_staleness_limit = 0) {
  SnapshotStore::Config config;
  config.iwp_staleness_limit = iwp_staleness_limit;
  Result<std::unique_ptr<SnapshotStore>> store =
      SnapshotStore::Open(BulkLoadStr(objects, RTreeOptions{}), config);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

NwcResult RunQuery(const Session& session, const NwcQuery& query, NwcOptions options) {
  if (options.use_iwp && session.iwp() == nullptr) options.use_iwp = false;
  NwcEngine engine(session.tree(), session.iwp(), session.grid());
  Result<NwcResult> result = engine.Execute(query, options, nullptr);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

bool SameResult(const NwcResult& a, const NwcResult& b) {
  if (a.found != b.found || a.distance != b.distance ||
      a.objects.size() != b.objects.size()) {
    return false;
  }
  for (size_t i = 0; i < a.objects.size(); ++i) {
    if (!(a.objects[i] == b.objects[i])) return false;
  }
  return true;
}

TEST(SnapshotStoreTest, OpenPublishesEpochOne) {
  auto store = OpenStore(UniformObjects(50, 1));
  EXPECT_EQ(store->epoch(), 1u);
  const SnapshotStore::SnapshotRef ref = store->Acquire();
  ASSERT_NE(ref.session, nullptr);
  EXPECT_EQ(ref.epoch, 1u);
  EXPECT_EQ(ref.session->tree().size(), 50u);
  EXPECT_NE(ref.session->iwp(), nullptr);
  EXPECT_NE(ref.session->grid(), nullptr);
  EXPECT_TRUE(ValidateTree(ref.session->tree()).ok());
}

TEST(SnapshotStoreTest, ApplyIsInvisibleUntilPublish) {
  auto store = OpenStore(UniformObjects(50, 2));
  MutationBatch batch{Mutation::Insert(DataObject{1000, Point{50, 50}})};
  ASSERT_TRUE(store->Apply(batch).ok());
  EXPECT_EQ(store->writer_object_count(), 51u);
  EXPECT_EQ(store->Acquire().session->tree().size(), 50u);  // readers see epoch 1
  EXPECT_EQ(store->epoch(), 1u);

  const SnapshotStore::SnapshotRef ref = store->Publish();
  EXPECT_EQ(ref.epoch, 2u);
  EXPECT_EQ(ref.session->tree().size(), 51u);
}

TEST(SnapshotStoreTest, PublishWithoutMutationsReturnsCurrentSnapshot) {
  auto store = OpenStore(UniformObjects(20, 3));
  const SnapshotStore::SnapshotRef before = store->Acquire();
  const SnapshotStore::SnapshotRef again = store->Publish();
  EXPECT_EQ(again.epoch, 1u);
  EXPECT_EQ(again.session.get(), before.session.get());  // no clone happened

  SnapshotStore::SnapshotRef out;
  ASSERT_TRUE(store->ApplyAndPublish(MutationBatch{}, nullptr, &out).ok());
  EXPECT_EQ(out.epoch, 1u);
}

TEST(SnapshotStoreTest, ReaderHoldingOldEpochGetsBitExactOldAnswers) {
  const std::vector<DataObject> objects = UniformObjects(200, 4);
  auto store = OpenStore(objects);
  const NwcQuery query{Point{50, 50}, 20, 20, 4};

  const SnapshotStore::SnapshotRef old_ref = store->Acquire();
  const NwcResult before = RunQuery(*old_ref.session, query, NwcOptions::Star());

  // Pile mutations right into the query window across several publishes.
  for (int round = 0; round < 3; ++round) {
    MutationBatch batch;
    for (int i = 0; i < 10; ++i) {
      batch.push_back(Mutation::Insert(DataObject{
          static_cast<ObjectId>(5000 + round * 10 + i),
          Point{45.0 + i * 0.5, 45.0 + round * 0.5}}));
    }
    ASSERT_TRUE(store->ApplyAndPublish(batch, nullptr, nullptr).ok());
  }
  EXPECT_EQ(store->epoch(), 4u);

  // The pinned epoch-1 session answers exactly as before the churn...
  const NwcResult after = RunQuery(*old_ref.session, query, NwcOptions::Star());
  EXPECT_TRUE(SameResult(before, after));
  // ...while the current epoch sees the new, denser data.
  const NwcResult fresh = RunQuery(*store->Acquire().session, query, NwcOptions::Star());
  ASSERT_TRUE(fresh.found);
  EXPECT_LE(fresh.distance, before.found ? before.distance : 1e300);
}

TEST(SnapshotStoreTest, OldSessionDestroyedOnlyAfterLastReaderReleases) {
  auto store = OpenStore(UniformObjects(30, 5));
  SnapshotStore::SnapshotRef ref = store->Acquire();
  std::weak_ptr<const Session> watch = ref.session;

  ASSERT_TRUE(store
                  ->ApplyAndPublish(
                      MutationBatch{Mutation::Insert(DataObject{999, Point{1, 1}})},
                      nullptr, nullptr)
                  .ok());
  // Epoch 2 is published, but the reader still pins epoch 1.
  EXPECT_FALSE(watch.expired());
  ref.session.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(SnapshotStoreTest, DeleteMissReportsNotFoundButAppliesRest) {
  auto store = OpenStore(UniformObjects(10, 6));
  const SnapshotStore::SnapshotRef before = store->Acquire();
  const DataObject real = [&] {
    // Any stored object: collect from the published tree.
    return CollectTreeObjects(before.session->tree()).front();
  }();

  MutationBatch batch{
      Mutation::Delete(DataObject{4242, Point{3, 3}}),  // no such object
      Mutation::Delete(real),
      Mutation::Insert(DataObject{777, Point{7, 7}}),
  };
  SnapshotStore::ApplyStats stats;
  SnapshotStore::SnapshotRef out;
  const Status status = store->ApplyAndPublish(batch, &stats, &out);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.delete_misses, 1u);
  EXPECT_EQ(out.session->tree().size(), 10u);  // -1 +1
  EXPECT_TRUE(ValidateTree(out.session->tree()).ok());
}

TEST(SnapshotStoreTest, LazyIwpRespectsStalenessBoundAndStaysBitExact) {
  const std::vector<DataObject> objects = UniformObjects(300, 7);
  auto store = OpenStore(objects, /*iwp_staleness_limit=*/5);
  EXPECT_NE(store->Acquire().session->iwp(), nullptr);  // first publish builds
  EXPECT_EQ(store->mutations_since_iwp_build(), 0u);

  // 3 mutations: inside the bound, the snapshot ships without IWP.
  MutationBatch small;
  for (int i = 0; i < 3; ++i) {
    small.push_back(Mutation::Insert(DataObject{static_cast<ObjectId>(9000 + i),
                                                Point{40.0 + i, 40.0}}));
  }
  ASSERT_TRUE(store->ApplyAndPublish(small, nullptr, nullptr).ok());
  const SnapshotStore::SnapshotRef degraded = store->Acquire();
  EXPECT_EQ(degraded.session->iwp(), nullptr);
  EXPECT_EQ(store->mutations_since_iwp_build(), 3u);

  // The IWP-less snapshot still answers bit-exactly (degraded scheme) vs a
  // from-scratch stack with full IWP over the same data.
  Result<Session> oracle = Session::Open(
      BulkLoadStr(CollectTreeObjects(degraded.session->tree()), RTreeOptions{}));
  ASSERT_TRUE(oracle.ok());
  const NwcQuery query{Point{42, 41}, 15, 15, 3};
  EXPECT_TRUE(SameResult(RunQuery(*degraded.session, query, NwcOptions::Star()),
                         RunQuery(*oracle, query, NwcOptions::Star())));

  // 3 more push past the bound of 5: the next publish rebuilds.
  MutationBatch more;
  for (int i = 0; i < 3; ++i) {
    more.push_back(Mutation::Insert(DataObject{static_cast<ObjectId>(9100 + i),
                                               Point{60.0 + i, 60.0}}));
  }
  ASSERT_TRUE(store->ApplyAndPublish(more, nullptr, nullptr).ok());
  EXPECT_NE(store->Acquire().session->iwp(), nullptr);
  EXPECT_EQ(store->mutations_since_iwp_build(), 0u);
}

TEST(SnapshotStoreTest, ConfigSupportsIsEpochIndependent) {
  SnapshotStore::Config config;
  config.iwp_staleness_limit = 100;
  Result<std::unique_ptr<SnapshotStore>> store =
      SnapshotStore::Open(BulkLoadStr(UniformObjects(50, 8), RTreeOptions{}), config);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)
                  ->ApplyAndPublish(
                      MutationBatch{Mutation::Insert(DataObject{1, Point{2, 2}})},
                      nullptr, nullptr)
                  .ok());
  // The current snapshot has no IWP (inside the bound), but the store is
  // configured for it — use_iwp requests stay supported and degrade.
  EXPECT_EQ((*store)->Acquire().session->iwp(), nullptr);
  EXPECT_TRUE((*store)->Supports(NwcOptions::Star()));
}

// 16 mutations against `live`: about half inserts of fresh ids, the rest
// deletes of stored objects. `live` tracks what the store holds.
MutationBatch RandomBatch(Rng* rng, std::vector<DataObject>* live, ObjectId* next_id) {
  MutationBatch batch;
  for (int i = 0; i < 16; ++i) {
    if (live->empty() || rng->NextBernoulli(0.5)) {
      const DataObject obj{(*next_id)++, Point{rng->NextDouble(0, 100), rng->NextDouble(0, 100)}};
      batch.push_back(Mutation::Insert(obj));
      live->push_back(obj);
    } else {
      const size_t victim = static_cast<size_t>(rng->NextUint64(live->size()));
      batch.push_back(Mutation::Delete((*live)[victim]));
      (*live)[victim] = live->back();
      live->pop_back();
    }
  }
  return batch;
}

// Everything a reader of the tree can observe, floating-point fields as
// raw bits: per node its id, level, parent, child entries with their MBRs,
// the leaf's SoA xs/ys/ids, and the Z-order packing flag.
std::vector<uint64_t> DumpTree(const RStarTree& tree) {
  std::vector<uint64_t> dump = {tree.root(), tree.size(), tree.node_slot_count()};
  const auto bits = [&dump](double value) { dump.push_back(std::bit_cast<uint64_t>(value)); };
  for (NodeId id = 0; id < tree.node_slot_count(); ++id) {
    dump.push_back(tree.IsLive(id));
    if (!tree.IsLive(id)) continue;
    const RTreeNode& n = tree.node(id);
    dump.insert(dump.end(), {n.id, n.parent, static_cast<uint64_t>(n.level), n.children.size(),
                             n.objects.size(), n.objects.zorder_packed()});
    for (const ChildEntry& entry : n.children) {
      dump.push_back(entry.child);
      bits(entry.mbr.min_x);
      bits(entry.mbr.min_y);
      bits(entry.mbr.max_x);
      bits(entry.mbr.max_y);
    }
    for (size_t i = 0; i < n.objects.size(); ++i) {
      bits(n.objects.xs()[i]);
      bits(n.objects.ys()[i]);
      dump.push_back(n.objects.ids()[i]);
    }
  }
  return dump;
}

// Both IWP tables of `iwp` over `tree`, slot by slot: each list's node
// ids and MBR bits in order, then the pointer counts.
std::vector<uint64_t> DumpIwp(const IwpIndex& iwp, const RStarTree& tree) {
  std::vector<uint64_t> dump;
  const auto list = [&dump](std::span<const NodePointer> pointers) {
    dump.push_back(pointers.size());
    for (const NodePointer& p : pointers) {
      dump.insert(dump.end(), {p.node, std::bit_cast<uint64_t>(p.mbr.min_x),
                               std::bit_cast<uint64_t>(p.mbr.min_y),
                               std::bit_cast<uint64_t>(p.mbr.max_x),
                               std::bit_cast<uint64_t>(p.mbr.max_y)});
    }
  };
  for (NodeId id = 0; id < tree.node_slot_count(); ++id) {
    list(iwp.BackwardPointers(id));
    list(iwp.OverlapPointers(id));
  }
  dump.insert(dump.end(), {iwp.backward_pointer_count(), iwp.overlap_pointer_count()});
  return dump;
}

// Every cell count of `grid`, whose space starts at `origin`, plus its
// total.
std::vector<uint64_t> DumpGrid(const DensityGrid& grid, Point origin) {
  std::vector<uint64_t> dump = {grid.total_count(), grid.cells_per_axis()};
  const double cell = grid.cell_size();
  for (size_t y = 0; y < grid.cells_per_axis(); ++y) {
    for (size_t x = 0; x < grid.cells_per_axis(); ++x) {
      dump.push_back(grid.CellCount(
          Point{origin.x + (static_cast<double>(x) + 0.5) * cell,
                origin.y + (static_cast<double>(y) + 0.5) * cell}));
    }
  }
  return dump;
}

TEST(SnapshotStoreTest, PinnedSnapshotIsUntouchedByLaterBatches) {
  std::vector<DataObject> live = UniformObjects(3000, 12);
  auto store = OpenStore(live);
  const SnapshotStore::SnapshotRef pinned = store->Acquire();
  const Session& session = *pinned.session;
  const std::vector<uint64_t> before = DumpTree(session.tree());
  // The grid's space is the tree's bounds at open.
  const Point origin{session.tree().bounds().min_x, session.tree().bounds().min_y};
  const std::vector<uint64_t> iwp_before = DumpIwp(*session.iwp(), session.tree());
  const std::vector<uint64_t> grid_before = DumpGrid(*session.grid(), origin);

  // Publishes share every untouched node with the pinned epoch; the writer
  // must copy each one before its first write.
  Rng rng(13);
  ObjectId next_id = 100000;
  for (int b = 0; b < 200; ++b) {
    ASSERT_TRUE(store->ApplyAndPublish(RandomBatch(&rng, &live, &next_id), nullptr, nullptr).ok());
  }
  EXPECT_EQ(store->epoch(), 201u);
  EXPECT_TRUE(DumpTree(pinned.session->tree()) == before)
      << "writer batches leaked into a pinned snapshot";
  EXPECT_TRUE(DumpIwp(*session.iwp(), session.tree()) == iwp_before)
      << "a later publish rewrote the pinned epoch's IWP tables";
  EXPECT_TRUE(DumpGrid(*session.grid(), origin) == grid_before)
      << "a later publish rewrote the pinned epoch's grid";
  EXPECT_TRUE(ValidateTree(pinned.session->tree()).ok());
  const SnapshotStore::SnapshotRef current = store->Acquire();
  EXPECT_TRUE(ValidateTree(current.session->tree()).ok());
  EXPECT_EQ(current.session->tree().size(), live.size());
}

TEST(SnapshotStoreTest, PublishedIwpMatchesBuildAfterEveryBatch) {
  // With a staleness limit the patch spans every batch since the last
  // snapshot that carried an IWP.
  for (const size_t staleness : {size_t{0}, size_t{40}}) {
    SCOPED_TRACE(testing::Message() << "iwp_staleness_limit " << staleness);
    std::vector<DataObject> live = UniformObjects(3000, 16);
    auto store = OpenStore(live, staleness);
    Rng rng(17);
    ObjectId next_id = 100000;
    size_t carried = 0;
    for (int b = 0; b < 120; ++b) {
      ASSERT_TRUE(
          store->ApplyAndPublish(RandomBatch(&rng, &live, &next_id), nullptr, nullptr).ok());
      const SnapshotStore::SnapshotRef ref = store->Acquire();
      if (ref.session->iwp() == nullptr) continue;
      ++carried;
      const RStarTree& tree = ref.session->tree();
      ASSERT_TRUE(DumpIwp(*ref.session->iwp(), tree) == DumpIwp(IwpIndex::Build(tree), tree))
          << "patched IWP differs from a fresh build after batch " << b;
    }
    EXPECT_EQ(carried, staleness == 0 ? 120u : 40u);
  }
}

TEST(SnapshotStoreTest, PublishedGridMatchesFreshGridAfterEveryBatch) {
  const Rect space{0, 0, 100, 100};
  std::vector<DataObject> live = UniformObjects(2000, 18);
  SnapshotStore::Config config;
  config.session.grid_space = space;
  config.session.grid_cell_size = 5.0;
  Result<std::unique_ptr<SnapshotStore>> opened =
      SnapshotStore::Open(BulkLoadStr(live, RTreeOptions{}), config);
  ASSERT_TRUE(opened.ok()) << opened.status();
  SnapshotStore& store = **opened;
  Rng rng(19);
  ObjectId next_id = 100000;
  for (int b = 0; b < 100; ++b) {
    MutationBatch batch = RandomBatch(&rng, &live, &next_id);
    // Inserts past every edge of the space clamp into the boundary cells.
    const DataObject outside{next_id++, Point{rng.NextDouble(-20, 120), b % 2 == 0 ? -7.5 : 130}};
    batch.push_back(Mutation::Insert(outside));
    live.push_back(outside);
    ASSERT_TRUE(store.ApplyAndPublish(batch, nullptr, nullptr).ok());

    const DensityGrid& published = *store.Acquire().session->grid();
    const DensityGrid fresh(space, config.session.grid_cell_size, live);
    ASSERT_TRUE(DumpGrid(published, Point{0, 0}) == DumpGrid(fresh, Point{0, 0}))
        << "after batch " << b;
    for (const Point p : {Point{-50, -50}, Point{150, 50}, Point{50, 150}, Point{100, 100}}) {
      ASSERT_EQ(published.CellCount(p), fresh.CellCount(p));
    }
    for (int trial = 0; trial < 50; ++trial) {
      const Rect rect = Rect::FromCorners(
          Point{rng.NextDouble(-30, 130), rng.NextDouble(-30, 130)},
          Point{rng.NextDouble(-30, 130), rng.NextDouble(-30, 130)});
      ASSERT_EQ(published.CountUpperBound(rect), fresh.CountUpperBound(rect)) << "after batch "
                                                                             << b;
    }
  }
}

TEST(SnapshotStoreTest, ReaderDropsSnapshotsWhileWriterPublishes) {
  std::vector<DataObject> live = UniformObjects(2000, 14);
  auto store = OpenStore(live);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    // Pins a few epochs at a time, reads all of each, and drops them out
    // of order, so the last holder of an epoch is sometimes this thread.
    std::vector<SnapshotStore::SnapshotRef> held;
    for (size_t round = 0; !done.load(); ++round) {
      held.push_back(store->Acquire());
      const RStarTree& tree = held.back().session->tree();
      EXPECT_TRUE(ValidateTree(tree).ok());
      EXPECT_EQ(CollectTreeObjects(tree).size(), tree.size());
      if (held.size() > 3) held.erase(round % 2 == 0 ? held.begin() : held.end() - 2);
    }
  });
  Rng rng(15);
  ObjectId next_id = 100000;
  for (int b = 0; b < 100; ++b) {
    EXPECT_TRUE(store->ApplyAndPublish(RandomBatch(&rng, &live, &next_id), nullptr, nullptr).ok());
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(store->epoch(), 101u);
  EXPECT_EQ(store->Acquire().session->tree().size(), live.size());
}

// ---- service-level guarantees -------------------------------------------

ServiceConfig CachedServiceConfig() {
  ServiceConfig config;
  config.num_threads = 2;
  config.queue_capacity = 64;
  config.default_options = NwcOptions::Star();
  config.result_cache_bytes = 4u << 20;
  return config;
}

TEST(DynamicServiceTest, StaticServiceRejectsUpdates) {
  Result<Session> session = Session::Open(BulkLoadStr(UniformObjects(20, 9), RTreeOptions{}));
  ASSERT_TRUE(session.ok());
  QueryService service(*session, CachedServiceConfig());
  EXPECT_FALSE(service.is_dynamic());
  const UpdateResponse response =
      service.ApplyUpdate(MutationBatch{Mutation::Insert(DataObject{1, Point{1, 1}})});
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(response.epoch, 0u);
}

TEST(DynamicServiceTest, CachedAnswersNeverSurviveAPublish) {
  // Seed data so sparse that no 8x8 window anywhere holds 3 objects: the
  // first query is "not found" — exercising the negative cache — until
  // inserts create a qualifying cluster.
  std::vector<DataObject> sparse;
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      sparse.push_back(DataObject{static_cast<ObjectId>(i * 6 + j),
                                  Point{i * 50.0, j * 50.0}});
    }
  }
  auto store = OpenStore(sparse);
  QueryService service(*store, CachedServiceConfig());
  EXPECT_TRUE(service.is_dynamic());

  const NwcQuery probe{Point{10, 10}, 8, 8, 3};
  NwcResponse first = service.SubmitNwc(NwcRequest{probe, {}}).get();
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.result.found);

  // Same query again: served from the cache (negative entry).
  NwcResponse cached = service.SubmitNwc(NwcRequest{probe, {}}).get();
  ASSERT_TRUE(cached.status.ok());
  EXPECT_TRUE(cached.result_cache_hit);
  EXPECT_FALSE(cached.result.found);

  // Publish objects inside the probe window; the cached negative answer
  // must not survive the epoch change.
  MutationBatch batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(Mutation::Insert(
        DataObject{static_cast<ObjectId>(100 + i), Point{9.0 + i * 0.5, 10.0}}));
  }
  const UpdateResponse update = service.ApplyUpdate(batch);
  ASSERT_TRUE(update.status.ok()) << update.status.ToString();
  EXPECT_EQ(update.epoch, 2u);
  EXPECT_EQ(update.applied_inserts, 4u);

  NwcResponse after = service.SubmitNwc(NwcRequest{probe, {}}).get();
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.result_cache_hit);  // new epoch keys a fresh entry
  EXPECT_TRUE(after.result.found);
  ASSERT_EQ(after.result.objects.size(), 3u);

  // And the new answer is itself cacheable under the new epoch.
  NwcResponse again = service.SubmitNwc(NwcRequest{probe, {}}).get();
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(again.result_cache_hit);
  EXPECT_TRUE(SameResult(after.result, again.result));
}

TEST(DynamicServiceTest, PositiveCachedAnswerTracksMutations) {
  const std::vector<DataObject> objects = UniformObjects(150, 11);
  auto store = OpenStore(objects);
  QueryService service(*store, CachedServiceConfig());

  // Probe from outside the data space so the best group sits at a strictly
  // positive distance (a window containing q would answer 0 under the
  // nearest-window measure and mask any improvement).
  const NwcQuery probe{Point{150, 150}, 10, 10, 4};
  const NwcResponse first = service.SubmitNwc(NwcRequest{probe, {}}).get();
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(first.result.found);
  ASSERT_GT(first.result.distance, 0.0);

  // A tight cluster just next to the query point must become the new best
  // group at a smaller distance.
  MutationBatch batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(Mutation::Insert(DataObject{
        static_cast<ObjectId>(800 + i), Point{145.0 + i * 0.01, 150.0}}));
  }
  ASSERT_TRUE(service.ApplyUpdate(batch).status.ok());

  const NwcResponse after = service.SubmitNwc(NwcRequest{probe, {}}).get();
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.result_cache_hit);
  ASSERT_TRUE(after.result.found);
  EXPECT_LT(after.result.distance, first.result.distance);

  // Oracle: rebuilt-from-scratch stack over the published data agrees.
  Result<Session> oracle = Session::Open(BulkLoadStr(
      CollectTreeObjects(store->Acquire().session->tree()), RTreeOptions{}));
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(SameResult(after.result, RunQuery(*oracle, probe, NwcOptions::Star())));
}

}  // namespace
}  // namespace nwc
