#include "core/knwc_engine.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/float_bits.h"
#include "common/rng.h"
#include "core/brute_force.h"
#include "core/nwc_engine.h"
#include "rtree/bulk_load.h"

namespace nwc {
namespace {

struct Fixture {
  std::vector<DataObject> objects;
  RStarTree tree;
  IwpIndex iwp;
  DensityGrid grid;
};

Fixture MakeFixture(std::vector<DataObject> objects, const Rect& space, double cell = 10.0) {
  RTreeOptions options;
  options.max_entries = 8;
  options.min_entries = 3;
  RStarTree tree = BulkLoadStr(objects, options);
  IwpIndex iwp = IwpIndex::Build(tree);
  DensityGrid grid(space, cell, objects);
  return Fixture{std::move(objects), std::move(tree), std::move(iwp), std::move(grid)};
}

std::vector<DataObject> ClusteredObjects(size_t count, uint64_t seed, double extent,
                                         int clusters) {
  Rng rng(seed);
  std::vector<Point> centers;
  for (int c = 0; c < clusters; ++c) {
    centers.push_back(Point{rng.NextDouble(0, extent), rng.NextDouble(0, extent)});
  }
  std::vector<DataObject> objects;
  for (size_t i = 0; i < count; ++i) {
    const Point& c = centers[rng.NextUint64(centers.size())];
    objects.push_back(DataObject{static_cast<ObjectId>(i),
                                 Point{c.x + rng.NextGaussian(0, extent / 40),
                                       c.y + rng.NextGaussian(0, extent / 40)}});
  }
  return objects;
}

const std::vector<NwcOptions>& AllOptionPresets() {
  static const std::vector<NwcOptions> kPresets = {
      NwcOptions::Plain(), NwcOptions::Srr(), NwcOptions::Dip(),  NwcOptions::Dep(),
      NwcOptions::Iwp(),   NwcOptions::Plus(), NwcOptions::Star(),
  };
  return kPresets;
}

TEST(KnwcEngineTest, RejectsInvalidQueries) {
  Fixture f = MakeFixture(ClusteredObjects(50, 1, 100, 3), Rect{0, 0, 100, 100});
  KnwcEngine engine(f.tree, &f.iwp, &f.grid);
  KnwcQuery query{NwcQuery{Point{0, 0}, 5, 5, 3}, /*k=*/0, /*m=*/0};
  EXPECT_EQ(engine.Execute(query, NwcOptions::Plain(), nullptr).status().code(),
            StatusCode::kInvalidArgument);
  query.k = 2;
  query.m = 3;  // m >= n
  EXPECT_EQ(engine.Execute(query, NwcOptions::Plain(), nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

// NWC is kNWC with k = 1 (m is moot with one group): the same members in
// the same order, the same distance bit for bit, and the same page reads
// in both phases, for every preset.
TEST(KnwcEngineTest, KEqualsOneMatchesNwcEngine) {
  Rng rng(11);
  size_t found = 0;
  for (int round = 0; round < 20; ++round) {
    Fixture f = MakeFixture(ClusteredObjects(150, 20 + round, 100, 4), Rect{0, 0, 100, 100});
    KnwcEngine kengine(f.tree, &f.iwp, &f.grid);
    NwcEngine engine(f.tree, &f.iwp, &f.grid);
    for (int trial = 0; trial < 10; ++trial) {
      const NwcQuery base{Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)},
                          rng.NextDouble(4, 15), rng.NextDouble(4, 15),
                          2 + static_cast<size_t>(rng.NextUint64(4))};
      for (const NwcOptions& options : AllOptionPresets()) {
        SCOPED_TRACE(testing::Message() << "round " << round << " trial " << trial << " "
                                        << (options.use_iwp ? "iwp " : "")
                                        << (options.use_dep ? "dep " : "")
                                        << (options.use_dip ? "dip " : "")
                                        << (options.use_srr ? "srr" : ""));
        IoCounter single_io;
        IoCounter multi_io;
        const Result<NwcResult> single = engine.Execute(base, options, &single_io);
        const Result<KnwcResult> multi =
            kengine.Execute(KnwcQuery{base, 1, 0}, options, &multi_io);
        ASSERT_TRUE(single.ok());
        ASSERT_TRUE(multi.ok());
        ASSERT_EQ(single->found, !multi->groups.empty());
        EXPECT_EQ(single_io.traversal_reads(), multi_io.traversal_reads());
        EXPECT_EQ(single_io.window_query_reads(), multi_io.window_query_reads());
        if (!single->found) continue;
        ++found;
        ASSERT_EQ(multi->groups.size(), 1u);
        EXPECT_EQ(DoubleBits(multi->groups[0].distance), DoubleBits(single->distance));
        std::vector<ObjectId> single_ids;
        for (const DataObject& obj : single->objects) single_ids.push_back(obj.id);
        std::vector<ObjectId> multi_ids;
        for (const DataObject& obj : multi->groups[0].objects) multi_ids.push_back(obj.id);
        EXPECT_EQ(multi_ids, single_ids);
      }
    }
  }
  EXPECT_GT(found, 0u);
}

TEST(KnwcEngineTest, ResultSatisfiesDefinitionProperties) {
  Rng rng(12);
  for (int round = 0; round < 4; ++round) {
    Fixture f = MakeFixture(ClusteredObjects(200, 30 + round, 100, 5), Rect{0, 0, 100, 100});
    KnwcEngine engine(f.tree, &f.iwp, &f.grid);
    for (int trial = 0; trial < 3; ++trial) {
      KnwcQuery query;
      query.base = NwcQuery{Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)},
                            rng.NextDouble(5, 15), rng.NextDouble(5, 15),
                            3 + static_cast<size_t>(rng.NextUint64(3))};
      query.k = 1 + static_cast<size_t>(rng.NextUint64(5));
      query.m = static_cast<size_t>(rng.NextUint64(query.base.n));
      for (const NwcOptions& options : AllOptionPresets()) {
        const Result<KnwcResult> result = engine.Execute(query, options, nullptr);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const Status ok = CheckKnwcResultConsistency(*result, f.objects, query,
                                                     options.measure);
        EXPECT_TRUE(ok.ok()) << ok.ToString();
      }
    }
  }
}

TEST(KnwcEngineTest, MaxOverlapBudgetMatchesGreedyBruteForce) {
  // With m = n-1 the overlap constraint only rejects exact duplicates, so
  // Steps 1-5 maintenance keeps the k nearest distinct candidate groups
  // regardless of discovery order. Under the min/max/avg measures a
  // group's distance dominates the MINDIST of every window containing it,
  // so SRR/DIP pruning with dist_k loses no admissible candidate and every
  // scheme must equal the greedy brute force exactly.
  Rng rng(13);
  for (int round = 0; round < 5; ++round) {
    Fixture f = MakeFixture(ClusteredObjects(120, 40 + round, 100, 4), Rect{0, 0, 100, 100});
    KnwcEngine engine(f.tree, &f.iwp, &f.grid);
    for (int trial = 0; trial < 3; ++trial) {
      KnwcQuery query;
      query.base = NwcQuery{Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)},
                            rng.NextDouble(5, 15), rng.NextDouble(5, 15),
                            2 + static_cast<size_t>(rng.NextUint64(3))};
      query.k = 1 + static_cast<size_t>(rng.NextUint64(4));
      query.m = query.base.n - 1;

      const KnwcResult expected = BruteForceKnwc(f.objects, query, DistanceMeasure::kMax);
      NwcOptions options = NwcOptions::Star();
      options.measure = DistanceMeasure::kMax;
      const Result<KnwcResult> result = engine.Execute(query, options, nullptr);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->groups.size(), expected.groups.size());
      for (size_t g = 0; g < expected.groups.size(); ++g) {
        EXPECT_NEAR(result->groups[g].distance, expected.groups[g].distance, 1e-9)
            << "group " << g;
      }
    }
  }
}

TEST(KnwcEngineTest, NearestMeasureGroupsDominateGreedyBruteForce) {
  // Under the nearest-window measure, a group's distance can undercut the
  // MINDIST of the window it was found in, so the paper's dist_k pruning
  // (SRR/DIP) may drop middle-ranked candidates. The engine's groups are
  // then a subset of the brute-force candidate universe: the first group
  // is still optimal and every rank can only move outward.
  Rng rng(113);
  for (int round = 0; round < 4; ++round) {
    Fixture f = MakeFixture(ClusteredObjects(120, 140 + round, 100, 4), Rect{0, 0, 100, 100});
    KnwcEngine engine(f.tree, &f.iwp, &f.grid);
    for (int trial = 0; trial < 3; ++trial) {
      KnwcQuery query;
      query.base = NwcQuery{Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)},
                            rng.NextDouble(5, 15), rng.NextDouble(5, 15),
                            2 + static_cast<size_t>(rng.NextUint64(3))};
      query.k = 1 + static_cast<size_t>(rng.NextUint64(4));
      query.m = query.base.n - 1;

      const KnwcResult expected =
          BruteForceKnwc(f.objects, query, DistanceMeasure::kNearestWindow);
      const Result<KnwcResult> result =
          engine.Execute(query, NwcOptions::Star(), nullptr);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->groups.empty(), expected.groups.empty());
      if (!expected.groups.empty()) {
        EXPECT_NEAR(result->groups[0].distance, expected.groups[0].distance, 1e-9);
      }
      for (size_t g = 0; g < result->groups.size() && g < expected.groups.size(); ++g) {
        EXPECT_GE(result->groups[g].distance, expected.groups[g].distance - 1e-9)
            << "group " << g;
      }
    }
  }
}

TEST(KnwcEngineTest, FirstGroupAlwaysOptimal) {
  // Whatever m does to later groups, the first group must be the NWC
  // optimum.
  Rng rng(14);
  Fixture f = MakeFixture(ClusteredObjects(200, 50, 100, 5), Rect{0, 0, 100, 100});
  KnwcEngine kengine(f.tree, &f.iwp, &f.grid);
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  for (int trial = 0; trial < 8; ++trial) {
    const NwcQuery base{Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)},
                        rng.NextDouble(5, 15), rng.NextDouble(5, 15),
                        2 + static_cast<size_t>(rng.NextUint64(4))};
    const KnwcQuery query{base, 4, static_cast<size_t>(rng.NextUint64(base.n))};
    const Result<KnwcResult> multi = kengine.Execute(query, NwcOptions::Star(), nullptr);
    const Result<NwcResult> single = engine.Execute(base, NwcOptions::Star(), nullptr);
    ASSERT_TRUE(multi.ok());
    ASSERT_TRUE(single.ok());
    if (single->found) {
      ASSERT_FALSE(multi->groups.empty());
      EXPECT_NEAR(multi->groups[0].distance, single->distance, 1e-9);
    }
  }
}

TEST(KnwcEngineTest, LargerMNeverReturnsFewerGroups) {
  Fixture f = MakeFixture(ClusteredObjects(300, 60, 100, 6), Rect{0, 0, 100, 100});
  KnwcEngine engine(f.tree, &f.iwp, &f.grid);
  const NwcQuery base{Point{50, 50}, 10, 10, 4};
  size_t previous = 0;
  for (size_t m = 0; m < base.n; ++m) {
    const Result<KnwcResult> result =
        engine.Execute(KnwcQuery{base, 5, m}, NwcOptions::Star(), nullptr);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->groups.size(), previous);
    previous = result->groups.size();
  }
}

TEST(KnwcEngineTest, DistancesNonDecreasingAcrossK) {
  Fixture f = MakeFixture(ClusteredObjects(300, 61, 100, 6), Rect{0, 0, 100, 100});
  KnwcEngine engine(f.tree, &f.iwp, &f.grid);
  const Result<KnwcResult> result = engine.Execute(
      KnwcQuery{NwcQuery{Point{50, 50}, 10, 10, 3}, 6, 1}, NwcOptions::Star(), nullptr);
  ASSERT_TRUE(result.ok());
  for (size_t g = 1; g < result->groups.size(); ++g) {
    EXPECT_GE(result->groups[g].distance, result->groups[g - 1].distance - 1e-12);
  }
}

TEST(KnwcEngineTest, StarCostsNoMoreIoThanPlus) {
  Fixture f = MakeFixture(ClusteredObjects(5000, 62, 1000, 10), Rect{0, 0, 1000, 1000},
                          /*cell=*/25.0);
  KnwcEngine engine(f.tree, &f.iwp, &f.grid);
  const KnwcQuery query{NwcQuery{Point{500, 500}, 20, 20, 4}, 4, 1};
  IoCounter io_plus;
  IoCounter io_star;
  CheckOk(engine.Execute(query, NwcOptions::Plus(), &io_plus).status());
  CheckOk(engine.Execute(query, NwcOptions::Star(), &io_star).status());
  EXPECT_LE(io_star.query_total(), io_plus.query_total());
}

}  // namespace
}  // namespace nwc
