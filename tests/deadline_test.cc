// Deadline semantics, two layers deep:
//
//  1. Engine-level *monotonicity* on a deterministic injected clock whose
//     "time" is the number of cooperative checkpoints consumed: there is a
//     tightest completing deadline T+1 (T = checkpoints of an unconstrained
//     run); every looser deadline returns the bit-identical result, every
//     tighter one returns DeadlineExceeded — with the partial work visible
//     in the trace (an abort span carrying the status code).
//
//  2. Service-level wall-clock promptness (acceptance criterion): a kNWC
//     query over dense uniform data with a 100 microsecond deadline comes
//     back DeadlineExceeded in well under 10 milliseconds.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/io_stats.h"
#include "common/status.h"
#include "core/knwc_engine.h"
#include "core/nwc_engine.h"
#include "datasets/generators.h"
#include "grid/density_grid.h"
#include "obs/query_trace.h"
#include "rtree/bulk_load.h"
#include "rtree/iwp_index.h"
#include "service/query_service.h"

namespace nwc {
namespace {

struct CheckpointClock {
  uint64_t calls = 0;
  // Each ShouldStop() reads the clock once, so "now" is the checkpoint
  // ordinal: deadline D stops the query at its D-th checkpoint.
  uint64_t operator()() { return ++calls; }
};

struct EngineRun {
  Result<NwcResult> result = Status::Internal("not run");
  uint64_t checkpoints = 0;
  uint64_t aborted = 0;
  bool has_abort_span = false;
  int64_t abort_detail = -1;
};

EngineRun RunWithClockDeadline(const NwcEngine& engine, const NwcQuery& query,
                               const NwcOptions& options, uint64_t deadline_checkpoints) {
  EngineRun run;
  auto clock = std::make_shared<CheckpointClock>();
  IoCounter io;
  QueryTrace trace = QueryTrace::Enabled();
  QueryControl control;
  control.SetClock([clock] { return (*clock)(); });
  control.SetClockDeadlineNs(deadline_checkpoints);
  run.result = engine.Execute(query, options, &io, &trace, &control);
  run.checkpoints = clock->calls;
  run.aborted = trace.counter(TraceCounter::kAborted);
  for (const TraceSpan& span : trace.spans()) {
    if (span.kind == SpanKind::kAbort) {
      run.has_abort_span = true;
      run.abort_detail = span.detail;
    }
  }
  return run;
}

TEST(DeadlineMonotonicityTest, TightestCompletingDeadlineSplitsOutcomesExactly) {
  Dataset dataset = MakeUniform(600, /*seed=*/0xDEAD1);
  const RStarTree tree = BulkLoadStr(dataset.objects, RTreeOptions{});
  const IwpIndex iwp = IwpIndex::Build(tree);
  const DensityGrid grid(dataset.space, 500.0, dataset.objects);
  NwcEngine engine(tree, &iwp, &grid);

  const NwcQuery query{Point{5000, 5000}, 600, 600, 6};
  const NwcOptions options = NwcOptions::Star();

  // Unconstrained run: deadline far beyond any checkpoint count.
  const EngineRun baseline =
      RunWithClockDeadline(engine, query, options, /*deadline=*/1ULL << 60);
  ASSERT_TRUE(baseline.result.ok()) << baseline.result.status();
  ASSERT_TRUE(baseline.result->found) << "query must do real work for the test to bite";
  ASSERT_GT(baseline.checkpoints, 10u) << "expected a nontrivial search";
  EXPECT_EQ(baseline.aborted, 0u);
  EXPECT_FALSE(baseline.has_abort_span);
  const uint64_t tightest = baseline.checkpoints + 1;

  // Every looser deadline completes with the identical answer.
  for (const uint64_t deadline :
       {tightest, tightest + 1, tightest * 2, baseline.checkpoints * 10}) {
    const EngineRun run = RunWithClockDeadline(engine, query, options, deadline);
    ASSERT_TRUE(run.result.ok()) << "deadline=" << deadline << ": " << run.result.status();
    EXPECT_EQ(run.checkpoints, baseline.checkpoints) << "deadline=" << deadline;
    EXPECT_EQ(run.result->found, baseline.result->found);
    EXPECT_EQ(run.result->distance, baseline.result->distance) << "deadline=" << deadline;
    ASSERT_EQ(run.result->objects.size(), baseline.result->objects.size());
    for (size_t i = 0; i < run.result->objects.size(); ++i) {
      EXPECT_EQ(run.result->objects[i].id, baseline.result->objects[i].id)
          << "deadline=" << deadline << " object " << i;
    }
  }

  // Every tighter deadline fails typed — and consumes no more checkpoints
  // than the deadline allows (the stop is prompt, not best-effort).
  for (const uint64_t deadline : {baseline.checkpoints, baseline.checkpoints / 2,
                                  baseline.checkpoints / 10, uint64_t{1}}) {
    const EngineRun run = RunWithClockDeadline(engine, query, options, deadline);
    ASSERT_FALSE(run.result.ok()) << "deadline=" << deadline << " should not complete";
    EXPECT_EQ(run.result.status().code(), StatusCode::kDeadlineExceeded)
        << "deadline=" << deadline;
    EXPECT_LE(run.checkpoints, deadline + 1) << "deadline=" << deadline;
  }
}

TEST(DeadlineMonotonicityTest, AbortedRunLeavesPartialWorkInTrace) {
  Dataset dataset = MakeUniform(600, /*seed=*/0xDEAD2);
  const RStarTree tree = BulkLoadStr(dataset.objects, RTreeOptions{});
  NwcEngine engine(tree);

  const NwcQuery query{Point{5000, 5000}, 600, 600, 6};
  const EngineRun baseline =
      RunWithClockDeadline(engine, query, NwcOptions::Plain(), 1ULL << 60);
  ASSERT_TRUE(baseline.result.ok());
  ASSERT_GT(baseline.checkpoints, 20u);

  // Stop mid-search: the trace records the abort (counter + span) and the
  // span's detail names the status that stopped the query.
  const EngineRun run = RunWithClockDeadline(engine, query, NwcOptions::Plain(),
                                             baseline.checkpoints / 2);
  ASSERT_FALSE(run.result.ok());
  EXPECT_EQ(run.result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(run.aborted, 1u);
  ASSERT_TRUE(run.has_abort_span);
  EXPECT_EQ(run.abort_detail, static_cast<int64_t>(StatusCode::kDeadlineExceeded));
}

TEST(DeadlineServiceTest, TightDeadlineOnDenseDataFailsFastNotSlow) {
  // Acceptance criterion: kNWC on dense uniform data with a 100us deadline
  // must come back DeadlineExceeded well inside 10ms (prompt checkpoints,
  // not a full search followed by a late deadline check).
  Dataset dataset = MakeUniform(20000, /*seed=*/0xDEAD3);
  SessionConfig session_config;
  session_config.grid_space = dataset.space;
  Result<Session> session =
      Session::Open(BulkLoadStr(dataset.objects, RTreeOptions{}), session_config);
  ASSERT_TRUE(session.ok()) << session.status();

  ServiceConfig config;
  config.num_threads = 1;  // no queue wait: latency is all engine time
  QueryService service(*session, config);

  KnwcRequest request;
  request.query.base = NwcQuery{Point{5000, 5000}, 800, 800, 16};
  request.query.k = 8;
  request.query.m = 4;
  request.deadline_micros = 100;

  // Sanity: without the deadline the query is genuinely expensive.
  KnwcRequest unconstrained = request;
  unconstrained.deadline_micros = 0;
  const KnwcResponse full = service.SubmitKnwc(unconstrained).get();
  ASSERT_TRUE(full.status.ok()) << full.status;
  ASSERT_FALSE(full.result.groups.empty());

  const auto start = std::chrono::steady_clock::now();
  const KnwcResponse response = service.SubmitKnwc(request).get();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded) << response.status;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 10)
      << "deadline must abort the search promptly";

  const MetricsSnapshot metrics = service.SnapshotMetrics();
  EXPECT_EQ(metrics.deadline_exceeded, 1u);
  EXPECT_EQ(metrics.queries, 2u);
  EXPECT_EQ(metrics.failures, 1u);
}

// Strided deadline polls: a steady_clock deadline is read at the first
// checkpoint and then once every QueryControl::kDeadlineStride checkpoints,
// while cancel cells and faults are still checked at every checkpoint.

TEST(DeadlineStrideTest, PastSteadyDeadlineStopsBeforeAnyNodeRead) {
  Dataset dataset = MakeUniform(5000, /*seed=*/0xDEAD4);
  const RStarTree tree = BulkLoadStr(dataset.objects, RTreeOptions{});
  const IwpIndex iwp = IwpIndex::Build(tree);
  const DensityGrid grid(dataset.space, 100.0, dataset.objects);
  const NwcEngine engine(tree, &iwp, &grid);

  IoCounter io;
  QueryControl control;
  control.SetDeadline(std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  const Result<NwcResult> result = engine.Execute(NwcQuery{Point{5000, 5000}, 300, 300, 6},
                                                  NwcOptions::Star(), &io, nullptr, &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(io.total(), 0u) << "the first checkpoint must read the clock";
}

TEST(DeadlineStrideTest, MicrosecondTimeoutOnDenseQueryStillExpires) {
  Dataset dataset = MakeUniform(20000, /*seed=*/0xDEAD5);
  const RStarTree tree = BulkLoadStr(dataset.objects, RTreeOptions{});
  const IwpIndex iwp = IwpIndex::Build(tree);
  const DensityGrid grid(dataset.space, 100.0, dataset.objects);
  const KnwcEngine engine(tree, &iwp, &grid);
  const KnwcQuery query{NwcQuery{Point{5000, 5000}, 800, 800, 16}, 8, 4};

  IoCounter full_io;
  const Result<KnwcResult> full = engine.Execute(query, NwcOptions::Star(), &full_io);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_FALSE(full->groups.empty());

  IoCounter io;
  QueryControl control;
  control.SetTimeout(1);
  const Result<KnwcResult> result =
      engine.Execute(query, NwcOptions::Star(), &io, nullptr, &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(io.total(), full_io.total());
}

TEST(DeadlineStrideTest, CancelFlippedMidSearchStopsAtTheNextCheckpoint) {
  Dataset dataset = MakeUniform(5000, /*seed=*/0xDEAD6);
  const RStarTree tree = BulkLoadStr(dataset.objects, RTreeOptions{});
  const IwpIndex iwp = IwpIndex::Build(tree);
  const NwcEngine engine(tree, &iwp);
  const NwcQuery query{Point{5000, 5000}, 400, 400, 8};

  IoCounter full_io;
  ASSERT_TRUE(engine.Execute(query, NwcOptions::Iwp(), &full_io).ok());
  const uint64_t flip_at = full_io.total() / 2;
  ASSERT_GT(flip_at, 2 * uint64_t{QueryControl::kDeadlineStride});

  // The cell flips inside the flip_at-th page read. Every node access is
  // preceded by a checkpoint, so no further page may be read, even though a
  // far steady_clock deadline is armed and its clock reads are strided.
  std::atomic<uint64_t> epoch{0};
  uint64_t reads = 0;
  IoCounter io;
  io.SetReadProbe([&](uint32_t) {
    if (++reads == flip_at) epoch.store(1, std::memory_order_relaxed);
  });
  QueryControl control;
  control.SetTimeout(60ULL * 1000 * 1000);
  control.SetCancelCell(&epoch, 0);
  const Result<NwcResult> result =
      engine.Execute(query, NwcOptions::Iwp(), &io, nullptr, &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(io.total(), flip_at);
}


}  // namespace
}  // namespace nwc
