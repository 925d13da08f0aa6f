// Churn maintenance cost: incremental MVCC publishes vs rebuild-per-batch.
//
// A dynamic deployment has two ways to keep the index stack fresh while
// data mutates: apply each batch to the writer R*-tree and publish a
// copy-on-write snapshot (SnapshotStore — tree clone, IWP patched from the
// previous snapshot past the staleness bound, grid prefix sums written in
// one pass), or rebuild the whole stack from scratch after every batch
// (STR bulk load + IWP build + grid rebuild). Both serve bit-exact answers; this driver measures what the
// incremental path saves, and *verifies* the bit-exactness claim by
// running probe queries against both stacks at every publish point.
//
// The main mode sweeps churn ratios and IWP staleness limits over a
// MutationWorkload stream, reporting per-batch maintenance time for both
// strategies and the speedup. Honors NWC_SCALE for the object count.
//
// `--smoke` runs a small fixed gate instead (used by CI): 10% churn in
// batches of 5 over 20k objects, with a staleness limit amortizing the
// IWP patch over ~10 batches. The gate fails (exit 1) when incremental
// maintenance is not at least 5x faster than rebuild-per-batch, or when
// any probe query disagrees between the two stacks. It then prints the
// publish breakdown at the served cadence (not gated): p50 of each step
// of a 16-mutation ApplyAndPublish (8 inserts, 8 deletes) on the 62,556-
// object CA-like tree with the IWP patched every publish.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "bench_util/table_printer.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/nwc_engine.h"
#include "grid/density_grid.h"
#include "rtree/bulk_load.h"
#include "rtree/iwp_index.h"
#include "service/session.h"
#include "service/snapshot.h"
#include "service/workload.h"

namespace {

using namespace nwc;
using namespace nwc::bench;

/// The rebuild-per-batch strategy's state: the flat object set plus the
/// freshly rebuilt stack. Deletes go through an id index so the rebuild
/// path isn't penalized by linear scans the strategy itself doesn't need.
struct RebuildStack {
  std::vector<DataObject> objects;
  std::unordered_map<ObjectId, size_t> index;  // id -> slot in objects
  std::unique_ptr<RStarTree> tree;
  std::unique_ptr<IwpIndex> iwp;
  std::unique_ptr<DensityGrid> grid;

  explicit RebuildStack(std::vector<DataObject> initial) : objects(std::move(initial)) {
    for (size_t i = 0; i < objects.size(); ++i) index[objects[i].id] = i;
    Rebuild(25.0);
  }

  void ApplyAndRebuild(const MutationBatch& batch, double grid_cell) {
    for (const Mutation& m : batch) {
      if (m.kind == Mutation::Kind::kInsert) {
        index[m.object.id] = objects.size();
        objects.push_back(m.object);
      } else {
        const auto it = index.find(m.object.id);
        if (it == index.end()) continue;
        const size_t slot = it->second;
        index.erase(it);
        objects[slot] = objects.back();
        index[objects[slot].id] = slot;
        objects.pop_back();
      }
    }
    Rebuild(grid_cell);
  }

  void Rebuild(double grid_cell) {
    tree = std::make_unique<RStarTree>(BulkLoadStr(objects, RTreeOptions{}));
    iwp = std::make_unique<IwpIndex>(IwpIndex::Build(*tree));
    Rect space = tree->bounds();
    if (space.IsEmpty()) space = Rect{0.0, 0.0, grid_cell, grid_cell};
    grid = std::make_unique<DensityGrid>(space, grid_cell, objects);
  }
};

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

struct ChurnRun {
  uint64_t incremental_us = 0;  ///< total ApplyAndPublish time
  uint64_t rebuild_us = 0;      ///< total apply+rebuild time
  size_t batches = 0;
  size_t probe_mismatches = 0;
  size_t probes = 0;
};

/// Replays `workload`'s mutations in batches of `batch_size` through both
/// strategies, timing each, and cross-checks `probes_per_batch` probe
/// queries (drawn from the workload's query steps) at every publish point.
ChurnRun RunChurn(const MutationWorkload& workload, size_t batch_size,
                  size_t iwp_staleness_limit, size_t probes_per_batch) {
  SnapshotStore::Config store_config;
  store_config.iwp_staleness_limit = iwp_staleness_limit;
  Result<std::unique_ptr<SnapshotStore>> store =
      SnapshotStore::Open(BulkLoadStr(workload.initial, RTreeOptions{}), store_config);
  CheckOk(store.status(), "churn_service SnapshotStore::Open");

  RebuildStack rebuild{workload.initial};

  // Probe pool: the workload's own query steps, reused round-robin.
  std::vector<NwcQuery> probe_pool;
  for (const MutationStep& step : workload.steps) {
    if (step.is_query && !step.query.is_knwc) probe_pool.push_back(step.query.nwc);
  }

  ChurnRun run;
  size_t next_probe = 0;
  MutationBatch pending;
  const auto flush = [&] {
    if (pending.empty()) return;
    Stopwatch inc;
    SnapshotStore::SnapshotRef ref;
    CheckOk((*store)->ApplyAndPublish(pending, nullptr, &ref), "churn ApplyAndPublish");
    run.incremental_us += inc.ElapsedMicros();

    Stopwatch reb;
    rebuild.ApplyAndRebuild(pending, 25.0);
    run.rebuild_us += reb.ElapsedMicros();
    ++run.batches;
    pending.clear();

    // Bit-exactness probes under the snapshot's *effective* scheme: when
    // it shipped without IWP (inside the staleness bound), both stacks
    // answer with use_iwp off so the comparison is scheme-for-scheme.
    NwcOptions options = NwcOptions::Star();
    if (ref.session->iwp() == nullptr) options.use_iwp = false;
    NwcEngine snapshot_engine(ref.session->tree(), ref.session->iwp(), ref.session->grid());
    NwcEngine rebuilt_engine(*rebuild.tree, options.use_iwp ? rebuild.iwp.get() : nullptr,
                             rebuild.grid.get());
    for (size_t p = 0; p < probes_per_batch && !probe_pool.empty(); ++p) {
      const NwcQuery& query = probe_pool[next_probe++ % probe_pool.size()];
      const Result<NwcResult> a = snapshot_engine.Execute(query, options, nullptr);
      const Result<NwcResult> b = rebuilt_engine.Execute(query, options, nullptr);
      CheckOk(a.status(), "churn snapshot probe");
      CheckOk(b.status(), "churn rebuilt probe");
      ++run.probes;
      if (!SameResult(*a, *b)) ++run.probe_mismatches;
    }
  };

  for (const MutationStep& step : workload.steps) {
    if (step.is_query) continue;
    pending.push_back(step.mutation);
    if (pending.size() >= batch_size) flush();
  }
  flush();
  return run;
}

uint64_t P50(std::vector<uint64_t> values) {
  if (values.empty()) return 0;
  std::nth_element(values.begin(), values.begin() + values.size() / 2, values.end());
  return values[values.size() / 2];
}

/// Publish breakdown: 400 batches of 8 inserts (jittered copies of live
/// objects) and 8 deletes through ApplyAndPublish on the CA-like tree,
/// each step's p50 from SnapshotStore::last_publish().
void PrintPublishBreakdown() {
  const Dataset dataset = MakeCaLike(kDatasetSeed);
  Result<std::unique_ptr<SnapshotStore>> store =
      SnapshotStore::Open(BulkLoadStr(dataset.objects, RTreeOptions{}), SnapshotStore::Config{});
  CheckOk(store.status(), "churn_service breakdown SnapshotStore::Open");
  std::vector<DataObject> live = dataset.objects;
  ObjectId next_id = 1u << 30;
  Rng rng(11);
  std::vector<uint64_t> apply, clone, iwp, grid, teardown, total;
  for (int b = 0; b < 400; ++b) {
    MutationBatch batch;
    for (int i = 0; i < 8; ++i) {
      const DataObject& near = live[rng.NextUint64(live.size())];
      const DataObject object{next_id++, Point{rng.NextGaussian(near.pos.x, 20.0),
                                               rng.NextGaussian(near.pos.y, 20.0)}};
      batch.push_back(Mutation::Insert(object));
      live.push_back(object);
      const size_t victim = rng.NextUint64(live.size());
      batch.push_back(Mutation::Delete(live[victim]));
      live[victim] = live.back();
      live.pop_back();
    }
    Stopwatch watch;
    CheckOk((*store)->ApplyAndPublish(batch, nullptr, nullptr), "breakdown ApplyAndPublish");
    total.push_back(watch.ElapsedMicros());
    const SnapshotStore::PublishTiming t = (*store)->last_publish();
    apply.push_back(t.apply_us);
    clone.push_back(t.clone_us);
    iwp.push_back(t.iwp_us);
    grid.push_back(t.grid_us);
    teardown.push_back(t.teardown_us);
  }
  std::printf("publish breakdown (%zu objects, 400 x 16-mutation batches, p50 us):\n",
              dataset.objects.size());
  std::printf("  apply %llu  clone %llu  iwp %llu  grid %llu  teardown %llu  "
              "ApplyAndPublish %llu\n",
              static_cast<unsigned long long>(P50(apply)),
              static_cast<unsigned long long>(P50(clone)),
              static_cast<unsigned long long>(P50(iwp)),
              static_cast<unsigned long long>(P50(grid)),
              static_cast<unsigned long long>(P50(teardown)),
              static_cast<unsigned long long>(P50(total)));
}

// CI gate: incremental maintenance must beat rebuild-per-batch by >= 5x
// at 10% churn, and every probe must agree bit-exactly.
int RunSmoke() {
  std::printf("churn_service --smoke: incremental vs rebuild-per-batch gate\n");
  MutationWorkloadConfig config;
  config.steps = 1000;
  config.seed = 7;
  config.churn_ratio = 0.1;  // 100 mutations -> 20 batches of 5
  config.initial_objects = 20000;
  const MutationWorkload workload = MakeMutationWorkload(config);

  // Staleness limit 50: the IWP rebuilds roughly every 10 batches, the
  // amortization a real deployment would pick at this churn.
  const ChurnRun run = RunChurn(workload, /*batch_size=*/5, /*iwp_staleness_limit=*/50,
                                /*probes_per_batch=*/5);
  const double speedup = run.incremental_us > 0
                             ? static_cast<double>(run.rebuild_us) /
                                   static_cast<double>(run.incremental_us)
                             : 0.0;
  std::printf("batches:      %zu\n", run.batches);
  std::printf("incremental:  %llu us total (%.0f us/batch)\n",
              static_cast<unsigned long long>(run.incremental_us),
              run.batches > 0 ? static_cast<double>(run.incremental_us) / run.batches : 0.0);
  std::printf("rebuild:      %llu us total (%.0f us/batch)\n",
              static_cast<unsigned long long>(run.rebuild_us),
              run.batches > 0 ? static_cast<double>(run.rebuild_us) / run.batches : 0.0);
  std::printf("speedup:      %.1fx\n", speedup);
  std::printf("probes:       %zu (%zu mismatch(es))\n", run.probes, run.probe_mismatches);
  if (run.probe_mismatches > 0) {
    std::fprintf(stderr, "FAIL: %zu probe(s) disagreed between snapshot and rebuild\n",
                 run.probe_mismatches);
    return 1;
  }
  if (speedup < 5.0) {
    std::fprintf(stderr, "FAIL: incremental maintenance only %.1fx faster (< 5x gate)\n",
                 speedup);
    return 1;
  }
  std::printf("PASS: bit-exact and %.1fx over the 5x gate\n", speedup);
  PrintPublishBreakdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
    std::fprintf(stderr, "unknown flag %s (supported: --smoke)\n", argv[i]);
    return 2;
  }

  PrintRunConfig("Churn maintenance: incremental MVCC publish vs rebuild-per-batch");
  const size_t objects = ScaledCardinality(62556);
  const double kChurns[] = {0.01, 0.05, 0.1, 0.2};
  const size_t kStaleness[] = {0, 10, 50};

  TablePrinter table("Maintenance us/batch - incremental (by IWP staleness) | rebuild",
                     {"churn", "stale=0", "stale=10", "stale=50", "rebuild", "best speedup"});
  TablePrinter csv("Churn maintenance (CSV series)",
                   {"churn", "staleness", "batches", "incremental_us", "rebuild_us",
                    "speedup", "probes", "mismatches"});

  for (const double churn : kChurns) {
    MutationWorkloadConfig config;
    config.steps = 2000;
    config.seed = 7;
    config.churn_ratio = churn;
    config.initial_objects = objects;
    const MutationWorkload workload = MakeMutationWorkload(config);

    std::vector<std::string> row{StrFormat("%.0f%%", churn * 100.0)};
    uint64_t rebuild_us = 0;
    size_t batches = 0;
    double best_speedup = 0.0;
    for (const size_t staleness : kStaleness) {
      const ChurnRun run = RunChurn(workload, /*batch_size=*/5, staleness,
                                    /*probes_per_batch=*/2);
      if (run.probe_mismatches > 0) {
        std::fprintf(stderr, "FAIL: %zu probe mismatch(es) at churn %.2f staleness %zu\n",
                     run.probe_mismatches, churn, staleness);
        return 1;
      }
      rebuild_us = run.rebuild_us;  // same stream; any staleness run's figure works
      batches = run.batches;
      const double speedup =
          run.incremental_us > 0 ? static_cast<double>(run.rebuild_us) /
                                       static_cast<double>(run.incremental_us)
                                 : 0.0;
      if (speedup > best_speedup) best_speedup = speedup;
      Progress("churn=%.0f%% staleness=%zu: %llu us inc vs %llu us rebuild (%.1fx)",
               churn * 100.0, staleness, static_cast<unsigned long long>(run.incremental_us),
               static_cast<unsigned long long>(run.rebuild_us), speedup);
      row.push_back(StrFormat(
          "%.0f", batches > 0 ? static_cast<double>(run.incremental_us) / batches : 0.0));
      csv.AddRow({StrFormat("%.2f", churn), StrFormat("%zu", staleness),
                  StrFormat("%zu", run.batches),
                  StrFormat("%llu", static_cast<unsigned long long>(run.incremental_us)),
                  StrFormat("%llu", static_cast<unsigned long long>(run.rebuild_us)),
                  StrFormat("%.2f", speedup), StrFormat("%zu", run.probes),
                  StrFormat("%zu", run.probe_mismatches)});
    }
    row.push_back(StrFormat(
        "%.0f", batches > 0 ? static_cast<double>(rebuild_us) / batches : 0.0));
    row.push_back(StrFormat("%.1fx", best_speedup));
    table.AddRow(std::move(row));
  }

  table.Print();
  csv.WriteCsv(CsvPath("churn_service.csv"));
  return 0;
}
