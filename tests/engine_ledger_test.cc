// Golden engine ledger: the paper's algorithm, pinned bit for bit.
//
// Runs NWC and kNWC (k = 4, m = 2) for 32 fixed query points over the
// CA-like data set under four optimization presets and records, per run,
// everything the algorithm decides: answer ids, distance bit patterns,
// traversal and window-query page reads, and all TraceCounters. The
// ledger is compared exactly against tests/golden/engine_ledger.txt, once
// per SIMD dispatch mode. Constant-factor work on the search loop (queue
// layout, probe buffers, checkpoint polling) must leave every line as it
// is; a change to a line is a change to the algorithm.
//
// To update the golden file after a deliberate algorithm change, run this
// test: on a mismatch it writes the ledger it computed to
// engine_ledger.actual in its working directory.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/float_bits.h"
#include "common/io_stats.h"
#include "common/rng.h"
#include "core/knwc_engine.h"
#include "core/nwc_engine.h"
#include "datasets/generators.h"
#include "grid/density_grid.h"
#include "obs/query_trace.h"
#include "rtree/bulk_load.h"
#include "rtree/iwp_index.h"
#include "simd/kernels.h"

namespace nwc {
namespace {

constexpr uint64_t kDatasetSeed = 20160315;
constexpr uint64_t kQuerySeed = 0x1ED6E5;
constexpr size_t kQueryCount = 32;
constexpr double kWindow = 8.0;
constexpr size_t kGroupSize = 8;
constexpr size_t kGroups = 4;
constexpr size_t kOverlap = 2;
constexpr double kGridCell = 25.0;

struct Preset {
  const char* name;
  NwcOptions options;
};

const Preset kPresets[] = {
    {"plain", NwcOptions::Plain()},
    {"dep", NwcOptions::Dep()},
    {"iwp", NwcOptions::Iwp()},
    {"star", NwcOptions::Star()},
};

std::string Hex(uint64_t value) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

void AppendIoAndCounters(const IoCounter& io, const QueryTrace& trace, std::ostream& out) {
  out << " tr=" << io.traversal_reads() << " wr=" << io.window_query_reads() << " c=";
  for (size_t c = 0; c < kTraceCounterCount; ++c) {
    if (c > 0) out << ',';
    out << trace.counter(static_cast<TraceCounter>(c));
  }
}

void AppendIds(const std::vector<DataObject>& objects, std::ostream& out) {
  for (size_t i = 0; i < objects.size(); ++i) {
    out << (i == 0 ? "" : ",") << objects[i].id;
  }
}

class EngineLedger {
 public:
  EngineLedger()
      : dataset_(MakeCaLike(kDatasetSeed)),
        tree_(BulkLoadStr(dataset_.objects, RTreeOptions{})),
        iwp_(IwpIndex::Build(tree_)),
        grid_(dataset_.space, kGridCell, dataset_.objects) {
    // Distinct data positions drawn with a fixed seed: the queries sit
    // where the data is, as served queries do.
    Rng rng(kQuerySeed);
    std::vector<size_t> order(dataset_.objects.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = 0; i < kQueryCount; ++i) {
      const size_t j = i + static_cast<size_t>(rng.NextUint64(order.size() - i));
      std::swap(order[i], order[j]);
      queries_.push_back(dataset_.objects[order[i]].pos);
    }
  }

  std::string Render() const {
    std::ostringstream out;
    out << "# engine ledger v1: CA-like seed " << kDatasetSeed << ", " << dataset_.size()
        << " objects, l=w=" << kWindow << " n=" << kGroupSize << " k=" << kGroups
        << " m=" << kOverlap << "\n";
    out << "# counters:";
    for (size_t c = 0; c < kTraceCounterCount; ++c) {
      out << ' ' << TraceCounterName(static_cast<TraceCounter>(c));
    }
    out << "\n";
    const NwcEngine nwc_engine(tree_, &iwp_, &grid_);
    const KnwcEngine knwc_engine(tree_, &iwp_, &grid_);
    for (size_t i = 0; i < queries_.size(); ++i) {
      const NwcQuery nwc_query{queries_[i], kWindow, kWindow, kGroupSize};
      const KnwcQuery knwc_query{nwc_query, kGroups, kOverlap};
      for (const Preset& preset : kPresets) {
        {
          IoCounter io;
          QueryTrace trace = QueryTrace::Enabled();
          const Result<NwcResult> result = nwc_engine.Execute(nwc_query, preset.options, &io,
                                                              &trace);
          out << "nwc q" << i << " (" << Hex(DoubleBits(queries_[i].x)) << ","
              << Hex(DoubleBits(queries_[i].y)) << ") " << preset.name;
          if (!result.ok()) {
            out << " status=" << result.status().ToString() << "\n";
            continue;
          }
          out << " found=" << result->found << " d=" << Hex(DoubleBits(result->distance))
              << " ids=";
          AppendIds(result->objects, out);
          AppendIoAndCounters(io, trace, out);
          out << "\n";
        }
        {
          IoCounter io;
          QueryTrace trace = QueryTrace::Enabled();
          const Result<KnwcResult> result = knwc_engine.Execute(knwc_query, preset.options,
                                                                &io, &trace);
          out << "knwc q" << i << " " << preset.name;
          if (!result.ok()) {
            out << " status=" << result.status().ToString() << "\n";
            continue;
          }
          out << " groups=" << result->groups.size();
          for (const NwcGroup& group : result->groups) {
            out << " d=" << Hex(DoubleBits(group.distance)) << " ids=";
            AppendIds(group.objects, out);
          }
          AppendIoAndCounters(io, trace, out);
          out << "\n";
        }
      }
    }
    return out.str();
  }

 private:
  Dataset dataset_;
  RStarTree tree_;
  IwpIndex iwp_;
  DensityGrid grid_;
  std::vector<Point> queries_;
};

std::string ReadGolden() {
  const std::string path = std::string(NWC_GOLDEN_DIR) + "/engine_ledger.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Compares line by line so a failure names the first run that drifted.
void ExpectMatchesGolden(const std::string& actual, const char* mode) {
  const std::vector<std::string> expected_lines = Lines(ReadGolden());
  const std::vector<std::string> actual_lines = Lines(actual);
  size_t mismatches = 0;
  for (size_t i = 0; i < std::max(expected_lines.size(), actual_lines.size()); ++i) {
    const std::string expected = i < expected_lines.size() ? expected_lines[i] : "<missing>";
    const std::string got = i < actual_lines.size() ? actual_lines[i] : "<missing>";
    if (expected == got) continue;
    if (++mismatches <= 5) {
      ADD_FAILURE() << mode << " dispatch, ledger line " << i + 1 << ":\n  golden: " << expected
                    << "\n  actual: " << got;
    }
  }
  if (mismatches > 0) {
    std::ofstream("engine_ledger.actual") << actual;
    ADD_FAILURE() << mode << " dispatch: " << mismatches
                  << " ledger line(s) differ; the computed ledger was written to "
                     "engine_ledger.actual";
  }
}

// Restores the entry dispatch mode even when an assertion fails.
class DispatchModeGuard {
 public:
  DispatchModeGuard() : saved_(simd::GetDispatchMode()) {}
  ~DispatchModeGuard() { simd::SetDispatchMode(saved_); }

 private:
  simd::DispatchMode saved_;
};

const EngineLedger& Ledger() {
  static const EngineLedger* ledger = new EngineLedger();
  return *ledger;
}

TEST(EngineLedgerTest, ScalarDispatchMatchesGolden) {
  DispatchModeGuard guard;
  simd::SetDispatchMode(simd::DispatchMode::kForceScalar);
  ExpectMatchesGolden(Ledger().Render(), "scalar");
}

TEST(EngineLedgerTest, AutoDispatchMatchesGolden) {
  DispatchModeGuard guard;
  simd::SetDispatchMode(simd::DispatchMode::kAuto);
  ExpectMatchesGolden(Ledger().Render(), simd::Avx2Supported() ? "avx2" : "auto (scalar)");
}

}  // namespace
}  // namespace nwc
