// The benchmark's workloads and the deterministic input streams each one
// sends: query catalog + request sequence, and mutation batches.
#ifndef NWCBENCH_WORKLOAD_H_
#define NWCBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/nwc_types.h"
#include "datasets/dataset.h"
#include "service/snapshot.h"

namespace nwcbench {

/// What one workload serves and how it is driven.
struct WorkloadSpec {
  const char* name;
  bool dynamic;               ///< SnapshotStore + update frames beside reads
  double query_qps;           ///< open-loop query rate
  double update_batches_qps;  ///< open-loop update-frame rate (0 = none)
  uint64_t deadline_us;       ///< per-request deadline (0 = none)
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::string WorkloadNames();

/// The paper's query parameters: l = w = 8, n = 8, k = 4, m = 2.
inline constexpr double kWindow = 8.0;
inline constexpr size_t kGroupSize = 8;
inline constexpr size_t kGroups = 4;
inline constexpr size_t kOverlap = 2;
inline constexpr size_t kMutationsPerBatch = 16;

/// One distinct query. `knwc` selects which of the two is sent.
struct QueryItem {
  bool knwc = false;
  nwc::NwcQuery nwc;
  nwc::KnwcQuery knwc_query;
};

/// Everything a run sends, fixed by (workload, seed, sizes).
struct Streams {
  /// Distinct query points, one per sampled data position; a request names
  /// one by index, and no index repeats in warmup + sequence.
  std::vector<nwc::Point> catalog;
  std::vector<uint32_t> warmup;    ///< catalog indices sent before timing
  std::vector<uint32_t> sequence;  ///< catalog indices of the timed legs
  /// Mutation batches in apply order: each deletes only objects live at
  /// that point of the stream and inserts fresh ids.
  std::vector<nwc::MutationBatch> updates;
  uint64_t hash = 0;  ///< fingerprint of catalog, sequences and updates

  /// The query catalog item `index` stands for: 1 in 8 is kNWC.
  QueryItem item(uint32_t index) const;
};

/// The workloads' CA-like dataset (62,556 objects). Generated from a fixed
/// seed, like the fixed real CA dataset of the paper; only the streams
/// follow --seed.
nwc::Dataset MakeWorkloadDataset();

/// Generates the streams. warmup_length + sequence_length must not exceed
/// the dataset size.
Streams MakeStreams(const nwc::Dataset& dataset, uint64_t seed, size_t warmup_length,
                    size_t sequence_length, size_t update_batches);

/// The objects live after applying the first `batches` update batches to
/// `initial`, in id order.
std::vector<nwc::DataObject> LiveObjectsAfter(const std::vector<nwc::DataObject>& initial,
                                              const std::vector<nwc::MutationBatch>& updates,
                                              size_t batches);

}  // namespace nwcbench

#endif  // NWCBENCH_WORKLOAD_H_
