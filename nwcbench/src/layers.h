// Per-layer measurements of the traced run. Each layer is timed from the
// outside, by calling its public functions on the workload's own tree and
// inputs: the engines (core/grid/rtree spans and counters), storage and
// publish costs, the SIMD kernels and the wire codecs.
#ifndef NWCBENCH_LAYERS_H_
#define NWCBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.h"
#include "driver.h"
#include "service/session.h"
#include "workload.h"

namespace nwcbench {

/// Single-threaded Execute replay of `items` (NWC* on the session), three
/// ways per query: untraced, with an armed 1 s deadline, and with an armed
/// QueryTrace. Sets the core.*, grid.dep/pruned*, rtree.iwp_probe_us,
/// rtree.window_reads_per_query and obs.engine_trace_tax_frac metrics.
/// Returns the number of queries that did not complete OK.
size_t MeasureEngine(const nwc::Session& session, const Streams& streams,
                     const std::vector<uint32_t>& items, SpanRecorder* spans,
                     MetricSheet* sheet);

/// µs per root-based R*-tree window query (rtree.window_query_us) over
/// the l x w windows with each of `items`' query points at a corner: the
/// windows NWC/NWC+ verify around an object. (Under NWC* the engine's own
/// window queries all run as IWP probes.)
void MeasureWindowQueries(const nwc::RStarTree& tree, const Streams& streams,
                          const std::vector<uint32_t>& items, SpanRecorder* spans,
                          MetricSheet* sheet);

/// Times RStarTree::Clone, IwpIndex::Build and the density-grid copy on the
/// session, then replays `batches` update batches starting at
/// `first_batch` through SnapshotStore::ApplyAndPublish on a store opened
/// over a clone of the tree (IWP staleness 0, as served). Returns the
/// number of publishes that did not apply cleanly.
size_t MeasureStorage(const nwc::Session& session, const Streams& streams, size_t first_batch,
                      size_t batches, SpanRecorder* spans, MetricSheet* sheet);

/// ns per element of the four simd:: kernels over the tree's SoA leaves
/// (count/collect/distance) and child-MBR arrays (MINDIST).
void MeasureKernels(const nwc::RStarTree& tree, const Streams& streams, SpanRecorder* spans,
                    MetricSheet* sheet);

/// ns per frame of the wire.h encoders and decoders over the requests and
/// responses of `records` [first, last).
void MeasureWireCodecs(const Streams& streams, const RequestLog& records,
                       size_t first, size_t last, SpanRecorder* spans, MetricSheet* sheet);

}  // namespace nwcbench

#endif  // NWCBENCH_LAYERS_H_
