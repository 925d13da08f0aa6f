#include "layers.h"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <optional>

#include "common/cancel.h"
#include "core/knwc_engine.h"
#include "core/nwc_engine.h"
#include "grid/density_grid.h"
#include "net/wire.h"
#include "obs/query_trace.h"
#include "rtree/iwp_index.h"
#include "rtree/queries.h"
#include "service/snapshot.h"
#include "simd/kernels.h"

namespace nwcbench {

namespace {

using nwc::SpanKind;
using nwc::TraceCounter;

// Repetitions of the whole-structure timings; the median is reported.
constexpr size_t kStructureReps = 3;
constexpr size_t kKernelPasses = 5;
constexpr size_t kWindowPasses = 5;
constexpr size_t kCodecPasses = 5;
constexpr size_t kMaxCodecFrames = 4096;
// The engine replay repeats until both bounds are met; each query keeps
// its fastest time per variant.
constexpr size_t kMinEnginePasses = 2;
constexpr size_t kMaxEnginePasses = 8;
constexpr uint64_t kEngineBudgetNs = 2'000'000'000;

volatile uint64_t g_sink = 0;

double Micros(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

double MedianOf(const std::vector<uint64_t>& values) {
  std::vector<double> as_double(values.begin(), values.end());
  return Median(std::move(as_double));
}

double PerQuery(uint64_t total, size_t queries) {
  return queries == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(queries);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Adds each span's self time (duration minus its direct children's) to
// `self_ns`, indexed by SpanKind.
void AddSelfTimes(const nwc::QueryTrace& trace, std::array<uint64_t, 16>* self_ns) {
  const std::vector<nwc::TraceSpan>& spans = trace.spans();
  std::vector<uint64_t> child_ns(spans.size(), 0);
  for (const nwc::TraceSpan& span : spans) {
    if (span.parent != nwc::kNoSpan) child_ns[span.parent] += span.dur_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t self = spans[i].dur_ns > child_ns[i] ? spans[i].dur_ns - child_ns[i] : 0;
    (*self_ns)[static_cast<size_t>(spans[i].kind)] += self;
  }
}

}  // namespace

size_t MeasureEngine(const nwc::Session& session, const Streams& streams,
                     const std::vector<uint32_t>& items, SpanRecorder* spans,
                     MetricSheet* sheet) {
  const nwc::NwcEngine nwc_engine(session.tree(), session.iwp(), session.grid());
  const nwc::KnwcEngine knwc_engine(session.tree(), session.iwp(), session.grid());
  const nwc::NwcOptions star = nwc::NwcOptions::Star();
  enum Variant { kNull = 0, kDeadline = 1, kTraced = 2 };
  static const char* const kSpanNames[] = {"engine.execute", "engine.execute.deadline",
                                           "engine.execute.traced"};

  const size_t n = items.size();
  std::array<std::vector<uint64_t>, 3> best;
  for (auto& times : best) times.assign(n, std::numeric_limits<uint64_t>::max());
  nwc::IoCounter io_total;
  std::array<uint64_t, 16> self_ns{};
  std::array<uint64_t, nwc::kTraceCounterCount> counters{};
  size_t failures = 0;

  const auto run = [&](size_t j, int variant, bool collect) {
    const QueryItem item = streams.item(items[j]);
    nwc::IoCounter io;
    nwc::QueryControl control;
    nwc::QueryTrace trace;
    if (variant == kDeadline) control.SetTimeout(1'000'000);
    if (variant == kTraced) trace = nwc::QueryTrace::Enabled();
    nwc::QueryTrace* trace_arg = variant == kTraced ? &trace : nullptr;
    nwc::QueryControl* control_arg = variant == kDeadline ? &control : nullptr;
    const uint64_t start = NowNs();
    const bool ok =
        item.knwc
            ? knwc_engine.Execute(item.knwc_query, star, &io, trace_arg, control_arg).ok()
            : nwc_engine.Execute(item.nwc, star, &io, trace_arg, control_arg).ok();
    const uint64_t end = NowNs();
    spans->Record(kSpanNames[variant], j + 1, 0, start, end);
    if (!ok) ++failures;
    best[variant][j] = std::min(best[variant][j], end - start);
    if (!collect) return;
    if (variant == kNull) io_total.Add(io);
    if (variant == kTraced) {
      AddSelfTimes(trace, &self_ns);
      for (size_t c = 0; c < nwc::kTraceCounterCount; ++c) {
        counters[c] += trace.counter(static_cast<TraceCounter>(c));
      }
    }
  };

  const uint64_t replay_start = NowNs();
  for (size_t pass = 0; pass < kMaxEnginePasses; ++pass) {
    if (pass >= kMinEnginePasses && NowNs() - replay_start > kEngineBudgetNs) break;
    for (size_t j = 0; j < n; ++j) {
      // Rotate the variant order so none always runs first (cold) or last.
      for (int v = 0; v < 3; ++v) run(j, static_cast<int>((j + pass + v) % 3), pass == 0);
    }
  }

  std::vector<double> nwc_us;
  std::vector<double> knwc_us;
  std::array<uint64_t, 3> totals{};
  for (size_t j = 0; j < n; ++j) {
    (streams.item(items[j]).knwc ? knwc_us : nwc_us).push_back(Micros(best[kNull][j]));
    for (int v = 0; v < 3; ++v) totals[v] += best[v][j];
  }
  const auto counter = [&](TraceCounter c) { return counters[static_cast<size_t>(c)]; };
  const auto self_us = [&](SpanKind kind) {
    return PerQuery(self_ns[static_cast<size_t>(kind)], n) / 1e3;
  };
  const auto per_query = [&](TraceCounter c) { return PerQuery(counter(c), n); };

  sheet->Set("core.nwc_us", Median(nwc_us), "us");
  sheet->Set("core.knwc_us", Median(knwc_us), "us");
  sheet->Set("core.reads_per_query", PerQuery(io_total.query_total(), n), "reads");
  sheet->Set("core.traversal_reads_per_query", PerQuery(io_total.traversal_reads(), n),
             "reads");
  sheet->Set("core.deadline_tax_frac", Ratio(totals[kDeadline], totals[kNull]) - 1.0, "frac");
  sheet->Set("core.browse_us", self_us(SpanKind::kBrowseNode), "us");
  sheet->Set("core.candidate_us", self_us(SpanKind::kCandidate), "us");
  sheet->Set("core.srr_us", self_us(SpanKind::kSrrCheck), "us");
  sheet->Set("core.dip_us", self_us(SpanKind::kDipCheck), "us");
  sheet->Set("core.overlap_filter_us", self_us(SpanKind::kOverlapFilter), "us");
  sheet->Set("core.objects_browsed", per_query(TraceCounter::kObjectsBrowsed), "count");
  sheet->Set("core.nodes_expanded", per_query(TraceCounter::kNodesExpanded), "count");
  sheet->Set("core.windows_evaluated", per_query(TraceCounter::kWindowsEvaluated), "count");
  sheet->Set("core.window_queries", per_query(TraceCounter::kWindowQueries), "count");
  sheet->Set("core.pruned_srr", per_query(TraceCounter::kPrunedSrr), "count");
  sheet->Set("core.pruned_dip", per_query(TraceCounter::kPrunedDip), "count");
  sheet->Set("core.groups_offered", per_query(TraceCounter::kGroupsOffered), "count");
  sheet->Set("core.groups_dropped_overlap", per_query(TraceCounter::kGroupsDroppedOverlap),
             "count");
  sheet->Set("core.window_query_yield",
             Ratio(counter(TraceCounter::kGroupsOffered), counter(TraceCounter::kWindowQueries)),
             "frac");
  sheet->Set("grid.dep_us", self_us(SpanKind::kDepCheck), "us");
  sheet->Set("grid.pruned_dep_node", per_query(TraceCounter::kPrunedDepNode), "count");
  sheet->Set("grid.pruned_dep_window", per_query(TraceCounter::kPrunedDepWindow), "count");
  sheet->Set("grid.dep_cancel_ratio",
             Ratio(counter(TraceCounter::kPrunedDepWindow),
                   counter(TraceCounter::kPrunedDepWindow) + counter(TraceCounter::kWindowQueries)),
             "frac");
  sheet->Set("rtree.iwp_probe_us", self_us(SpanKind::kIwpProbe), "us");
  sheet->Set("rtree.window_reads_per_query", PerQuery(io_total.window_query_reads(), n),
             "reads");
  sheet->Set("obs.engine_trace_tax_frac", Ratio(totals[kTraced], totals[kNull]) - 1.0, "frac");
  return failures;
}

void MeasureWindowQueries(const nwc::RStarTree& tree, const Streams& streams,
                          const std::vector<uint32_t>& items, SpanRecorder* spans,
                          MetricSheet* sheet) {
  std::vector<nwc::Rect> windows;
  for (const uint32_t item : items) {
    const nwc::Point q = streams.catalog[item];
    for (const double dx : {0.0, -kWindow}) {
      for (const double dy : {0.0, -kWindow}) {
        windows.push_back(nwc::Rect::Window(nwc::Point{q.x + dx, q.y + dy}, kWindow, kWindow));
      }
    }
  }
  std::vector<uint64_t> pass_ns;
  for (size_t pass = 0; pass < kWindowPasses; ++pass) {
    pass_ns.push_back(spans->Time("rtree.window_query", pass + 1, [&] {
      nwc::IoCounter io;
      size_t hits = 0;
      for (const nwc::Rect& window : windows) hits += nwc::WindowQuery(tree, window, &io).size();
      g_sink = g_sink + hits + io.window_query_reads();
    }));
  }
  sheet->Set("rtree.window_query_us",
             MedianOf(pass_ns) / 1e3 / static_cast<double>(std::max<size_t>(windows.size(), 1)),
             "us");
}

size_t MeasureStorage(const nwc::Session& session, const Streams& streams, size_t first_batch,
                      size_t batches, SpanRecorder* spans, MetricSheet* sheet) {
  const nwc::RStarTree& tree = session.tree();
  std::vector<uint64_t> clone_ns;
  std::vector<uint64_t> iwp_ns;
  std::vector<uint64_t> grid_ns;
  for (size_t rep = 0; rep < kStructureReps; ++rep) {
    std::optional<nwc::RStarTree> clone;
    clone_ns.push_back(spans->Time("rtree.clone", rep + 1, [&] { clone.emplace(tree.Clone()); }));
    g_sink = g_sink + clone->size();
    std::optional<nwc::IwpIndex> iwp;
    iwp_ns.push_back(
        spans->Time("rtree.iwp_build", rep + 1, [&] { iwp.emplace(nwc::IwpIndex::Build(tree)); }));
    if (session.grid() != nullptr) {
      std::optional<nwc::DensityGrid> grid;
      grid_ns.push_back(
          spans->Time("grid.copy", rep + 1, [&] { grid.emplace(*session.grid()); }));
      g_sink = g_sink + grid->total_count();
    }
  }
  sheet->Set("rtree.clone_us", MedianOf(clone_ns) / 1e3, "us");
  sheet->Set("rtree.iwp_build_us", MedianOf(iwp_ns) / 1e3, "us");
  sheet->Set("grid.copy_us", MedianOf(grid_ns) / 1e3, "us");

  // The publish replay runs on a store of its own, configured as served.
  nwc::SnapshotStore::Config config;
  config.iwp_staleness_limit = 0;
  nwc::Result<std::unique_ptr<nwc::SnapshotStore>> store =
      nwc::SnapshotStore::Open(tree.Clone(), config);
  std::vector<uint64_t> publish_ns;
  size_t failures = store.ok() ? 0 : 1;
  for (size_t b = first_batch; store.ok() && b < first_batch + batches; ++b) {
    if (b >= streams.updates.size()) break;
    nwc::SnapshotStore::ApplyStats stats;
    nwc::Status status;
    publish_ns.push_back(spans->Time("snapshot.apply_and_publish", b + 1, [&] {
      status = (*store)->ApplyAndPublish(streams.updates[b], &stats, nullptr);
    }));
    if (!status.ok()) ++failures;
  }
  std::vector<double> publish_us;
  for (const uint64_t ns : publish_ns) publish_us.push_back(Micros(ns));
  sheet->Set("service.publish_p50_us", Quantile(publish_us, 0.50), "us");
  sheet->Set("service.publish_p99_us", Quantile(publish_us, 0.99), "us");
  return failures;
}

void MeasureKernels(const nwc::RStarTree& tree, const Streams& streams, SpanRecorder* spans,
                    MetricSheet* sheet) {
  struct Leaf {
    const double* xs;
    const double* ys;
    size_t count;
  };
  std::vector<Leaf> leaves;
  std::vector<const nwc::RTreeNode*> inner;
  std::vector<nwc::NodeId> stack{tree.root()};
  size_t widest = 1;
  size_t leaf_elements = 0;
  size_t inner_elements = 0;
  while (!stack.empty()) {
    const nwc::RTreeNode& node = tree.node(stack.back());
    stack.pop_back();
    if (node.is_leaf()) {
      if (node.objects.empty()) continue;
      leaves.push_back(Leaf{node.objects.xs(), node.objects.ys(), node.objects.size()});
      leaf_elements += node.objects.size();
      widest = std::max(widest, node.objects.size());
    } else {
      inner.push_back(&node);
      inner_elements += node.children.size();
      widest = std::max(widest, node.children.size());
      for (const nwc::ChildEntry& child : node.children) stack.push_back(child.child);
    }
  }
  // One workload-sized window per leaf, anchored so it holds a leaf point,
  // and one workload query point per leaf or inner node.
  std::vector<nwc::Rect> windows;
  std::vector<nwc::Point> points;
  for (size_t i = 0; i < leaves.size(); ++i) {
    const size_t k = i % leaves[i].count;
    windows.push_back(nwc::Rect::Window(
        nwc::Point{leaves[i].xs[k] - kWindow / 2, leaves[i].ys[k] - kWindow / 2}, kWindow,
        kWindow));
  }
  const size_t nodes = std::max(leaves.size(), inner.size());
  for (size_t i = 0; i < nodes; ++i) {
    points.push_back(streams.catalog[i % streams.catalog.size()]);
  }
  std::vector<uint32_t> indices(widest);
  std::vector<double> distances(widest);

  const auto time_kernel = [&](const char* name, size_t elements, const auto& pass_body) {
    std::vector<uint64_t> pass_ns;
    for (size_t pass = 0; pass < kKernelPasses; ++pass) {
      pass_ns.push_back(spans->Time(name, pass + 1, pass_body));
    }
    return MedianOf(pass_ns) / static_cast<double>(std::max<size_t>(elements, 1));
  };
  const double count_ns = time_kernel("simd.count_in_window", leaf_elements, [&] {
    size_t hits = 0;
    for (size_t i = 0; i < leaves.size(); ++i) {
      hits += nwc::simd::CountInWindow(leaves[i].xs, leaves[i].ys, leaves[i].count, windows[i]);
    }
    g_sink = g_sink + hits;
  });
  const double collect_ns = time_kernel("simd.collect_in_window", leaf_elements, [&] {
    size_t hits = 0;
    for (size_t i = 0; i < leaves.size(); ++i) {
      hits += nwc::simd::CollectInWindow(leaves[i].xs, leaves[i].ys, leaves[i].count,
                                         windows[i], indices.data());
    }
    g_sink = g_sink + hits + indices[0];
  });
  const double distance_ns = time_kernel("simd.batch_distance", leaf_elements, [&] {
    double sum = 0.0;
    for (size_t i = 0; i < leaves.size(); ++i) {
      nwc::simd::BatchDistance(points[i], leaves[i].xs, leaves[i].ys, leaves[i].count,
                               distances.data());
      sum += distances[0];
    }
    g_sink = g_sink + static_cast<uint64_t>(sum);
  });
  const double mindist_ns = time_kernel("simd.batch_min_dist", inner_elements, [&] {
    double sum = 0.0;
    for (size_t i = 0; i < inner.size(); ++i) {
      const std::vector<nwc::ChildEntry>& children = inner[i]->children;
      nwc::simd::BatchMinDist(points[i], &children[0].mbr, sizeof(nwc::ChildEntry),
                              children.size(), distances.data());
      sum += distances[0];
    }
    g_sink = g_sink + static_cast<uint64_t>(sum);
  });
  sheet->Set("simd.count_ns_per_elem", count_ns, "ns");
  sheet->Set("simd.collect_ns_per_elem", collect_ns, "ns");
  sheet->Set("simd.distance_ns_per_elem", distance_ns, "ns");
  sheet->Set("simd.mindist_ns_per_elem", mindist_ns, "ns");
}

void MeasureWireCodecs(const Streams& streams, const RequestLog& records,
                       size_t first, size_t last, SpanRecorder* spans, MetricSheet* sheet) {
  struct Frame {
    bool knwc;
    nwc::NwcRequest nwc_request;
    nwc::KnwcRequest knwc_request;
    std::string request_body;
    std::string response_body;
    nwc::NwcResponse nwc_response;
    nwc::KnwcResponse knwc_response;
  };
  std::vector<Frame> frames;
  for (size_t i = first; i < last && frames.size() < kMaxCodecFrames; ++i) {
    const RequestRecord& record = records[i];
    const nwc::MsgType expected =
        record.knwc ? nwc::MsgType::kKnwcResponse : nwc::MsgType::kNwcResponse;
    if (record.recv_ns == 0 || record.type != expected) continue;
    const QueryItem item = streams.item(record.item);
    Frame frame;
    frame.knwc = record.knwc;
    frame.nwc_request = nwc::NwcRequest{item.nwc, std::nullopt, 0};
    frame.knwc_request = nwc::KnwcRequest{item.knwc_query, std::nullopt, 0};
    frame.response_body = record.body;
    if (record.knwc) {
      nwc::EncodeKnwcRequest(frame.knwc_request, &frame.request_body);
      if (!nwc::DecodeKnwcResponse(frame.response_body, &frame.knwc_response).ok()) continue;
    } else {
      nwc::EncodeNwcRequest(frame.nwc_request, &frame.request_body);
      if (!nwc::DecodeNwcResponse(frame.response_body, &frame.nwc_response).ok()) continue;
    }
    frames.push_back(std::move(frame));
  }
  const double per_frame = 1.0 / static_cast<double>(std::max<size_t>(2 * frames.size(), 1));
  std::vector<uint64_t> encode_ns;
  std::vector<uint64_t> decode_ns;
  for (size_t pass = 0; pass < kCodecPasses; ++pass) {
    encode_ns.push_back(spans->Time("wire.encode", pass + 1, [&] {
      size_t bytes = 0;
      for (size_t i = 0; i < frames.size(); ++i) {
        const Frame& frame = frames[i];
        if (frame.knwc) {
          bytes += nwc::EncodeKnwcRequestFrame(i, frame.knwc_request).size();
          bytes += nwc::EncodeKnwcResponseFrame(i, frame.knwc_response).size();
        } else {
          bytes += nwc::EncodeNwcRequestFrame(i, frame.nwc_request).size();
          bytes += nwc::EncodeNwcResponseFrame(i, frame.nwc_response).size();
        }
      }
      g_sink = g_sink + bytes;
    }));
    decode_ns.push_back(spans->Time("wire.decode", pass + 1, [&] {
      size_t ok = 0;
      for (const Frame& frame : frames) {
        if (frame.knwc) {
          nwc::KnwcRequest request;
          nwc::KnwcResponse response;
          ok += nwc::DecodeKnwcRequest(frame.request_body, &request).ok();
          ok += nwc::DecodeKnwcResponse(frame.response_body, &response).ok();
        } else {
          nwc::NwcRequest request;
          nwc::NwcResponse response;
          ok += nwc::DecodeNwcRequest(frame.request_body, &request).ok();
          ok += nwc::DecodeNwcResponse(frame.response_body, &response).ok();
        }
      }
      g_sink = g_sink + ok;
    }));
  }
  sheet->Set("net.encode_ns", MedianOf(encode_ns) * per_frame, "ns");
  sheet->Set("net.decode_ns", MedianOf(decode_ns) * per_frame, "ns");
}

}  // namespace nwcbench
