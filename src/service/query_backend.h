#ifndef NWC_SERVICE_QUERY_BACKEND_H_
#define NWC_SERVICE_QUERY_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/nwc_types.h"
#include "obs/query_trace.h"
#include "service/latency_histogram.h"
#include "service/service_metrics.h"
#include "service/snapshot.h"

namespace nwc {

/// One NWC request: the query plus an optional per-request option
/// override (scheme + measure); absent means the service default.
/// `deadline_micros` bounds the request's total time from submit (queue
/// wait included); 0 applies the service's default_deadline_micros.
struct NwcRequest {
  NwcQuery query;
  std::optional<NwcOptions> options;
  uint64_t deadline_micros = 0;
};

/// One kNWC request; see NwcRequest.
struct KnwcRequest {
  KnwcQuery query;
  std::optional<NwcOptions> options;
  uint64_t deadline_micros = 0;
};

/// Outcome of one NWC request. `result` is meaningful only when
/// status.ok(); `io` is the query's private counter (also merged into the
/// service metrics), `latency_micros` the wall time inside the worker.
struct NwcResponse {
  Status status;
  NwcResult result;
  uint64_t latency_micros = 0;
  uint64_t traversal_reads = 0;
  uint64_t window_query_reads = 0;
  uint64_t cache_hits = 0;
  /// True when the response was served from the result cache (all read
  /// counters are then 0 — a hit performs no tree I/O).
  bool result_cache_hit = false;
};

/// Outcome of one kNWC request; see NwcResponse.
struct KnwcResponse {
  Status status;
  KnwcResult result;
  uint64_t latency_micros = 0;
  uint64_t traversal_reads = 0;
  uint64_t window_query_reads = 0;
  uint64_t cache_hits = 0;
  bool result_cache_hit = false;
};

/// Outcome of one ApplyUpdate call (dynamic services only). `epoch` is the
/// epoch the mutations were published under; on a static service `status`
/// is FailedPrecondition and everything else is zero. A NotFound status
/// reports delete misses — the other mutations in the batch were still
/// applied and published.
struct UpdateResponse {
  Status status;
  uint64_t epoch = 0;
  uint64_t applied_inserts = 0;
  uint64_t applied_deletes = 0;
  uint64_t delete_misses = 0;
  uint64_t latency_micros = 0;
};

/// Worker-side timestamps for one traced async request: absolute
/// microseconds on the steady clock (SteadyNowMicros()), so a caller on
/// the same host subtracts them from its own marks directly. On the
/// synchronous failure paths (invalid, shed, shutdown) all three carry
/// the same instant — the request never reached the queue.
struct AsyncTiming {
  uint64_t enqueue_us = 0;  ///< accepted into the pool queue
  uint64_t dequeue_us = 0;  ///< a worker picked the job up
  uint64_t finish_us = 0;   ///< response populated, handed to `done`
};

/// What the serving layer needs from a query execution engine — the
/// interface NetServer is written against. QueryService implements it;
/// tests substitute fakes to drive the server's edge cases. Callback-based
/// submits suit the event loop (done may run synchronously on failure
/// paths or on an executor thread otherwise); the metrics accessors feed
/// the /metrics, /varz and /debug/slow admin endpoints.
///
/// ThreadSafety: every member may be called from any thread; `done`
/// callbacks must tolerate any calling context.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  /// `done` is invoked exactly once with the response — possibly
  /// synchronously inside this call when the request is invalid, shed, or
  /// the backend is shut down (typed response statuses, never exceptions).
  virtual void SubmitNwcAsync(NwcRequest request, std::function<void(NwcResponse)> done) = 0;
  virtual void SubmitKnwcAsync(KnwcRequest request, std::function<void(KnwcResponse)> done) = 0;

  /// Traced variants: `done` additionally receives worker-side timestamps
  /// (see AsyncTiming).
  virtual void SubmitNwcAsyncTraced(
      NwcRequest request, std::function<void(NwcResponse, const AsyncTiming&)> done) = 0;
  virtual void SubmitKnwcAsyncTraced(
      KnwcRequest request, std::function<void(KnwcResponse, const AsyncTiming&)> done) = 0;

  /// Applies a mutation batch and publishes the next epoch (synchronous).
  /// Static backends answer FailedPrecondition.
  virtual UpdateResponse ApplyUpdate(const MutationBatch& mutations) = 0;

  /// Aggregated service metrics.
  virtual MetricsSnapshot SnapshotMetrics() const = 0;

  /// The raw latency histogram backing the snapshot's quantiles.
  virtual LatencyHistogram SnapshotLatencyHistogram() const = 0;

  /// Traces retained by the slow-query machinery, oldest first.
  virtual std::vector<std::shared_ptr<const QueryTrace>> SlowTraces() const = 0;
};

}  // namespace nwc

#endif  // NWC_SERVICE_QUERY_BACKEND_H_
