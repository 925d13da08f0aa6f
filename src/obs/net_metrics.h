#ifndef NWC_OBS_NET_METRICS_H_
#define NWC_OBS_NET_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "service/latency_histogram.h"

namespace nwc {

/// Protocol-error taxonomy for the serving layer. Each undecodable input
/// is charged to exactly one kind, so an operator can tell a broken
/// client (envelope, body) from an abusive one (oversize) at a glance.
/// Values index NetMetricsSnapshot::protocol_errors — never renumber.
enum class NetErrorKind : uint8_t {
  kEnvelope = 0,   ///< bad length field, unknown type tag or flag bits
  kOversize = 1,   ///< frame length above the decoder cap
  kBody = 2,       ///< envelope fine, body undecodable
  kDirection = 3,  ///< a response/error frame sent *to* the server
  kHttp = 4,       ///< unparseable or oversized HTTP request
  kInternal = 5,   ///< handling a request threw (e.g. bad_alloc)
};

inline constexpr size_t kNetErrorKindCount = 6;

/// Stable label value for the Prometheus `kind` label.
const char* NetErrorKindName(NetErrorKind kind);

/// Point-in-time copy of the serving-layer counters (see NetMetrics).
struct NetMetricsSnapshot {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t connections_reaped = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_traced = 0;  ///< received frames with the trace bit set
  uint64_t http_requests = 0;
  uint64_t protocol_errors[kNetErrorKindCount] = {};
  uint64_t backpressure_pauses = 0;
  uint64_t backpressure_paused_micros = 0;
  uint64_t write_queue_high_water = 0;  ///< bytes, worst single connection
  uint64_t eventfd_wakeups = 0;
  /// Microseconds between the read() that completed a frame and its
  /// decode (time spent queued in userspace behind other sockets; for a
  /// connection resuming from a backpressure pause, measured from the
  /// pause start, which covers the kernel-buffered wait too).
  LatencyHistogram socket_wait;

  uint64_t protocol_errors_total() const;

  /// The snapshot as one JSON object (the `/varz` "net" section).
  std::string ToJson() const;
};

/// Counters for the epoll serving layer, one instance per NetServer.
///
/// Every mutator is called from the event-loop thread only; Snapshot()
/// may be called from any thread (tests, the drain path, /varz rendered
/// on the loop itself). One uncontended mutex per event keeps the loop
/// honest under TSan without an atomic per field — the loop already pays
/// a syscall per event, so the lock is noise.
class NetMetrics {
 public:
  void OnAccept();
  void OnClose();
  void OnReap(uint64_t connections);
  void OnBytesRead(uint64_t bytes);
  void OnBytesWritten(uint64_t bytes);
  void OnFrameReceived(bool traced);
  void OnFrameSent();
  void OnHttpRequest();
  void OnProtocolError(NetErrorKind kind);
  void OnBackpressurePause();
  /// Called at resume (or at close while paused) with the paused span.
  void OnBackpressureResume(uint64_t paused_micros);
  /// Records a connection's pending write-buffer size; keeps the max.
  void ObserveWriteQueue(uint64_t bytes);
  void OnEventfdWakeup();
  void ObserveSocketWait(uint64_t micros);

  NetMetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  NetMetricsSnapshot state_;
};

}  // namespace nwc

#endif  // NWC_OBS_NET_METRICS_H_
