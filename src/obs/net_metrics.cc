#include "obs/net_metrics.h"

#include "common/string_util.h"

namespace nwc {

const char* NetErrorKindName(NetErrorKind kind) {
  switch (kind) {
    case NetErrorKind::kEnvelope: return "envelope";
    case NetErrorKind::kOversize: return "oversize";
    case NetErrorKind::kBody: return "body";
    case NetErrorKind::kDirection: return "direction";
    case NetErrorKind::kHttp: return "http";
    case NetErrorKind::kInternal: return "internal";
  }
  return "unknown";
}

uint64_t NetMetricsSnapshot::protocol_errors_total() const {
  uint64_t total = 0;
  for (size_t i = 0; i < kNetErrorKindCount; ++i) total += protocol_errors[i];
  return total;
}

std::string NetMetricsSnapshot::ToJson() const {
  std::string out = "{";
  out += StrFormat(
      "\"connections\":{\"accepted\":%llu,\"closed\":%llu,\"reaped\":%llu},",
      static_cast<unsigned long long>(connections_accepted),
      static_cast<unsigned long long>(connections_closed),
      static_cast<unsigned long long>(connections_reaped));
  out += StrFormat("\"bytes\":{\"read\":%llu,\"written\":%llu},",
                   static_cast<unsigned long long>(bytes_read),
                   static_cast<unsigned long long>(bytes_written));
  out += StrFormat(
      "\"frames\":{\"received\":%llu,\"sent\":%llu,\"traced\":%llu},\"http_requests\":%llu,",
      static_cast<unsigned long long>(frames_received),
      static_cast<unsigned long long>(frames_sent),
      static_cast<unsigned long long>(frames_traced),
      static_cast<unsigned long long>(http_requests));
  out += "\"protocol_errors\":{";
  for (size_t i = 0; i < kNetErrorKindCount; ++i) {
    out += StrFormat("%s\"%s\":%llu", i == 0 ? "" : ",",
                     NetErrorKindName(static_cast<NetErrorKind>(i)),
                     static_cast<unsigned long long>(protocol_errors[i]));
  }
  out += "},";
  out += StrFormat(
      "\"backpressure\":{\"pauses\":%llu,\"paused_micros\":%llu,"
      "\"write_queue_high_water\":%llu},",
      static_cast<unsigned long long>(backpressure_pauses),
      static_cast<unsigned long long>(backpressure_paused_micros),
      static_cast<unsigned long long>(write_queue_high_water));
  out += StrFormat(
      "\"eventfd_wakeups\":%llu,\"socket_wait_us\":{\"count\":%llu,\"p50\":%llu,"
      "\"p99\":%llu,\"max\":%llu}}",
      static_cast<unsigned long long>(eventfd_wakeups),
      static_cast<unsigned long long>(socket_wait.count()),
      static_cast<unsigned long long>(socket_wait.Quantile(0.5)),
      static_cast<unsigned long long>(socket_wait.Quantile(0.99)),
      static_cast<unsigned long long>(socket_wait.max()));
  return out;
}

void NetMetrics::OnAccept() {
  std::lock_guard<std::mutex> lock(mu_);
  ++state_.connections_accepted;
}

void NetMetrics::OnClose() {
  std::lock_guard<std::mutex> lock(mu_);
  ++state_.connections_closed;
}

void NetMetrics::OnReap(uint64_t connections) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.connections_reaped += connections;
}

void NetMetrics::OnBytesRead(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.bytes_read += bytes;
}

void NetMetrics::OnBytesWritten(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.bytes_written += bytes;
}

void NetMetrics::OnFrameReceived(bool traced) {
  std::lock_guard<std::mutex> lock(mu_);
  ++state_.frames_received;
  if (traced) ++state_.frames_traced;
}

void NetMetrics::OnFrameSent() {
  std::lock_guard<std::mutex> lock(mu_);
  ++state_.frames_sent;
}

void NetMetrics::OnHttpRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  ++state_.http_requests;
}

void NetMetrics::OnProtocolError(NetErrorKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  ++state_.protocol_errors[static_cast<size_t>(kind)];
}

void NetMetrics::OnBackpressurePause() {
  std::lock_guard<std::mutex> lock(mu_);
  ++state_.backpressure_pauses;
}

void NetMetrics::OnBackpressureResume(uint64_t paused_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.backpressure_paused_micros += paused_micros;
}

void NetMetrics::ObserveWriteQueue(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes > state_.write_queue_high_water) state_.write_queue_high_water = bytes;
}

void NetMetrics::OnEventfdWakeup() {
  std::lock_guard<std::mutex> lock(mu_);
  ++state_.eventfd_wakeups;
}

void NetMetrics::ObserveSocketWait(uint64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.socket_wait.Record(micros);
}

NetMetricsSnapshot NetMetrics::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

}  // namespace nwc
