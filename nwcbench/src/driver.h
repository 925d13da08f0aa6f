// The load generator: one thread drives every connection to the server
// with non-blocking sockets and one ppoll() loop, in three shapes —
// an open loop on a fixed schedule, a closed loop with a fixed number of
// requests outstanding, and an update-only stream.
#ifndef NWCBENCH_DRIVER_H_
#define NWCBENCH_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include <poll.h>

#include "common/status.h"
#include "net/wire.h"
#include "workload.h"

namespace nwcbench {

enum class Leg : uint8_t { kWarmup, kOpen, kCapacity, kRecheck };

/// One query request and what came back. Times are steady-clock ns;
/// `recv_ns` stays 0 for a request never answered (lost). Every answer is
/// decoded on arrival and its body kept for the checks.
struct RequestRecord {
  uint32_t item = 0;
  Leg leg = Leg::kWarmup;
  bool knwc = false;
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t recv_ns = 0;
  nwc::MsgType type = nwc::MsgType::kError;
  bool ok = false;  ///< an OK answer of the requested kind
  bool has_timing = false;
  nwc::ServerTiming timing;
  std::string body;  ///< response body, ServerTiming removed
};

/// Request records in send order. A deque: appending never moves the
/// records already stored, so the generator never stalls on a copy.
using RequestLog = std::deque<RequestRecord>;

/// One update frame and its acknowledgement.
struct UpdateRecord {
  uint32_t batch = 0;
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t recv_ns = 0;
  nwc::MsgType type = nwc::MsgType::kError;
  std::string body;
};

/// How one timed leg went.
struct LegStats {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  size_t first_request = 0;  ///< index of the leg's first RequestRecord
  size_t queries_sent = 0;
  size_t completed_in_window = 0;
  /// Queries sent but not yet answered when the window closed.
  size_t backlog_at_end = 0;
  /// Queries whose due time fell inside the window but were never sent
  /// (every connection at its in-flight cap): the generator fell behind.
  size_t due_unsent = 0;
  bool ran_out_of_inputs = false;
  /// CPU time of every thread but the generator over the window: what the
  /// server spent (closed-loop legs only).
  uint64_t server_cpu_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

class LoadDriver {
 public:
  /// Opens `query_connections` connections for queries and, when
  /// `update_connection`, one more for update frames.
  static nwc::Result<std::unique_ptr<LoadDriver>> Connect(uint16_t port, const Streams& streams,
                                                          uint64_t deadline_us,
                                                          size_t query_connections,
                                                          bool update_connection);
  ~LoadDriver();
  LoadDriver(const LoadDriver&) = delete;
  LoadDriver& operator=(const LoadDriver&) = delete;

  /// Sends `items[*cursor...]` on a fixed schedule of `qps` (request i due
  /// at start + i/qps) and update batches at `update_qps`, for `seconds`.
  /// At most `in_flight_cap` queries are outstanding per connection.
  LegStats RunOpenLoop(Leg leg, const std::vector<uint32_t>& items, size_t* cursor, double qps,
                       double update_qps, double seconds, bool traced, size_t in_flight_cap);

  /// Keeps `outstanding` queries in flight for `seconds` (0 = until the
  /// items run out), with update batches still due at `update_qps`. The leg
  /// ends early when the items run out.
  LegStats RunClosedLoop(Leg leg, const std::vector<uint32_t>& items, size_t* cursor,
                         size_t outstanding, double update_qps, double seconds, bool traced);

  /// Sends update batches alone, on a fixed schedule of `update_qps`, for
  /// `seconds`.
  void RunUpdates(double update_qps, double seconds);

  /// Waits until nothing is in flight or `timeout_seconds` pass.
  void Drain(double timeout_seconds);

  size_t queries_in_flight() const;
  size_t updates_in_flight() const;
  size_t updates_sent() const { return updates_.size(); }
  /// Frames that matched no request, undecodable streams and connections
  /// lost mid-run.
  size_t protocol_failures() const { return protocol_failures_; }

  RequestLog& requests() { return requests_; }
  const RequestLog& requests() const { return requests_; }
  std::vector<UpdateRecord>& updates() { return updates_; }

 private:
  struct Connection;

  LoadDriver(const Streams& streams, uint64_t deadline_us);

  Connection* PickQueryConnection(size_t cap);
  void SendQuery(Connection* conn, uint32_t item, Leg leg, bool traced, uint64_t due_ns);
  void SendUpdate(uint64_t due_ns);
  /// Sends every update batch due by `now`; returns the next due time.
  uint64_t SendDueUpdates(uint64_t start_ns, double update_qps, size_t* scheduled,
                          uint64_t now, uint64_t end_ns);
  /// Flushes, polls for socket events until `wake_ns` (absolute) and
  /// consumes every complete response frame.
  void Pump(uint64_t wake_ns);
  void OnFrame(Connection* conn, nwc::WireFrame* frame, uint64_t now);

  const Streams& streams_;
  uint64_t deadline_us_;
  std::vector<std::unique_ptr<Connection>> query_conns_;
  std::unique_ptr<Connection> update_conn_;
  size_t round_robin_ = 0;
  RequestLog requests_;
  // Pump's scratch, reused so polling allocates nothing.
  std::vector<Connection*> poll_conns_;
  std::vector<pollfd> poll_fds_;
  std::vector<UpdateRecord> updates_;
  size_t protocol_failures_ = 0;
};

}  // namespace nwcbench

#endif  // NWCBENCH_DRIVER_H_
