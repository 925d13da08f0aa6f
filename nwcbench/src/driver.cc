#include "driver.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <limits>

#include "answer.h"
#include "common.h"

namespace nwcbench {

namespace {

// Update frames carry ids in their own range so one decoder loop can route
// every response by id alone.
constexpr uint64_t kUpdateIdTag = uint64_t{1} << 62;
constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();
// Pump stops sleeping this long before its wake-up time.
constexpr uint64_t kSpinNs = 200'000;

nwc::Result<int> ConnectLoopback(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nwc::Status::IoError(std::string("socket: ") + std::strerror(errno));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const nwc::Status status =
        nwc::Status::IoError(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

uint64_t DueAt(uint64_t start_ns, size_t index, double per_second) {
  return start_ns + static_cast<uint64_t>(std::llround(static_cast<double>(index) * 1e9 /
                                                       per_second));
}

}  // namespace

struct LoadDriver::Connection {
  int fd = -1;
  nwc::FrameDecoder decoder{1u << 24};
  std::string out;
  size_t out_off = 0;
  size_t in_flight = 0;
  bool dead = false;

  size_t pending_out() const { return out.size() - out_off; }

  void Flush() {
    while (!dead && pending_out() > 0) {
      const ssize_t n = ::send(fd, out.data() + out_off, pending_out(), MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      dead = true;
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
  }

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

LoadDriver::LoadDriver(const Streams& streams, uint64_t deadline_us)
    : streams_(streams), deadline_us_(deadline_us) {}

LoadDriver::~LoadDriver() = default;

nwc::Result<std::unique_ptr<LoadDriver>> LoadDriver::Connect(uint16_t port,
                                                             const Streams& streams,
                                                             uint64_t deadline_us,
                                                             size_t query_connections,
                                                             bool update_connection) {
  std::unique_ptr<LoadDriver> driver(new LoadDriver(streams, deadline_us));
  const size_t total = query_connections + (update_connection ? 1 : 0);
  for (size_t i = 0; i < total; ++i) {
    nwc::Result<int> fd = ConnectLoopback(port);
    if (!fd.ok()) return fd.status();
    auto conn = std::make_unique<Connection>();
    conn->fd = *fd;
    if (i < query_connections) {
      driver->query_conns_.push_back(std::move(conn));
    } else {
      driver->update_conn_ = std::move(conn);
    }
  }
  return driver;
}

size_t LoadDriver::queries_in_flight() const {
  size_t total = 0;
  for (const auto& conn : query_conns_) total += conn->dead ? 0 : conn->in_flight;
  return total;
}

size_t LoadDriver::updates_in_flight() const {
  return update_conn_ == nullptr || update_conn_->dead ? 0 : update_conn_->in_flight;
}

LoadDriver::Connection* LoadDriver::PickQueryConnection(size_t cap) {
  for (size_t i = 0; i < query_conns_.size(); ++i) {
    Connection* conn = query_conns_[(round_robin_ + i) % query_conns_.size()].get();
    if (!conn->dead && conn->in_flight < cap) {
      round_robin_ = (round_robin_ + i + 1) % query_conns_.size();
      return conn;
    }
  }
  return nullptr;
}

void LoadDriver::SendQuery(Connection* conn, uint32_t item, Leg leg, bool traced,
                           uint64_t due_ns) {
  const QueryItem query = streams_.item(item);
  const uint64_t id = requests_.size();
  const uint8_t flags = traced ? nwc::kEnvelopeFlagTrace : 0;
  if (query.knwc) {
    conn->out += nwc::EncodeKnwcRequestFrame(
        id, nwc::KnwcRequest{query.knwc_query, std::nullopt, deadline_us_}, flags);
  } else {
    conn->out +=
        nwc::EncodeNwcRequestFrame(id, nwc::NwcRequest{query.nwc, std::nullopt, deadline_us_},
                                   flags);
  }
  RequestRecord record;
  record.item = item;
  record.leg = leg;
  record.knwc = query.knwc;
  record.due_ns = due_ns;
  record.sent_ns = NowNs();
  requests_.push_back(std::move(record));
  ++conn->in_flight;
  conn->Flush();
}

void LoadDriver::SendUpdate(uint64_t due_ns) {
  const uint32_t batch = static_cast<uint32_t>(updates_.size());
  update_conn_->out +=
      nwc::EncodeUpdateRequestFrame(kUpdateIdTag | batch, streams_.updates[batch]);
  UpdateRecord record;
  record.batch = batch;
  record.due_ns = due_ns;
  record.sent_ns = NowNs();
  updates_.push_back(std::move(record));
  ++update_conn_->in_flight;
  update_conn_->Flush();
}

uint64_t LoadDriver::SendDueUpdates(uint64_t start_ns, double update_qps, size_t* scheduled,
                                    uint64_t now, uint64_t end_ns) {
  if (update_qps <= 0.0 || update_conn_ == nullptr || update_conn_->dead) return kNever;
  while (true) {
    if (updates_.size() >= streams_.updates.size()) return kNever;
    const uint64_t due = DueAt(start_ns, *scheduled, update_qps);
    if (due >= end_ns) return kNever;
    if (due > now) return due;
    SendUpdate(due);
    ++*scheduled;
  }
}

void LoadDriver::OnFrame(Connection* conn, nwc::WireFrame* frame, uint64_t now) {
  const uint64_t id = frame->request_id;
  if ((id & kUpdateIdTag) != 0) {
    const uint64_t index = id & ~kUpdateIdTag;
    if (conn != update_conn_.get() || index >= updates_.size() ||
        updates_[index].recv_ns != 0) {
      ++protocol_failures_;
      return;
    }
    UpdateRecord& record = updates_[index];
    record.recv_ns = now;
    record.type = frame->type;
    record.body = std::move(frame->body);
    if (conn->in_flight > 0) --conn->in_flight;
    return;
  }
  if (conn == update_conn_.get() || id >= requests_.size() || requests_[id].recv_ns != 0) {
    // kError frames with id 0 (undecodable request) land here too.
    ++protocol_failures_;
    return;
  }
  RequestRecord& record = requests_[id];
  record.recv_ns = now;
  record.type = frame->type;
  std::string_view body = frame->body;
  if (frame->traced() && nwc::SplitServerTiming(frame->body, &body, &record.timing).ok()) {
    record.has_timing = true;
  }
  record.ok = DecodeAnswer(record.knwc, record.type, body).ok;
  record.body.assign(body);
  if (conn->in_flight > 0) --conn->in_flight;
}

void LoadDriver::Pump(uint64_t wake_ns) {
  std::vector<Connection*>& conns = poll_conns_;
  conns.clear();
  for (auto& conn : query_conns_) conns.push_back(conn.get());
  if (update_conn_ != nullptr) conns.push_back(update_conn_.get());
  std::vector<pollfd>& pfds = poll_fds_;
  pfds.resize(conns.size());
  bool any_alive = false;
  for (size_t i = 0; i < conns.size(); ++i) {
    pfds[i].fd = conns[i]->dead ? -1 : conns[i]->fd;
    pfds[i].events = static_cast<short>(POLLIN | (conns[i]->pending_out() > 0 ? POLLOUT : 0));
    pfds[i].revents = 0;
    any_alive = any_alive || !conns[i]->dead;
  }
  if (!any_alive) return;
  // Sleep until shortly before `wake_ns`, then poll without sleeping for
  // the last stretch, so a late wake-up does not make the next send late.
  while (true) {
    const uint64_t now = NowNs();
    const uint64_t sleep_ns = wake_ns > now + kSpinNs ? wake_ns - now - kSpinNs : 0;
    const uint64_t capped = std::min<uint64_t>(sleep_ns, 50'000'000);
    const timespec timeout{static_cast<time_t>(capped / 1'000'000'000),
                           static_cast<long>(capped % 1'000'000'000)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    if (ready > 0) break;
    if (ready < 0 && errno != EINTR) return;
    if (NowNs() >= wake_ns) return;
  }

  for (size_t i = 0; i < conns.size(); ++i) {
    Connection* conn = conns[i];
    if (conn->dead) continue;
    if ((pfds[i].revents & POLLOUT) != 0) conn->Flush();
    if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    char buffer[64 * 1024];
    while (true) {
      const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        conn->decoder.Append(buffer, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      conn->dead = true;
      break;
    }
    const uint64_t received = NowNs();
    while (true) {
      bool has_frame = false;
      nwc::WireFrame frame;
      if (!conn->decoder.Poll(&has_frame, &frame).ok()) {
        conn->dead = true;
        break;
      }
      if (!has_frame) break;
      OnFrame(conn, &frame, received);
    }
    if (conn->dead) {
      ++protocol_failures_;
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
}

LegStats LoadDriver::RunOpenLoop(Leg leg, const std::vector<uint32_t>& items, size_t* cursor,
                                 double qps, double update_qps, double seconds, bool traced,
                                 size_t in_flight_cap) {
  LegStats stats;
  stats.first_request = requests_.size();
  stats.start_ns = NowNs() + 1'000'000;
  stats.end_ns = stats.start_ns + static_cast<uint64_t>(seconds * 1e9);
  size_t scheduled_queries = 0;
  size_t scheduled_updates = 0;
  while (true) {
    const uint64_t now = NowNs();
    if (now >= stats.end_ns) break;
    uint64_t next_query = kNever;
    while (true) {
      const uint64_t due = DueAt(stats.start_ns, scheduled_queries, qps);
      if (due >= stats.end_ns) break;
      if (due > now) {
        next_query = due;
        break;
      }
      if (*cursor >= items.size()) {
        stats.ran_out_of_inputs = true;
        break;
      }
      Connection* conn = PickQueryConnection(in_flight_cap);
      if (conn == nullptr) {
        // Every pipe is full: wake on the next response instead.
        next_query = now + 1'000'000;
        break;
      }
      SendQuery(conn, items[(*cursor)++], leg, traced, due);
      ++scheduled_queries;
    }
    const uint64_t next_update =
        SendDueUpdates(stats.start_ns, update_qps, &scheduled_updates, now, stats.end_ns);
    Pump(std::min({next_query, next_update, stats.end_ns}));
  }
  // A stall of the generator across the end of the window still sends what
  // fell due before it: late, and charged from its due time.
  while (*cursor < items.size()) {
    const uint64_t due = DueAt(stats.start_ns, scheduled_queries, qps);
    if (due >= stats.end_ns) break;
    Connection* conn = PickQueryConnection(in_flight_cap);
    if (conn == nullptr) break;
    SendQuery(conn, items[(*cursor)++], leg, traced, due);
    ++scheduled_queries;
  }
  stats.backlog_at_end = queries_in_flight();
  stats.queries_sent = requests_.size() - stats.first_request;
  const size_t due_in_window = static_cast<size_t>(
      std::ceil(static_cast<double>(stats.end_ns - stats.start_ns) * qps / 1e9));
  stats.due_unsent = due_in_window > scheduled_queries ? due_in_window - scheduled_queries : 0;
  if (stats.ran_out_of_inputs) stats.due_unsent = 0;
  for (size_t i = stats.first_request; i < requests_.size(); ++i) {
    if (requests_[i].recv_ns != 0 && requests_[i].recv_ns <= stats.end_ns) {
      ++stats.completed_in_window;
    }
  }
  return stats;
}

LegStats LoadDriver::RunClosedLoop(Leg leg, const std::vector<uint32_t>& items, size_t* cursor,
                                   size_t outstanding, double update_qps, double seconds,
                                   bool traced) {
  LegStats stats;
  stats.first_request = requests_.size();
  stats.start_ns = NowNs();
  stats.end_ns = seconds > 0.0 ? stats.start_ns + static_cast<uint64_t>(seconds * 1e9) : kNever;
  const uint64_t cpu_start = ProcessCpuNs() - ThreadCpuNs();
  size_t scheduled_updates = 0;
  const size_t per_connection =
      (outstanding + query_conns_.size() - 1) / std::max<size_t>(query_conns_.size(), 1);
  while (true) {
    const uint64_t now = NowNs();
    if (now >= stats.end_ns) break;
    while (queries_in_flight() < outstanding && *cursor < items.size()) {
      Connection* conn = PickQueryConnection(per_connection);
      if (conn == nullptr) break;
      SendQuery(conn, items[(*cursor)++], leg, traced, NowNs());
    }
    if (*cursor >= items.size()) {
      stats.ran_out_of_inputs = true;
      if (queries_in_flight() == 0) {
        stats.end_ns = NowNs();
        break;
      }
    }
    const uint64_t next_update =
        SendDueUpdates(stats.start_ns, update_qps, &scheduled_updates, now, stats.end_ns);
    Pump(std::min(next_update, stats.end_ns));
  }
  stats.server_cpu_ns = ProcessCpuNs() - ThreadCpuNs() - cpu_start;
  stats.backlog_at_end = queries_in_flight();
  stats.queries_sent = requests_.size() - stats.first_request;
  for (size_t i = stats.first_request; i < requests_.size(); ++i) {
    if (requests_[i].recv_ns != 0 && requests_[i].recv_ns <= stats.end_ns) {
      ++stats.completed_in_window;
    }
  }
  return stats;
}

void LoadDriver::RunUpdates(double update_qps, double seconds) {
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  size_t scheduled = 0;
  for (uint64_t now = start; now < end; now = NowNs()) {
    const uint64_t next = SendDueUpdates(start, update_qps, &scheduled, now, end);
    Pump(std::min(next, end));
  }
}

void LoadDriver::Drain(double timeout_seconds) {
  const uint64_t give_up = NowNs() + static_cast<uint64_t>(timeout_seconds * 1e9);
  while ((queries_in_flight() > 0 || updates_in_flight() > 0) && NowNs() < give_up) {
    Pump(give_up);
  }
}

}  // namespace nwcbench
