// nwc_bench: serves the index the way `nwc_tool serve` does — an
// in-process NetServer over one QueryService (NWC* default scheme, 64 MiB
// result cache, 2 workers) — and drives one workload over loopback from
// this process: event loop + 2 workers + 1 generator thread.
//
//   nwc_bench --workload ca_mixed|ca_churn --seed N --seconds S
//             --trace 0|1 [--spans FILE]
//
// --trace 0 prints the end-to-end metrics: set-up time, the server's CPU
// time per answered query at capacity (closed loop), update latency, the
// share of requests answered correctly and peak RSS. --trace 1 runs
// the same workload with the trace bit on every request and prints the
// per-layer metrics, measured by timing calls into each layer's public
// functions; its spans are written to --spans when the run ends.
//
// Every answer is checked. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "driver.h"
#include "layers.h"
#include "net/server.h"
#include "rtree/bulk_load.h"
#include "service/query_service.h"
#include "service/session.h"
#include "service/snapshot.h"
#include "simd/kernels.h"
#include "verify.h"
#include "workload.h"

namespace nwcbench {
namespace {

constexpr size_t kWorkers = 2;
constexpr size_t kCacheBytes = size_t{64} << 20;
constexpr size_t kQueryConnections = 2;
/// Open-loop in-flight cap per connection; a backlog past the total cap
/// at the end of the window marks the run invalid.
constexpr size_t kInFlightCap = 64;
/// Requests outstanding in the closed-loop capacity leg.
constexpr size_t kOutstanding = 8;
/// Timed set-ups in each round's tail window.
constexpr size_t kSetupRepsPerRound = 2;
constexpr size_t kWarmupRequests = 256;
/// Sizes the capacity legs' inputs: above any closed-loop rate of 2
/// workers on this data.
constexpr double kMaxCapacityQps = 4000.0;
/// The timed legs run as this many rounds, so that a slow spell of the host
/// touches every kind of leg alike.
constexpr size_t kRounds = 20;
/// Shares of a round: the capacity leg and the tail window (timed set-ups,
/// then on the static workloads the update probe). The open-loop leg takes
/// the rest.
constexpr double kCapacityShare = 0.4;
constexpr double kTailShare = 0.25;
/// Update-frame rate of the static workloads' probe (as on ca_churn).
constexpr double kProbeUpdateQps = 10.0;
/// A generator whose median send lateness exceeds this fell behind.
constexpr double kMaxLateP50Us = 1000.0;
constexpr size_t kReferenceNwc = 40;
constexpr size_t kReferenceKnwc = 12;
constexpr size_t kReplayQueries = 256;
constexpr size_t kPublishReplay = 16;
constexpr double kDrainSeconds = 20.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && FindWorkload(args->workload) != nullptr && args->seconds > 0.0;
}

nwc::ServiceConfig ServedConfig() {
  nwc::ServiceConfig config;
  config.num_threads = kWorkers;
  config.result_cache_bytes = kCacheBytes;
  config.default_options = nwc::NwcOptions::Star();
  return config;
}

/// The served stack; members are destroyed server first, data last.
struct Served {
  nwc::Dataset dataset;
  std::optional<nwc::Session> session;
  std::unique_ptr<nwc::SnapshotStore> store;
  std::unique_ptr<nwc::QueryService> service;
  std::unique_ptr<nwc::NetServer> server;

  ~Served() {
    if (server != nullptr) {
      server->RequestDrain();
      server->Wait();
    }
  }
};

/// Builds the served stack over `tree` — a Session, or a SnapshotStore when
/// `dynamic` — and starts its server.
nwc::Status Serve(nwc::RStarTree tree, bool dynamic, Served* served) {
  if (dynamic) {
    nwc::Result<std::unique_ptr<nwc::SnapshotStore>> store =
        nwc::SnapshotStore::Open(std::move(tree), nwc::SnapshotStore::Config{});
    if (!store.ok()) return store.status();
    served->store = std::move(*store);
    served->service = std::make_unique<nwc::QueryService>(*served->store, ServedConfig());
  } else {
    nwc::Result<nwc::Session> session = nwc::Session::Open(std::move(tree));
    if (!session.ok()) return session.status();
    served->session.emplace(std::move(*session));
    served->service = std::make_unique<nwc::QueryService>(*served->session, ServedConfig());
  }
  nwc::Result<std::unique_ptr<nwc::NetServer>> server =
      nwc::NetServer::Start(*served->service, nwc::NetServerConfig());
  if (!server.ok()) return server.status();
  served->server = std::move(*server);
  return nwc::Status::Ok();
}

/// Data generation through bulk load, IWP and grid (or SnapshotStore::Open)
/// until the server listens: what setup_s times.
nwc::Result<std::unique_ptr<Served>> SetUp(const WorkloadSpec& spec) {
  auto served = std::make_unique<Served>();
  served->dataset = MakeWorkloadDataset();
  const nwc::Status status = Serve(nwc::BulkLoadStr(served->dataset.objects, nwc::RTreeOptions{}),
                                   spec.dynamic, served.get());
  if (!status.ok()) return status;
  return served;
}

/// One timed set-up; its duration is appended to `setup_s`.
nwc::Result<std::unique_ptr<Served>> TimedSetUp(const WorkloadSpec& spec, SpanRecorder* spans,
                                                std::vector<double>* setup_s) {
  const uint64_t start = NowNs();
  nwc::Result<std::unique_ptr<Served>> opened = SetUp(spec);
  const uint64_t end = NowNs();
  if (opened.ok()) {
    setup_s->push_back(static_cast<double>(end - start) / 1e9);
    spans->Record("setup", setup_s->size(), 0, start, end);
  }
  return opened;
}

/// The process's own resident-set high-water mark (VmHWM). Unlike
/// getrusage's ru_maxrss it starts afresh at exec, so the launching
/// process's footprint never shows. 0 when /proc is not mounted.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb / 1024.0;
}

/// Payload bytes of the harness's own data (the data set copy, the
/// generated streams and the request log with its response bodies), before
/// allocator overhead: the part of peak_rss_mb that is not the server's.
double HarnessMb(const nwc::Dataset& dataset, const Streams& streams, const LoadDriver& driver) {
  size_t bytes = dataset.objects.capacity() * sizeof(nwc::DataObject) +
                 streams.catalog.capacity() * sizeof(nwc::Point) +
                 (streams.warmup.capacity() + streams.sequence.capacity()) * sizeof(uint32_t);
  for (const nwc::MutationBatch& batch : streams.updates) {
    bytes += sizeof(batch) + batch.capacity() * sizeof(nwc::Mutation);
  }
  for (const RequestRecord& record : driver.requests()) {
    bytes += sizeof(record) + record.body.capacity();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double UsBetween(uint64_t from_ns, uint64_t to_ns) {
  return to_ns > from_ns ? static_cast<double>(to_ns - from_ns) / 1e3 : 0.0;
}

/// Distinct catalog items of `sequence`, first come first served.
std::vector<uint32_t> FirstDistinct(const std::vector<uint32_t>& sequence, size_t count) {
  std::vector<uint32_t> items;
  std::vector<bool> seen;
  for (const uint32_t item : sequence) {
    if (items.size() >= count) break;
    if (item >= seen.size()) seen.resize(item + 1, false);
    if (seen[item]) continue;
    seen[item] = true;
    items.push_back(item);
  }
  return items;
}

/// The static workloads' write path: a dynamic server over a clone of the
/// served tree and one connection sending it update frames.
struct UpdateProbe {
  Served served;
  std::unique_ptr<LoadDriver> driver;  // closed before the server drains
};

nwc::Result<std::unique_ptr<UpdateProbe>> StartUpdateProbe(const nwc::RStarTree& tree,
                                                           const Streams& streams) {
  auto probe = std::make_unique<UpdateProbe>();
  const nwc::Status status = Serve(tree.Clone(), true, &probe->served);
  if (!status.ok()) return status;
  nwc::Result<std::unique_ptr<LoadDriver>> driver =
      LoadDriver::Connect(probe->served.server->port(), streams, 0, 0, true);
  if (!driver.ok()) return driver.status();
  probe->driver = std::move(*driver);
  return probe;
}

/// One repetition of the timed legs. The end-to-end figures pool every
/// round; the traced run's client latencies are medians over rounds.
struct Round {
  /// The round's open-loop leg and, on ca_churn, the one that fills its
  /// tail window.
  std::vector<LegStats> open;
  LegStats capacity;
  bool capacity_traced = false;
  /// The round's update frames, as [begin, end) ranges: on ca_churn those
  /// sent beside its queries, on the static workloads its share of the
  /// update probe.
  std::vector<std::pair<size_t, size_t>> updates;
};

void PrintLeg(const char* name, size_t round, const LegStats& leg) {
  std::printf("round %zu %-9s %.3f s: sent %zu, completed in window %zu, backlog %zu, "
              "due unsent %zu%s\n",
              round, name, leg.seconds(), leg.queries_sent, leg.completed_in_window,
              leg.backlog_at_end, leg.due_unsent, leg.ran_out_of_inputs ? ", inputs ran out" : "");
}

/// Median over rounds of `per_round(round)`.
template <typename Fn>
double MedianOverRounds(const std::vector<Round>& rounds, Fn per_round) {
  std::vector<double> values;
  for (const Round& round : rounds) values.push_back(per_round(round));
  return Median(std::move(values));
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  SpanRecorder spans(args.trace);
  MetricSheet sheet;

  // The served stack's set-up is the first of the timed ones.
  const double rss_before_setup_mb = PeakRssMb();
  std::vector<double> setup_s;
  nwc::Result<std::unique_ptr<Served>> opened = TimedSetUp(spec, &spans, &setup_s);
  if (!opened.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<Served> served = std::move(*opened);
  const double rss_after_setup_mb = PeakRssMb();

  // The generator sleeps between due times; the default 50 us timer slack
  // would show up as lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const double round_seconds = args.seconds / static_cast<double>(kRounds);
  const double capacity_seconds = round_seconds * kCapacityShare;
  const double tail_seconds = round_seconds * kTailShare;
  const double open_seconds = round_seconds - capacity_seconds - tail_seconds;
  // ca_churn's open loop also fills most of the tail windows.
  const size_t open_requests =
      static_cast<size_t>(spec.query_qps * (open_seconds + tail_seconds) * kRounds * 1.1) + 64;
  const size_t capacity_requests =
      static_cast<size_t>(kMaxCapacityQps * capacity_seconds * static_cast<double>(kRounds));
  const size_t sequence_length =
      std::min(served->dataset.size() - kWarmupRequests, open_requests + capacity_requests);
  const size_t update_batches =
      static_cast<size_t>(std::ceil(kProbeUpdateQps * (args.seconds + 5.0))) + kPublishReplay +
      16;
  const Streams streams =
      MakeStreams(served->dataset, args.seed, kWarmupRequests, sequence_length, update_batches);

  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("workload %s, seed %llu, %.1f s (trace %d)\n", spec.name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("inputs: %zu objects, %zu distinct queries, %zu warm-up + %zu timed requests, "
              "%zu update batches; stream hash %016llx\n",
              served->dataset.size(), streams.catalog.size(), streams.warmup.size(),
              streams.sequence.size(), streams.updates.size(),
              static_cast<unsigned long long>(streams.hash));
  std::printf("simd kernels %s, nproc %ld, %zu workers, cache %zu MiB\n",
              nwc::simd::ActiveKernelName(), nproc, kWorkers, kCacheBytes >> 20);

  nwc::Result<std::unique_ptr<LoadDriver>> connected =
      LoadDriver::Connect(served->server->port(), streams, spec.deadline_us, kQueryConnections,
                          spec.dynamic);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", connected.status().ToString().c_str());
    return 1;
  }
  LoadDriver& driver = **connected;

  // Warm-up (untimed).
  size_t warm_cursor = 0;
  driver.RunClosedLoop(Leg::kWarmup, streams.warmup, &warm_cursor, kOutstanding, 0.0, 0.0,
                       false);
  driver.Drain(kDrainSeconds);

  // The timed rounds: open loop, then closed-loop capacity (traced on odd
  // rounds of the traced run, pricing the trace bit).
  size_t cursor = 0;
  std::vector<Round> rounds(kRounds);
  for (size_t r = 0; r < kRounds; ++r) {
    Round& round = rounds[r];
    const size_t updates_begin = driver.updates_sent();
    round.open.push_back(driver.RunOpenLoop(Leg::kOpen, streams.sequence, &cursor,
                                            spec.query_qps, spec.update_batches_qps,
                                            open_seconds, args.trace, kInFlightCap));
    driver.Drain(kDrainSeconds);
    PrintLeg("open", r, round.open.back());
    round.capacity_traced = args.trace && r % 2 == 1;
    round.capacity =
        driver.RunClosedLoop(Leg::kCapacity, streams.sequence, &cursor, kOutstanding,
                             spec.update_batches_qps, capacity_seconds, round.capacity_traced);
    driver.Drain(kDrainSeconds);
    PrintLeg(round.capacity_traced ? "cap-trace" : "capacity", r, round.capacity);
    round.updates.emplace_back(updates_begin, driver.updates_sent());
  }

  // Peak RSS is sampled here, while only the served stack has been built:
  // before the update probe starts a second stack and before the checks
  // build their own structures.
  const double peak_rss_mb = PeakRssMb();
  std::printf("rss high-water: %.1f MB before set-up, %.1f MB after it, %.1f MB after the "
              "timed rounds, of which harness data %.1f MB\n",
              rss_before_setup_mb, rss_after_setup_mb, peak_rss_mb,
              HarnessMb(served->dataset, streams, driver));

  // The rounds' tail windows, after that sample. Each times set-ups of a
  // stack that is torn down again: spread over a quarter of the run, their
  // fastest is steady where a burst of set-ups at start-up caught whatever
  // speed the shared host had in that half second. On the static
  // workloads the rest of the window carries the update probe (their write
  // path); ca_churn goes on with its reads and writes.
  std::unique_ptr<UpdateProbe> probe;
  if (!spec.dynamic) {
    nwc::Result<std::unique_ptr<UpdateProbe>> started =
        StartUpdateProbe(served->session->tree(), streams);
    if (!started.ok()) {
      std::fprintf(stderr, "update probe failed: %s\n", started.status().ToString().c_str());
      return 1;
    }
    probe = std::move(*started);
  }
  LoadDriver& update_driver = probe != nullptr ? *probe->driver : driver;
  for (size_t r = 0; r < kRounds; ++r) {
    Round& round = rounds[r];
    const uint64_t window_end = NowNs() + static_cast<uint64_t>(tail_seconds * 1e9);
    for (size_t rep = 0; rep < kSetupRepsPerRound; ++rep) {
      const nwc::Result<std::unique_ptr<Served>> timed = TimedSetUp(spec, &spans, &setup_s);
      if (!timed.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n", timed.status().ToString().c_str());
        return 1;
      }
    }
    // The rest of the window, but room for one update frame even when the
    // set-ups overran it (very short runs).
    const uint64_t now = NowNs();
    const double left = std::max(
        window_end > now ? static_cast<double>(window_end - now) / 1e9 : 0.0,
        1.0 / kProbeUpdateQps);
    const size_t updates_begin = update_driver.updates_sent();
    if (probe != nullptr) {
      probe->driver->RunUpdates(kProbeUpdateQps, left);
      probe->driver->Drain(kDrainSeconds);
    } else {
      round.open.push_back(driver.RunOpenLoop(Leg::kOpen, streams.sequence, &cursor,
                                              spec.query_qps, spec.update_batches_qps, left,
                                              args.trace, kInFlightCap));
      driver.Drain(kDrainSeconds);
      PrintLeg("open-tail", r, round.open.back());
    }
    round.updates.emplace_back(updates_begin, update_driver.updates_sent());
  }
  std::printf("set-up: %zu timed, min %.4f / median %.4f / max %.4f s\n", setup_s.size(),
              Quantile(setup_s, 0.0), Median(setup_s), Quantile(setup_s, 1.0));

  // Correctness. The served data is quiescent from here on.
  std::vector<nwc::DataObject> universe = served->dataset.objects;
  for (const nwc::MutationBatch& batch : streams.updates) {
    for (const nwc::Mutation& mutation : batch) {
      if (mutation.kind == nwc::Mutation::Kind::kInsert) universe.push_back(mutation.object);
    }
  }
  AnswerChecker checker(streams, universe);
  VerifyReport report;
  if (spec.dynamic) {
    // Ask the first round's first distinct queries again now that no
    // update is in flight, and compare with NWC+ over a tree rebuilt from
    // the final object set.
    const LegStats& first = rounds.front().open.front();
    const std::vector<uint32_t> sample =
        ReferenceSample(driver.requests(), first.first_request,
                        first.first_request + first.queries_sent, kReferenceNwc, kReferenceKnwc);
    size_t recheck_cursor = 0;
    const LegStats recheck = driver.RunClosedLoop(Leg::kRecheck, sample, &recheck_cursor,
                                                  kOutstanding, 0.0, 0.0, false);
    driver.Drain(kDrainSeconds);
    checker.CheckRequests(driver.requests(), 0, driver.requests().size(), &report);
    checker.CheckUpdates(driver.updates(), &report);
    const std::vector<nwc::DataObject> final_objects =
        LiveObjectsAfter(served->dataset.objects, streams.updates, driver.updates_sent());
    const nwc::RStarTree rebuilt = nwc::BulkLoadStr(final_objects, nwc::RTreeOptions{});
    checker.CompareWithReference(driver.requests(), recheck.first_request,
                                 driver.requests().size(), sample, rebuilt, &report);
    const nwc::SnapshotStore::SnapshotRef final_snapshot = served->store->Acquire();
    if (final_snapshot.session->tree().size() != final_objects.size() ||
        final_snapshot.epoch != 1 + driver.updates_sent()) {
      ++report.wrong_answers;
      report.Note("served store does not hold the final object set");
    }
  } else {
    const std::vector<uint32_t> sample = ReferenceSample(
        driver.requests(), 0, driver.requests().size(), kReferenceNwc, kReferenceKnwc);
    checker.CheckRequests(driver.requests(), 0, driver.requests().size(), &report);
    checker.CompareWithReference(driver.requests(), 0, driver.requests().size(), sample,
                                 served->session->tree(), &report);
    if (probe != nullptr) checker.CheckUpdates(probe->driver->updates(), &report);
  }
  report.error_responses += driver.protocol_failures();

  // Open-loop honesty: the generator must have kept its schedule and the
  // backlog must not have grown past the in-flight cap.
  std::vector<double> late_us;
  std::vector<double> wire_us;
  std::vector<double> queue_us;
  std::vector<double> exec_us;
  std::vector<std::string> invalid;
  for (const Round& round : rounds) {
    for (const LegStats& open : round.open) {
      if (open.backlog_at_end > kInFlightCap * kQueryConnections) {
        invalid.push_back("backlog grew");
      }
      if (open.due_unsent > 0) invalid.push_back("generator fell behind (requests never sent)");
      if (open.ran_out_of_inputs) invalid.push_back("open-loop inputs ran out");
      for (size_t i = open.first_request; i < open.first_request + open.queries_sent; ++i) {
        const RequestRecord& record = driver.requests()[i];
        late_us.push_back(UsBetween(record.due_ns, record.sent_ns));
        if (record.recv_ns == 0 || !record.has_timing) continue;
        const nwc::ServerTiming& t = record.timing;
        const double wall = UsBetween(record.sent_ns, record.recv_ns);
        wire_us.push_back(std::max(0.0, wall - static_cast<double>(t.flush_us)));
        queue_us.push_back(
            static_cast<double>(t.dequeue_us - std::min(t.dequeue_us, t.enqueue_us)));
        exec_us.push_back(
            static_cast<double>(t.execute_us - std::min(t.execute_us, t.dequeue_us)));
      }
    }
  }
  const double late_p99 = Quantile(late_us, 0.99);
  if (Quantile(late_us, 0.5) > kMaxLateP50Us) {
    invalid.push_back("generator fell behind (median lateness)");
  }
  std::printf("open loop: generator late p50 %.1f / p99 %.1f / max %.1f us; %s\n",
              Quantile(late_us, 0.5), late_p99, Quantile(late_us, 1.0),
              invalid.empty() ? "valid" : "INVALID");
  for (const std::string& why : invalid) std::printf("invalid: %s\n", why.c_str());

  for (size_t i = 0; i < driver.requests().size(); ++i) {
    const RequestRecord& record = driver.requests()[i];
    spans.Record(record.knwc ? "request.knwc" : "request.nwc", i + 1, 0, record.sent_ns,
                 std::max(record.sent_ns, record.recv_ns));
  }
  for (const UpdateRecord& record : driver.updates()) {
    spans.Record("request.update", record.batch + 1, 0, record.sent_ns,
                 std::max(record.sent_ns, record.recv_ns));
  }

  // Per-round quantiles of the open-loop latencies from the due time and
  // of the update acknowledgements.
  const auto latency = [&](const Round& round, bool knwc, double q) {
    std::vector<double> values;
    for (const LegStats& open : round.open) {
      for (size_t i = open.first_request; i < open.first_request + open.queries_sent; ++i) {
        const RequestRecord& record = driver.requests()[i];
        if (record.recv_ns != 0 && record.knwc == knwc) {
          values.push_back(UsBetween(record.due_ns, record.recv_ns));
        }
      }
    }
    return Quantile(std::move(values), q);
  };
  const auto add_update_latencies = [&](const Round& round, std::vector<double>* values) {
    for (const auto& [begin, end] : round.updates) {
      for (size_t i = begin; i < end; ++i) {
        const UpdateRecord& record = update_driver.updates()[i];
        if (record.recv_ns != 0) values->push_back(UsBetween(record.sent_ns, record.recv_ns));
      }
    }
  };
  const auto update_latency = [&](const Round& round, double q) {
    std::vector<double> values;
    add_update_latencies(round, &values);
    return Quantile(std::move(values), q);
  };

  // Capacity from the clock, and the server's CPU time per answered query
  // over the same closed-loop legs: other tenants of the host that take
  // CPUs away lower the first but hardly move the second.
  std::vector<double> plain_qps;
  std::vector<double> traced_qps;
  double server_cpu_us = 0.0;
  double answered = 0.0;
  for (const Round& round : rounds) {
    (round.capacity_traced ? traced_qps : plain_qps)
        .push_back(static_cast<double>(round.capacity.completed_in_window) /
                   round.capacity.seconds());
    server_cpu_us += static_cast<double>(round.capacity.server_cpu_ns) / 1e3;
    answered += static_cast<double>(round.capacity.completed_in_window);
  }
  const double plain = Median(plain_qps);
  const double cpu_us_per_query = answered > 0.0 ? server_cpu_us / answered : 0.0;
  std::printf("capacity: median %.1f q/s over %zu untraced rounds; server CPU %.1f us per "
              "answered query\n",
              plain, plain_qps.size(), cpu_us_per_query);

  if (!args.trace) {
    sheet.Set("setup_s", Quantile(setup_s, 0.0), "s");
    sheet.Set("cpu_us_per_query", cpu_us_per_query, "us");
    // Pooled over the whole run: steadier than a median of per-round
    // medians of a few frames each.
    std::vector<double> update_us;
    for (const Round& round : rounds) add_update_latencies(round, &update_us);
    sheet.Set("update_p50_us", Median(std::move(update_us)), "us");
  } else {
    const nwc::NetMetricsSnapshot net = served->server->SnapshotNetMetrics();
    const nwc::MetricsSnapshot service = served->service->SnapshotMetrics();
    sheet.Set("net.wire_p50_us", Quantile(wire_us, 0.50), "us");
    sheet.Set("net.wire_p99_us", Quantile(wire_us, 0.99), "us");
    sheet.Set("net.backpressure_pauses", static_cast<double>(net.backpressure_pauses), "count");
    sheet.Set("net.protocol_errors", static_cast<double>(net.protocol_errors_total()), "count");
    sheet.Set("net.loadgen_late_p99_us", late_p99, "us");
    sheet.Set("service.queue_p50_us", Quantile(queue_us, 0.50), "us");
    sheet.Set("service.queue_p99_us", Quantile(queue_us, 0.99), "us");
    sheet.Set("service.exec_p50_us", Quantile(exec_us, 0.50), "us");
    sheet.Set("service.exec_p99_us", Quantile(exec_us, 0.99), "us");
    sheet.Set("service.max_queue_depth", static_cast<double>(service.max_queue_depth), "count");
    sheet.Set("service.shed", static_cast<double>(service.shed), "count");
    sheet.Set("obs.wire_trace_tax_frac", plain > 0.0 ? 1.0 - Median(traced_qps) / plain : 0.0,
              "frac");
    // Client-observed capacity and latencies (latencies as medians over
    // rounds of each round's quantile): too unsteady between runs on a
    // shared host to carry a bound.
    sheet.Set("client.capacity_qps", plain, "1/s");
    sheet.Set("client.nwc_p50_us",
              MedianOverRounds(rounds, [&](const Round& r) { return latency(r, false, 0.50); }),
              "us");
    sheet.Set("client.nwc_p99_us",
              MedianOverRounds(rounds, [&](const Round& r) { return latency(r, false, 0.99); }),
              "us");
    sheet.Set("client.knwc_p50_us",
              MedianOverRounds(rounds, [&](const Round& r) { return latency(r, true, 0.50); }),
              "us");
    sheet.Set("client.knwc_p99_us",
              MedianOverRounds(rounds, [&](const Round& r) { return latency(r, true, 0.99); }),
              "us");
    sheet.Set("client.update_p99_us",
              MedianOverRounds(rounds, [&](const Round& r) { return update_latency(r, 0.99); }),
              "us");
    MeasureWireCodecs(streams, driver.requests(), 0, driver.requests().size(), &spans, &sheet);

    // In-process layers, on the stack the server ended on.
    nwc::SnapshotStore::SnapshotRef snapshot;
    if (spec.dynamic) snapshot = served->store->Acquire();
    const nwc::Session& session = spec.dynamic ? *snapshot.session : *served->session;
    const std::vector<uint32_t> replay = FirstDistinct(streams.sequence, kReplayQueries);
    const size_t replay_failures = MeasureEngine(session, streams, replay, &spans, &sheet);
    MeasureWindowQueries(session.tree(), streams, replay, &spans, &sheet);
    const size_t first_batch = spec.dynamic ? driver.updates_sent() : 0;
    const size_t publish_failures =
        MeasureStorage(session, streams, first_batch, kPublishReplay, &spans, &sheet);
    MeasureKernels(session.tree(), streams, &spans, &sheet);
    if (replay_failures + publish_failures > 0) {
      report.wrong_answers += replay_failures + publish_failures;
      report.Note("in-process replay or publish failed");
    }
  }

  if (!args.trace) {
    const double ok_frac =
        report.attempted == 0
            ? 0.0
            : 1.0 - static_cast<double>(report.failed()) / static_cast<double>(report.attempted);
    sheet.Set("ok_frac", ok_frac, "frac");
    sheet.Set("peak_rss_mb", peak_rss_mb, "MB");
  }
  if (args.trace && !args.spans_path.empty()) {
    if (spans.WriteJsonl(args.spans_path)) {
      std::printf("%zu spans written to %s\n", spans.size(), args.spans_path.c_str());
    } else {
      std::fprintf(stderr, "could not write spans to %s\n", args.spans_path.c_str());
    }
  }

  std::printf("checked %zu requests/updates: %zu error responses, %zu lost, %zu wrong, "
              "%zu update failures; %zu compared bit-exactly with NWC+\n",
              report.attempted, report.error_responses, report.lost, report.wrong_answers,
              report.update_failures, report.reference_compared);
  for (const std::string& example : report.examples) std::printf("  %s\n", example.c_str());
  const bool correct = report.failed() == 0 && invalid.empty() && report.reference_compared > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", report.attempted, report.failed(),
              sheet.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace nwcbench

int main(int argc, char** argv) {
  nwcbench::Args args;
  if (!nwcbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nwc_bench --workload <%s> --seed N --seconds S --trace 0|1 "
                 "[--spans FILE]\n",
                 nwcbench::WorkloadNames().c_str());
    return 2;
  }
  return nwcbench::Run(args);
}
