// nwc_load — open-loop load generator for `nwc_tool serve`.
//
//   nwc_load --port=PORT [--host=127.0.0.1] [--qps=1000] [--connections=4]
//            [--pipeline=32] [--duration=2] [--deadline-us=0]
//            [--queries=F.txt | --synthetic=N] [--seed=1]
//            [--scheme=<plain|srr|dip|dep|iwp|plus|star>]
//            [--measure=<min|max|avg|nearest>] [--trace]
//
// Holds the target arrival rate regardless of server speed (open loop):
// request i is due at start + i/qps and its latency is measured from that
// due time, so server-side queueing is charged to the server rather than
// silently thinning the arrival stream (no coordinated omission). Requests
// fan out over --connections pipelined connections with at most --pipeline
// in flight each.
//
// The workload is either a query file in the serve-batch format
// ("nwc X Y L W N" / "knwc X Y L W N K M" lines) cycled round-robin, or —
// with --synthetic=N — N deterministic queries over the normalized data
// space, 80% of them aimed at a central hotspot covering 20% of each axis
// (the classic skew rule), every eighth one a kNWC query.
//
// Without --scheme/--measure requests carry no option override and run
// under the server's default preset. Exit code 0 when every request was
// answered (typed error responses included), 1 otherwise; an unknown flag
// fails the run before any request is sent.
//
// --trace sets the envelope trace bit on every request: the server
// annotates each response with its pipeline timestamps and the report
// gains a second line splitting latency into network, server-queue, and
// execute components — the fastest way to tell whether a p99 regression
// is queueing or query work (see EXPERIMENTS.md).
//
// Prints achieved QPS and p50/p95/p99/max latency (linear-interpolated
// quantiles over the full sample); see EXPERIMENTS.md for the
// server-path benchmark recipe built on this tool.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "datasets/dataset.h"
#include "net/load_gen.h"
#include "service/workload.h"

#include "cli_args.h"

namespace nwc {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// The --scheme/--measure override, or none when neither flag is given.
Result<std::optional<NwcOptions>> ParseOptionOverride(const Args& args) {
  if (!args.Has("scheme") && !args.Has("measure")) return std::optional<NwcOptions>{};
  Result<NwcOptions> options = ParseSchemeFlags(args);
  if (!options.ok()) return options.status();
  return std::optional<NwcOptions>{*options};
}

int Run(int argc, char** argv) {
  const Args args(argc, argv, 1,
                  {{"port", "host", "qps", "connections", "pipeline", "duration", "deadline-us",
                    "queries", "synthetic", "seed", "scheme", "measure", "trace"}});
  if (!args.status().ok()) return Fail(args.status().message());
  if (!args.Has("port")) {
    std::fprintf(stderr,
                 "usage: nwc_load --port=PORT [--host=H] [--qps=N] [--connections=N]\n"
                 "                [--pipeline=N] [--duration=SECONDS] [--deadline-us=N]\n"
                 "                [--queries=F.txt | --synthetic=N] [--seed=S]\n"
                 "                [--scheme=...] [--measure=...] [--trace]\n"
                 "see the header of tools/nwc_load.cc for the full reference\n");
    return 2;
  }

  LoadGenConfig config;
  config.host = args.Get("host", "127.0.0.1");
  config.port = static_cast<uint16_t>(args.GetLong("port", 0));
  config.target_qps = args.GetDouble("qps", 1000.0);
  config.connections = static_cast<size_t>(args.GetLong("connections", 4));
  config.pipeline_depth = static_cast<size_t>(args.GetLong("pipeline", 32));
  config.duration_seconds = args.GetDouble("duration", 2.0);
  config.deadline_micros = static_cast<uint64_t>(args.GetLong("deadline-us", 0));
  config.trace = args.Has("trace");
  Result<std::optional<NwcOptions>> options = ParseOptionOverride(args);
  if (!options.ok()) return Fail(options.status().ToString());
  config.options = *options;

  std::vector<WorkloadEntry> workload;
  if (args.Has("queries")) {
    Result<std::vector<WorkloadEntry>> loaded = LoadWorkloadFile(args.Get("queries"));
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    workload = std::move(loaded).value();
  } else {
    workload = MakeSkewedWorkload(static_cast<size_t>(args.GetLong("synthetic", 256)),
                                  static_cast<uint64_t>(args.GetLong("seed", 1)),
                                  NormalizedSpace());
  }

  std::printf("nwc_load: %s:%u, %.0f q/s target, %zu connection(s) x depth %zu, %.1f s, "
              "%zu-query workload%s\n",
              config.host.c_str(), static_cast<unsigned>(config.port), config.target_qps,
              config.connections, config.pipeline_depth, config.duration_seconds,
              workload.size(), config.trace ? ", traced" : "");
  Result<LoadGenReport> report = RunLoadGen(config, workload);
  if (!report.ok()) return Fail(report.status().ToString());
  std::printf("%s", report->ToString().c_str());
  return report->lost == 0 && report->received == report->sent ? 0 : 1;
}

}  // namespace
}  // namespace nwc

int main(int argc, char** argv) { return nwc::Run(argc, argv); }
