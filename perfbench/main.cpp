// perfbench: the repository benchmark.
//
//   perfbench --workload sweep|record-replay|rack --seed N --seconds S
//             --trace 0|1 [--trace-file PATH]
//
// Builds the benchmark model (set-up), runs the workload, checks its outputs
// and prints two JSON lines on stdout: the host stamp with output digests,
// then the result {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics (untraced); --trace 1 runs the traced
// variant, reports the per-layer metrics and writes the spans as Chrome
// trace-event JSON to --trace-file. See README.md for every metric.
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <thread>

#include "flows.hpp"
#include "nn/simd.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

constexpr const char* kWorkloads[] = {"sweep", "record-replay", "rack"};
/// Length of the latency slice after each pass of a workload's own flow.
constexpr double kSliceSeconds = 0.3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_file = "perfbench-trace.json";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sweep|record-replay|rack --seed N --seconds S --trace 0|1 "
               "[--trace-file PATH]\n",
               why.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0))
        usage("--seconds must be a positive number");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      a.trace = value == "1";
    } else if (key == "--trace-file") {
      a.trace_file = value;
    } else {
      usage("unknown argument " + key);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) usage("unknown workload '" + a.workload + "'");
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (!(a.seconds > 0.0)) usage("--seconds is required");
  return a;
}

/// Host facts a comparison depends on. Numbers from a build that is not an
/// optimized, sanitizer-free Release build are not comparable.
std::string hostStamp(int nproc, bool* comparable) {
  std::string sanitizers;
#if defined(__SANITIZE_ADDRESS__)
  sanitizers += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  sanitizers += "thread ";
#endif
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (flags.find("-fsanitize") != std::string::npos)
    sanitizers += "flags ";
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  *comparable = optimized && sanitizers.empty() && build_type == "Release";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %d, \"simd\": \"%s\", \"build_type\": \"%s\", "
                "\"compiler\": \"%s %s\", \"optimized\": %s, "
                "\"sanitizers\": \"%s\", \"comparable\": %s}",
                nproc, ssm::simdTierName(ssm::activeSimdTier()),
                build_type.c_str(), PERFBENCH_COMPILER_ID,
                PERFBENCH_COMPILER_VERSION, optimized ? "true" : "false",
                sanitizers.c_str(), *comparable ? "true" : "false");
  return buf;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Adds `more` to `into` without overwriting: the workload's own flow is
/// merged first, so its figures win over a one-pass flow's.
void merge(Metrics& into, const Metrics& more) {
  for (const auto& [name, metric] : more) into.emplace(name, metric);
}

/// Runs one step of the run and logs its host time to stderr.
template <typename Body>
void logged(const std::string& name, Body&& body) {
  const Clock::time_point t0 = Clock::now();
  body();
  std::fprintf(stderr, "perfbench: %s took %.2f s\n", name.c_str(),
               secondsSince(t0));
}

/// Layer figures taken from the spans of the whole traced run.
void addSpanMetrics(const Tracer& tracer, Metrics& m) {
  const auto stats = tracer.stats();
  const auto get = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? SpanStats{} : it->second;
  };
  const auto mean = [](double ns, std::int64_t n) {
    return n > 0 ? ns / static_cast<double>(n) : 0.0;
  };
  const SpanStats epoch = get("gpusim.epoch");
  const SpanStats replay = get("engine.replay_epoch");
  const SpanStats decide = get("core.decide");
  const SpanStats loop = get("engine.loop");
  const SpanStats root = get("bench.run");
  m["gpusim.epochs"] = {static_cast<double>(epoch.count), "count"};
  m["gpusim.epoch_us"] = {mean(epoch.self_ns, epoch.count) / 1e3, "us"};
  m["gpusim.epoch_us_p99"] = {quantile(epoch.self_samples_ns, 0.99) / 1e3,
                              "us"};
  m["gpusim.share"] = {epoch.self_ns / loop.total_ns, "ratio"};
  const SpanStats snap = get("gpusim.snapshot");
  m["gpusim.snapshot_us"] = {mean(snap.total_ns, snap.count) / 1e3, "us"};
  m["core.decide_ns"] = {mean(decide.self_ns, decide.count), "ns"};
  m["core.decisions"] = {static_cast<double>(decide.count), "count"};
  m["core.share"] = {decide.self_ns / loop.total_ns, "ratio"};
  m["engine.loop_self_us"] = {
      mean(loop.self_ns, epoch.count + replay.count) / 1e3, "us"};
  const SpanStats enc = get("engine.trace_encode");
  const SpanStats dec = get("engine.trace_decode");
  m["engine.trace_encode_ms"] = {mean(enc.total_ns, enc.count) / 1e6, "ms"};
  m["engine.trace_decode_ms"] = {mean(dec.total_ns, dec.count) / 1e6, "ms"};
  m["engine.replay_epoch_us"] = {mean(replay.self_ns, replay.count) / 1e3,
                                 "us"};
  const SpanStats fork = get("engine.fork");
  m["engine.fork_us"] = {mean(fork.total_ns, fork.count) / 1e3, "us"};

  // Self times of every span sum to the root's duration. Leaving out the
  // untraced reference runs, the program's layers must hold nearly all of
  // it; the benchmark's own checks and glue hold the rest.
  double layers_ns = 0.0;
  for (const auto& [name, st] : stats)
    if (name.rfind("bench.", 0) != 0) layers_ns += st.self_ns;
  m["bench.attributed_pct"] = {
      100.0 * layers_ns /
          (root.total_ns - get("bench.reference").total_ns),
      "%"};
  m["bench.spans"] = {static_cast<double>(tracer.size()), "count"};
}

void printReport(const Args& args, const std::string& host,
                 const std::map<std::string, std::string>& digests,
                 Checks& checks, Metrics metrics) {
  for (auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      checks.op(false, "metric " + name + " is not finite");
      metric.value = 0.0;
    }
  }
  std::string d;
  for (const auto& [name, digest] : digests)
    d += (d.empty() ? "\"" : ", \"") + name + "\": \"" + digest + "\"";
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"host\": %s, \"digests\": {%s}}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, host.c_str(), d.c_str());
  std::string m;
  for (const auto& [name, metric] : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m.empty() ? "" : ", ", name.c_str(), metric.value,
                  metric.unit.c_str());
    m += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              checks.failed() == 0 ? "true" : "false",
              static_cast<long long>(checks.attempted()),
              static_cast<long long>(checks.failed()), m.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  bool comparable = false;
  const std::string host = hostStamp(nproc, &comparable);
  if (!comparable)
    std::fprintf(stderr,
                 "\n*** perfbench: NOT A COMPARABLE BUILD (%s) ***\n"
                 "*** its numbers must not be compared with Release runs ***\n\n",
                 host.c_str());

  Checks checks;
  std::map<std::string, std::string> digests;
  Tracer tracer;
  Env env;
  env.seed = args.seed;
  env.workers = nproc;
  env.checks = &checks;
  env.tracer = args.trace ? &tracer : nullptr;
  env.digests = &digests;

  const bool sweep = args.workload == "sweep";
  const bool rr = args.workload == "record-replay";
  const bool rack = args.workload == "rack";
  Metrics metrics;
  try {
    if (!args.trace) {
      logged("setup", [&] {
        const SetupResult setup = runSetup(env, 3);
        env.model = setup.model;
        merge(metrics, setup.metrics);
      });
      // Every workload records first: the latency slices that follow each
      // pass of the workload's own flow time replay and decide() on these
      // recordings, spread through the run.
      RecordReplayFlow record_replay(env);
      std::optional<SweepFlow> sweep_flow;
      if (sweep) sweep_flow.emplace(env);
      RackFlow rack_flow(env);
      logged("record-replay", [&] {
        record_replay.recordPass();
        record_replay.latencySlice(kSliceSeconds);
      });
      // The workload's own flow fills the measured seconds.
      logged(args.workload, [&] {
        repeatFor(args.seconds, 2, [&](int) {
          if (sweep) sweep_flow->pass();
          if (rr) record_replay.recordPass();
          if (rack) rack_flow.pass();
          record_replay.latencySlice(kSliceSeconds);
        });
      });
      // One rack pass reports the rack metrics in the other workloads.
      if (!rack) logged("rack", [&] { rack_flow.pass(); });
      // The sweep's own figures win over the record-replay flow's.
      if (sweep) merge(metrics, sweep_flow->metrics());
      merge(metrics, record_replay.metrics());
      merge(metrics, rack_flow.metrics());
      metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    } else {
      {
        const Scope root(&tracer, "bench.run");
        logged("setup", [&] {
          const SetupResult setup = runSetup(env, 1);
          env.model = setup.model;
          merge(metrics, setup.metrics);
        });
        logged("sweep", [&] { merge(metrics, sweepPerLayer(env, sweep)); });
        logged("record-replay",
               [&] { merge(metrics, recordReplayPerLayer(env, rr)); });
        logged("rack", [&] { merge(metrics, rackPerLayer(env, rack)); });
      }
      addSpanMetrics(tracer, metrics);
      if (tracer.writeChromeTrace(args.trace_file))
        std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                     tracer.size(), args.trace_file.c_str());
      else
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     args.trace_file.c_str());
      checks.op(metrics["bench.attributed_pct"].value >= 90.0,
                "traced run: program layers hold under 90% of the wall time");
    }
  } catch (const std::exception& e) {
    checks.op(false, std::string("exception: ") + e.what());
  }
  printReport(args, host, digests, checks, std::move(metrics));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parseArgs(argc, argv));
}
