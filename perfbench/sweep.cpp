// The `sweep` flow: the Fig. 4 grid through fleet::FleetRunner.
#include <numeric>

#include "engine/epoch_loop.hpp"
#include "engine/sim_backend.hpp"
#include "flows.hpp"
#include "loop_run.hpp"
#include "sched/fleet.hpp"
#include "tracer.hpp"
#include "workloads/kernel_profile.hpp"

namespace perfbench {
namespace {

/// Four of the twelve evaluation programs (two unseen in training, two
/// seen), chosen for short run time and a spread of memory intensity.
constexpr const char* kPrograms[] = {"nw", "mriq", "streamcluster", "bfs"};

/// Evaluation programs x {ssmdvfs, pcstall, flemma} x two presets on the
/// Titan X; `programs` trims the program axis for the one-pass variant.
ssm::fleet::SweepSpec sweepSpec(const Env& env, std::size_t programs) {
  ssm::fleet::SweepSpec spec;
  for (std::size_t i = 0; i < programs; ++i)
    spec.workloads.push_back(ssm::workloadByName(kPrograms[i]));
  spec.mechanisms = {"ssmdvfs", "pcstall", "flemma"};
  spec.presets = {0.10, 0.20};
  spec.seeds = {env.seed};
  spec.model = env.model;
  return spec;
}

std::string rowsDigest(const ssm::fleet::SweepSpec& spec,
                       const std::vector<ssm::fleet::SweepResult>& rows) {
  std::string all;
  for (const auto& r : rows) all += ssm::fleet::toJsonLine(spec, r) + "\n";
  return digestOf(all);
}

/// Closed-loop simulated epochs, baseline + governed, over every cell.
double simEpochs(const std::vector<ssm::fleet::SweepResult>& rows) {
  double n = 0.0;
  for (const auto& r : rows) n += r.baseline.epochs + r.governed.epochs;
  return n;
}

/// Simulated outcome: governed/baseline EDP and latency, mean over the
/// ssmdvfs cells.
void addRatios(const ssm::fleet::SweepSpec& spec,
               const std::vector<ssm::fleet::SweepResult>& rows,
               Metrics& m) {
  double edp = 0.0;
  double lat = 0.0;
  int n = 0;
  for (const auto& r : rows) {
    if (spec.mechanisms[r.job.mechanism] != "ssmdvfs") continue;
    edp += r.governed.edp / r.baseline.edp;
    lat += static_cast<double>(r.governed.exec_time_ns) /
           static_cast<double>(r.baseline.exec_time_ns);
    ++n;
  }
  m["edp_ratio"] = {edp / n, "ratio"};
  m["latency_ratio"] = {lat / n, "ratio"};
}

/// FleetRunner::runJob's live cell, rebuilt from the job's coordinates and
/// driven through the decorated backend and factory.
ssm::fleet::SweepResult replayCell(const ssm::fleet::SweepSpec& spec,
                                   const ssm::fleet::SweepJob& job,
                                   Tracer& tracer) {
  const ssm::KernelProfile& kernel = spec.workloads[job.workload];
  const std::string& mech = spec.mechanisms[job.mechanism];
  const ssm::Gpu machine(spec.gpu, spec.vf, kernel, job.sim_seed,
                         ssm::ChipPowerModel(spec.gpu.num_clusters));
  ssm::engine::LoopConfig cfg;
  cfg.max_time_ns = spec.max_time_ns;
  const auto baseline = ssm::fleet::makeGovernorFactory(
      "static-" + std::to_string(spec.vf.defaultLevel()), spec.vf,
      spec.presets[job.preset], spec.model);
  const auto governed = ssm::fleet::makeGovernorFactory(
      mech, spec.vf, spec.presets[job.preset], spec.model);

  ssm::fleet::SweepResult out;
  out.job = job;
  out.baseline = loopRun(&tracer, machine, *baseline, "baseline", cfg);
  out.baseline.workload = kernel.name;
  out.governed = loopRun(&tracer, machine, *governed, mech, cfg);
  out.governed.workload = kernel.name;
  out.peak_temp_c = out.governed.peak_temp_c;
  out.throttle_epochs = out.governed.throttle_epochs;
  return out;
}

}  // namespace

struct SweepFlow::State {
  explicit State(const Env& e)
      : env(e), spec(sweepSpec(e, std::size(kPrograms))) {}
  const Env& env;
  const ssm::fleet::SweepSpec spec;
  std::vector<double> rates;
  std::string reference;
  Metrics simulated;
};

SweepFlow::SweepFlow(const Env& env) : s_(std::make_unique<State>(env)) {}
SweepFlow::~SweepFlow() = default;

void SweepFlow::pass() {
  State& s = *s_;
  // A pool per pass: no idle workers poll beside the single-threaded
  // measurements a run interleaves between passes.
  ssm::ThreadPool pool(s.env.workers);
  const ssm::fleet::FleetRunner runner(s.spec, pool);
  const Clock::time_point t0 = Clock::now();
  const auto rows = runner.run();
  s.rates.push_back(simEpochs(rows) / secondsSince(t0));
  const std::string digest = rowsDigest(s.spec, rows);
  if (s.reference.empty()) {
    s.reference = digest;
    (*s.env.digests)["sweep_rows"] = digest;
    addRatios(s.spec, rows, s.simulated);
  }
  s.env.checks->op(digest == s.reference,
                   "sweep pass " + std::to_string(s.rates.size() - 1) +
                       ": rows digest " + digest + " differs from pass 0 " +
                       s.reference);
}

Metrics SweepFlow::metrics() const {
  Metrics m = s_->simulated;
  m["sim_epochs_per_s"] = {median(s_->rates), "1/s"};
  return m;
}

Metrics sweepPerLayer(const Env& env, bool focus) {
  Tracer& tracer = *env.tracer;
  const ssm::fleet::SweepSpec spec =
      sweepSpec(env, focus ? std::size(kPrograms) : 1);
  Metrics m;

  // Untraced, parallel: the reference rows.
  ssm::ThreadPool pool(env.workers);
  const ssm::fleet::FleetRunner parallel(spec, pool);
  Clock::time_point t0 = Clock::now();
  std::vector<ssm::fleet::SweepResult> rows;
  {
    const Scope s(&tracer, "sched.fleet_parallel");
    rows = parallel.run();
  }
  const double parallel_s = secondsSince(t0);

  // Traced: every cell replayed serially through the decorated engine.
  std::vector<double> cell_ms;
  for (const ssm::fleet::SweepJob& job : parallel.jobs()) {
    tracer.setOp(static_cast<std::int64_t>(job.index));
    t0 = Clock::now();
    ssm::fleet::SweepResult r;
    {
      const Scope s(&tracer, "sched.cell");
      r = replayCell(spec, job, tracer);
    }
    cell_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    const Scope s(&tracer, "bench.check");
    env.checks->op(ssm::fleet::toJsonLine(spec, r) ==
                       ssm::fleet::toJsonLine(spec, rows[job.index]),
                   "sweep: traced replica of cell " +
                       std::to_string(job.index) + " differs from FleetRunner");
  }

  // Untraced, one lane, over the first program's cells (the first cells in
  // job order): the same rows, and the base of the tracing overhead.
  ssm::fleet::SweepSpec first = spec;
  first.workloads.resize(1);
  ssm::ThreadPool one(1);
  const ssm::fleet::FleetRunner serial(first, one);
  t0 = Clock::now();
  std::vector<ssm::fleet::SweepResult> serial_rows;
  {
    const Scope s(&tracer, "bench.reference");
    serial_rows = serial.run();
  }
  const double serial_s = secondsSince(t0);
  bool same = true;
  for (std::size_t i = 0; i < serial_rows.size(); ++i)
    same = same && ssm::fleet::toJsonLine(first, serial_rows[i]) ==
                       ssm::fleet::toJsonLine(spec, rows[i]);
  env.checks->op(same, "sweep: one-lane rows differ from the parallel rows");

  const double cell_s =
      std::accumulate(cell_ms.begin(), cell_ms.end(), 0.0) / 1e3;
  const double traced_first_s =
      std::accumulate(cell_ms.begin(),
                      cell_ms.begin() +
                          static_cast<std::ptrdiff_t>(serial_rows.size()),
                      0.0) /
      1e3;
  // Cell host times come from the traced replica, so they carry the
  // tracing overhead (reported below; about a percent).
  m["sched.parallel_efficiency"] = {cell_s / (parallel_s * env.workers),
                                    "ratio"};
  m["sched.cells"] = {static_cast<double>(cell_ms.size()), "count"};
  m["sched.cell_ms_p50"] = {quantile(cell_ms, 0.5), "ms"};
  m["sched.cell_ms_p99"] = {quantile(cell_ms, 0.99), "ms"};
  if (focus)
    m["bench.tracing_overhead_pct"] = {
        100.0 * (traced_first_s - serial_s) / serial_s, "%"};
  return m;
}

}  // namespace perfbench
