#include "sched/fleet.hpp"

#include <cstdlib>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "baselines/flemma.hpp"
#include "baselines/ondemand.hpp"
#include "baselines/pcstall.hpp"
#include "common/check.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "core/hardened_governor.hpp"
#include "core/ssm_governor.hpp"
#include "engine/replay_backend.hpp"
#include "thermal/thermal_throttle.hpp"

namespace ssm::fleet {

namespace {

/// True when the sweep's fault axis carries any active scenario — the
/// trigger for the extra JSONL/CSV fields (kept out of clean sweeps so
/// pre-fault output stays byte-identical).
bool faultAxisActive(const SweepSpec& spec) {
  for (const auto& f : spec.faults)
    if (f.active()) return true;
  return false;
}

bool replayMode(const SweepSpec& spec) { return !spec.replay.empty(); }

/// True when the sweep's thermal axis carries any enabled scenario — the
/// trigger for the thermal JSONL/CSV fields, mirroring faultAxisActive.
bool thermalAxisActive(const SweepSpec& spec) {
  for (const auto& t : spec.thermal)
    if (t.enabled) return true;
  return false;
}

/// The cell's workload name: profile name in live mode, the trace's
/// recorded workload in replay mode.
const std::string& workloadName(const SweepSpec& spec, const SweepJob& job) {
  return replayMode(spec) ? spec.replay[job.workload]->workload
                          : spec.workloads[job.workload].name;
}

}  // namespace

std::unique_ptr<GovernorFactory> makeGovernorFactory(
    const std::string& mechanism, const VfTable& vf, double preset,
    const std::shared_ptr<const SsmModel>& model) {
  if (mechanism == "baseline")
    return std::make_unique<StaticFactory>(vf.defaultLevel());
  if (mechanism == "ssmdvfs" || mechanism == "ssmdvfs-nocal") {
    if (!model)
      throw DataError("mechanism '" + mechanism + "' needs a trained model");
    SsmGovernorConfig cfg;
    cfg.loss_preset = preset;
    cfg.calibrate = mechanism == "ssmdvfs";
    return std::make_unique<SsmGovernorFactory>(model, cfg);
  }
  if (mechanism == "pcstall") {
    PcstallConfig cfg;
    cfg.loss_preset = preset;
    return std::make_unique<PcstallFactory>(vf, cfg);
  }
  if (mechanism == "flemma") {
    FlemmaConfig cfg;
    cfg.loss_preset = preset;
    return std::make_unique<FlemmaFactory>(vf, cfg);
  }
  if (mechanism == "ondemand") return std::make_unique<OndemandFactory>(vf);
  if (mechanism.rfind("static-", 0) == 0) {
    const int level = std::atoi(mechanism.c_str() + 7);
    return std::make_unique<StaticFactory>(vf.clamp(level));
  }
  throw DataError("unknown mechanism: " + mechanism);
}

std::vector<SweepJob> expandJobs(const SweepSpec& spec) {
  const bool replay = replayMode(spec);
  SSM_CHECK(!replay || spec.workloads.empty(),
            "a sweep is either live (workloads) or replay (traces), not both");
  SSM_CHECK(replay || !spec.workloads.empty(),
            "sweep needs at least one workload");
  SSM_CHECK(!spec.mechanisms.empty(), "sweep needs at least one mechanism");
  SSM_CHECK(!spec.presets.empty(), "sweep needs at least one preset");
  SSM_CHECK(!spec.seeds.empty(), "sweep needs at least one seed");
  SSM_CHECK(!spec.faults.empty(), "sweep needs at least one fault cell");
  SSM_CHECK(!spec.thermal.empty(), "sweep needs at least one thermal cell");
  if (replay) {
    for (const auto& trace : spec.replay)
      SSM_CHECK(trace != nullptr, "replay sweep has a null trace entry");
    SSM_CHECK(!faultAxisActive(spec),
              "a replay sweep cannot inject new faults: the recorded trace is "
              "immutable history, and fault arbitration would have to feed "
              "back into it. Counterfactual branches already replay the "
              "RECORDED faults — each branch resumes from a keyframe whose "
              "machine state carries their effects. To explore new fault "
              "scenarios, run a live sweep (--workloads ... --faults ...) "
              "instead");
    SSM_CHECK(!thermalAxisActive(spec),
              "thermal physics is closed-loop; unsupported in replay sweeps");
  }
  SSM_CHECK(!spec.counterfactual || replay,
            "counterfactual resimulation is a replay-sweep mode; give it "
            "recorded traces via --replay");
  if (replay && spec.counterfactual) {
    for (const auto& trace : spec.replay)
      if (trace->keyframes.empty() || trace->keyframes.front().epoch != 0)
        throw DataError("counterfactual sweep needs keyframed traces (trace '" +
                        trace->workload +
                        "' has none); re-record with `ssmdvfs record "
                        "--keyframe-every N`");
  }

  const std::size_t num_workloads =
      replay ? spec.replay.size() : spec.workloads.size();
  std::vector<SweepJob> jobs;
  jobs.reserve(num_workloads * spec.mechanisms.size() * spec.presets.size() *
               spec.seeds.size() * spec.faults.size() * spec.thermal.size());
  for (std::size_t w = 0; w < num_workloads; ++w) {
    for (std::size_t m = 0; m < spec.mechanisms.size(); ++m) {
      for (std::size_t p = 0; p < spec.presets.size(); ++p) {
        for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
          for (std::size_t f = 0; f < spec.faults.size(); ++f) {
            for (std::size_t t = 0; t < spec.thermal.size(); ++t) {
              SweepJob job;
              job.index = jobs.size();
              job.workload = w;
              job.mechanism = m;
              job.preset = p;
              job.seed = s;
              job.fault = f;
              job.thermal = t;
              // Independent stream per (seed, workload); mechanism, preset,
              // fault and thermal deliberately do NOT enter, so a faulted or
              // thermally-limited cell runs the very same program as its
              // clean/baseline siblings.
              job.sim_seed = Rng(spec.seeds[s]).fork(w).nextU64();
              jobs.push_back(job);
            }
          }
        }
      }
    }
  }
  return jobs;
}

FleetRunner::FleetRunner(const SweepSpec& spec, ThreadPool& pool)
    : spec_(spec), pool_(pool), jobs_(expandJobs(spec)) {
  // Fail fast on an unsatisfiable spec (unknown mechanism, missing model)
  // before any simulation time is spent.
  for (const auto& mech : spec_.mechanisms)
    static_cast<void>(makeGovernorFactory(mech, spec_.vf, 0.10, spec_.model));
}

SweepResult FleetRunner::runReplayJob(const SweepJob& job) const {
  const engine::EpochTrace& trace = *spec_.replay[job.workload];
  const std::string& mech = spec_.mechanisms[job.mechanism];
  const double preset = spec_.presets[job.preset];

  SweepResult out;
  out.job = job;
  out.baseline = trace.recorded;

  const auto factory =
      makeGovernorFactory(mech, trace.vf, preset, spec_.model);
  GovernorModeLog mode_log;
  const HardenedGovernorFactory hardened(*factory, trace.vf, HardenedConfig{},
                                         &mode_log);
  engine::ReplayOptions opts;
  opts.counterfactual = spec_.counterfactual;
  const engine::ReplayReport report = engine::replayTrace(
      trace,
      spec_.harden ? static_cast<const GovernorFactory&>(hardened) : *factory,
      mech, opts);
  out.governed = report.result;
  out.governed.mechanism = mech;
  out.agreement = report.agreement;
  out.decisions = report.decisions;
  out.matches = report.matches;
  out.fallbacks = mode_log.fallbacks();
  out.recoveries = mode_log.recoveries();
  out.divergent_windows = report.divergent_windows;
  out.resim_epochs = report.resim_epochs;
  out.energy_delta_mj = report.energy_delta_mj;
  out.latency_delta_ns = report.latency_delta_ns;
  out.edp_delta_pct = report.edp_delta_pct;
  return out;
}

SweepResult runCell(const SweepSpec& spec, const SweepJob& job,
                    EpochTraceRecorder* trace, GovernorModeLog* mode_log) {
  SSM_CHECK(job.workload < spec.workloads.size() &&
                job.mechanism < spec.mechanisms.size() &&
                job.preset < spec.presets.size() &&
                job.fault < spec.faults.size() &&
                job.thermal < spec.thermal.size(),
            "job coordinates lie outside the live sweep's axes");
  const KernelProfile& kernel = spec.workloads[job.workload];
  const std::string& mech = spec.mechanisms[job.mechanism];
  // Built first so an unknown mechanism fails before any simulation.
  const auto factory = makeGovernorFactory(mech, spec.vf,
                                           spec.presets[job.preset],
                                           spec.model);

  Gpu machine(spec.gpu, spec.vf, kernel, job.sim_seed,
              ChipPowerModel(spec.gpu.num_clusters));

  // An enabled thermal cell attaches physics to the machine BEFORE it is
  // copied into the runs, so baseline and governed both integrate the RC
  // network and leakage feedback. Each run gets its own throttle instance
  // (the state machine is per-run, like the governors).
  const thermal::ThermalScenario& scenario = spec.thermal[job.thermal];
  std::optional<thermal::ThermalThrottle> baseline_throttle =
      scenario.makeThrottle(spec.vf, spec.gpu.num_clusters);
  std::optional<thermal::ThermalThrottle> governed_throttle =
      scenario.makeThrottle(spec.vf, spec.gpu.num_clusters);
  if (scenario.enabled) machine.attachThermal(scenario.params);

  SweepResult out;
  out.job = job;
  out.baseline = runBaseline(machine, spec.max_time_ns,
                             baseline_throttle ? &*baseline_throttle
                                               : nullptr);
  out.baseline.workload = kernel.name;

  // Only the governed run sees faults: the baseline stays the clean
  // reference that overshoot/EDP deltas are measured against. The injector
  // seed is forked off the job's coordinates (never thread identity), so
  // any --jobs value replays the same fault pattern.
  const faults::FaultSpec& fault_spec = spec.faults[job.fault];
  std::unique_ptr<faults::FaultInjector> injector;
  if (fault_spec.active())
    injector = std::make_unique<faults::FaultInjector>(
        fault_spec, faults::injectorSeed(job.sim_seed, job.fault));

  GovernorModeLog own_log;
  GovernorModeLog& log = mode_log != nullptr ? *mode_log : own_log;
  if (mech == "baseline") {
    out.governed = out.baseline;
  } else {
    const HardenedGovernorFactory hardened(*factory, spec.vf,
                                           HardenedConfig{}, &log);
    out.governed = runWithGovernor(
        std::move(machine),
        spec.harden ? static_cast<const GovernorFactory&>(hardened) : *factory,
        mech, spec.max_time_ns, trace, injector.get(),
        governed_throttle ? &*governed_throttle : nullptr);
  }
  out.governed.workload = kernel.name;
  out.governed.mechanism = mech;
  out.peak_temp_c = out.governed.peak_temp_c;
  out.throttle_epochs = out.governed.throttle_epochs;
  if (injector != nullptr) out.fault_counts = injector->counts();
  out.fallbacks = log.fallbacks();
  out.recoveries = log.recoveries();
  return out;
}

SweepResult FleetRunner::runJob(const SweepJob& job) const {
  return replayMode(spec_) ? runReplayJob(job) : runCell(spec_, job);
}

std::vector<SweepResult> FleetRunner::run(const ProgressFn& progress) const {
  std::vector<SweepResult> results;
  results.reserve(jobs_.size());
  pool_.parallelForOrdered(
      jobs_.size(), [&](std::size_t i) { return runJob(jobs_[i]); },
      [&](SweepResult r) { results.push_back(std::move(r)); }, progress);
  return results;
}

std::size_t FleetRunner::runJsonl(std::ostream& os,
                                  const ProgressFn& progress) const {
  std::size_t lines = 0;
  pool_.parallelForOrdered(
      jobs_.size(),
      [&](std::size_t i) { return toJsonLine(spec_, runJob(jobs_[i])); },
      [&](const std::string& line) {
        os << line << '\n';
        ++lines;
      },
      progress);
  return lines;
}

namespace {

void emitRun(JsonWriter& w, const char* name, const RunResult& r) {
  w.beginObject(name)
      .value("exec_time_us", static_cast<double>(r.exec_time_ns) / 1e3)
      .value("energy_mj", r.energy_j * 1e3)
      .value("edp_uj_s", r.edp * 1e6)
      .value("instructions", static_cast<std::int64_t>(r.instructions))
      .value("epochs", r.epochs)
      .value("mean_power_w", r.mean_power_w)
      .beginArray("level_histogram");
  for (double h : r.level_histogram) w.value(h);
  w.endArray().endObject();
}

}  // namespace

std::string toJsonLine(const SweepSpec& spec, const SweepResult& r) {
  std::ostringstream ss;
  JsonWriter w(ss);
  w.beginObject()
      .value("workload", workloadName(spec, r.job))
      .value("mechanism", spec.mechanisms[r.job.mechanism])
      .value("preset", spec.presets[r.job.preset])
      .value("seed", static_cast<std::int64_t>(spec.seeds[r.job.seed]));
  // Replay fields appear only in replay mode; fault/hardening fields only
  // when the sweep opts in. Clean live sweeps keep the exact pre-fault,
  // pre-engine JSONL schema, byte for byte.
  if (replayMode(spec)) {
    w.value("replay_of", spec.replay[r.job.workload]->mechanism)
        .value("agreement", r.agreement)
        .value("decisions", r.decisions)
        .value("matches", r.matches);
    // Counterfactual columns only when the sweep opted in, so plain replay
    // sweeps keep their exact pre-counterfactual schema.
    if (spec.counterfactual) {
      w.value("divergent_windows", r.divergent_windows)
          .value("resim_epochs", r.resim_epochs)
          .value("energy_delta_mj", r.energy_delta_mj)
          .value("latency_delta_us", r.latency_delta_ns / 1e3)
          .value("edp_delta_pct", r.edp_delta_pct);
    }
  }
  if (faultAxisActive(spec)) {
    const faults::FaultSpec& fs = spec.faults[r.job.fault];
    w.value("faults", fs.print());
    r.fault_counts.writeJson(w);
  }
  if (thermalAxisActive(spec)) {
    w.value("thermal", spec.thermal[r.job.thermal].print())
        .value("peak_temp_c", r.peak_temp_c)
        .value("throttle_epochs", r.throttle_epochs);
  }
  if (spec.harden)
    w.value("fallbacks", r.fallbacks).value("recoveries", r.recoveries);
  w.value("edp_ratio", r.baseline.edp > 0.0
                              ? r.governed.edp / r.baseline.edp
                              : 1.0)
      .value("latency_ratio",
             r.baseline.exec_time_ns > 0
                 ? static_cast<double>(r.governed.exec_time_ns) /
                       static_cast<double>(r.baseline.exec_time_ns)
                 : 1.0);
  emitRun(w, "baseline", r.baseline);
  emitRun(w, "governed", r.governed);
  w.endObject();
  return std::move(ss).str();
}

void writeCsv(const SweepSpec& spec, const std::vector<SweepResult>& results,
              std::ostream& os) {
  // Conditional columns mirror the JSONL rule: clean, unhardened sweeps
  // keep the exact pre-fault schema.
  const bool with_faults = faultAxisActive(spec);
  const bool with_thermal = thermalAxisActive(spec);
  const bool replay = replayMode(spec);
  os << "workload,mechanism,preset,seed,exec_time_us,energy_mj,edp_uj_s,"
        "epochs,edp_ratio,latency_ratio";
  if (replay) {
    os << ",replay_of,agreement,decisions,matches";
    if (spec.counterfactual)
      os << ",divergent_windows,resim_epochs,energy_delta_mj,"
            "latency_delta_us,edp_delta_pct";
  }
  if (with_faults) os << ",faults,injected_faults";
  if (with_thermal) os << ",thermal,peak_temp_c,throttle_epochs";
  if (spec.harden) os << ",fallbacks,recoveries";
  os << '\n';
  std::ostringstream num;
  num.precision(17);
  for (const auto& r : results) {
    num.str({});
    num << spec.presets[r.job.preset] << ','
        << spec.seeds[r.job.seed] << ','
        << static_cast<double>(r.governed.exec_time_ns) / 1e3 << ','
        << r.governed.energy_j * 1e3 << ',' << r.governed.edp * 1e6 << ','
        << r.governed.epochs << ','
        << (r.baseline.edp > 0.0 ? r.governed.edp / r.baseline.edp : 1.0)
        << ','
        << (r.baseline.exec_time_ns > 0
                ? static_cast<double>(r.governed.exec_time_ns) /
                      static_cast<double>(r.baseline.exec_time_ns)
                : 1.0);
    if (replay) {
      num << ',' << spec.replay[r.job.workload]->mechanism << ','
          << r.agreement << ',' << r.decisions << ',' << r.matches;
      if (spec.counterfactual)
        num << ',' << r.divergent_windows << ',' << r.resim_epochs << ','
            << r.energy_delta_mj << ',' << r.latency_delta_ns / 1e3 << ','
            << r.edp_delta_pct;
    }
    if (with_faults) {
      // The spec's canonical form contains ','; quote it per CSV rules
      // (print() never emits a quote character).
      num << ",\"" << spec.faults[r.job.fault].print() << "\","
          << r.fault_counts.total();
    }
    if (with_thermal) {
      // The scenario's canonical form may contain ','; quote like faults.
      num << ",\"" << spec.thermal[r.job.thermal].print() << "\","
          << r.peak_temp_c << ',' << r.throttle_epochs;
    }
    if (spec.harden) num << ',' << r.fallbacks << ',' << r.recoveries;
    os << workloadName(spec, r.job) << ','
       << spec.mechanisms[r.job.mechanism] << ',' << num.str() << '\n';
  }
}

}  // namespace ssm::fleet
