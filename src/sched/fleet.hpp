// Fleet execution: sharded simulation sweeps on the work-stealing pool.
//
// A sweep is the cartesian product workload × mechanism × preset × seed ×
// fault scenario — the shape of every §V experiment and of the ROADMAP's
// production sweeps, plus the robustness matrix of bench_faults.
// Each cell is one self-contained job: it builds its own Gpu, its own
// governor factory and (when tracing) its own recorder, shares only
// immutable inputs (VfTable, GpuConfig, a trained const SsmModel), and
// derives its simulation seed from a deterministic Rng fork keyed on the
// sweep coordinates — never on thread identity or completion order.
// Results are therefore byte-identical for any --jobs value; only the
// wall clock changes.
//
// Output is ordered: the JSONL stream emits line j only after lines
// 0..j-1, no matter which worker finished first.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/ssm_model.hpp"
#include "engine/trace_io.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_spec.hpp"
#include "gpusim/runner.hpp"
#include "sched/thread_pool.hpp"
#include "thermal/thermal_spec.hpp"
#include "workloads/kernel_profile.hpp"

namespace ssm {
class GovernorModeLog;
}  // namespace ssm

namespace ssm::fleet {

/// The cartesian sweep specification. Workloads are resolved profiles so
/// callers control registry vs profile-file lookup.
///
/// A sweep runs in exactly one of two modes:
///   * live   — `workloads` is non-empty: every cell simulates its program
///     on the cycle-level Gpu (the pre-engine behaviour, byte-identical);
///   * replay — `replay` is non-empty (and `workloads` empty): every cell
///     streams one recorded trace through the mechanism's governor open-loop
///     (engine::replayTrace) at memory-bandwidth speed, reporting how often
///     its decisions agree with the recorded policy's. Fault injection is
///     closed-loop and therefore rejected in replay sweeps.
struct SweepSpec {
  std::vector<KernelProfile> workloads;
  /// Recorded traces substituting the workload axis (shared, immutable:
  /// many jobs replay the same trace concurrently). All entries non-null.
  std::vector<std::shared_ptr<const engine::EpochTrace>> replay;
  std::vector<std::string> mechanisms;
  std::vector<double> presets = {0.10};
  std::vector<std::uint64_t> seeds = {777};
  /// Fault axis: one cell per scenario. The default single inactive spec
  /// reproduces the pre-fault sweep byte-for-byte.
  std::vector<faults::FaultSpec> faults = {{}};
  /// Thermal axis: one cell per scenario. The default single disabled
  /// scenario reproduces the pre-thermal sweep byte-for-byte. Thermal
  /// physics is closed-loop (temperature feeds back into leakage power),
  /// so an active axis is rejected in replay sweeps, like faults.
  std::vector<thermal::ThermalScenario> thermal = {{}};
  /// Wrap every governed run in the HardenedGovernor decorator and report
  /// its fallback/recovery counts.
  bool harden = false;
  /// Replay mode only: fork-and-resimulate every keyframe window where the
  /// candidate governor diverges from the recorded policy (see
  /// engine::ReplayOptions::counterfactual) and report the true
  /// energy/latency/EDP deltas per cell. Requires every replay trace to be
  /// keyframed (recorded with --keyframe-every); rejected otherwise.
  bool counterfactual = false;
  GpuConfig gpu;
  VfTable vf = VfTable::titanX();
  TimeNs max_time_ns = 5 * kNsPerMs;
  /// Required when any mechanism is ssmdvfs / ssmdvfs-nocal.
  std::shared_ptr<const SsmModel> model;
};

/// One cell of the sweep, in expansion order.
struct SweepJob {
  std::size_t index = 0;  ///< position in the expanded job list
  std::size_t workload = 0;
  std::size_t mechanism = 0;
  std::size_t preset = 0;
  std::size_t seed = 0;
  std::size_t fault = 0;
  std::size_t thermal = 0;
  /// Simulator seed: forked from the sweep seed by workload coordinate,
  /// so one (workload, seed) pair simulates identically under every
  /// mechanism, preset, fault and thermal scenario (baselines line up
  /// across the sweep and a faulted cell is comparable to its clean
  /// sibling).
  std::uint64_t sim_seed = 0;
};

struct SweepResult {
  SweepJob job;
  /// Live mode: the fault-free static-default run. Replay mode: the
  /// recorded run's RunResult (the reference the replay is measured against).
  RunResult baseline;
  RunResult governed;
  /// Injected-fault tally of the governed run (all zero for clean cells).
  faults::FaultCounts fault_counts;
  /// Hardened-governor mode transitions (0 unless SweepSpec::harden).
  int fallbacks = 0;
  int recoveries = 0;
  /// Replay-mode agreement with the recorded policy (1.0 in live mode).
  double agreement = 1.0;
  std::int64_t decisions = 0;
  std::int64_t matches = 0;
  /// Hottest die temperature of the governed run and how many of its
  /// epochs ran throttle-limited (both 0 when the cell's thermal scenario
  /// is disabled).
  double peak_temp_c = 0.0;
  int throttle_epochs = 0;
  /// Counterfactual accounting (all zero unless SweepSpec::counterfactual):
  /// divergent keyframe windows resimulated, branch epochs spent doing so,
  /// and the candidate-minus-recorded deltas (see engine::ReplayReport).
  std::int64_t divergent_windows = 0;
  std::int64_t resim_epochs = 0;
  double energy_delta_mj = 0.0;
  double latency_delta_ns = 0.0;
  double edp_delta_pct = 0.0;
};

/// Expands the cartesian product in deterministic order: workload-major,
/// then mechanism, preset, seed, fault, thermal. Throws ContractError on an
/// empty axis.
[[nodiscard]] std::vector<SweepJob> expandJobs(const SweepSpec& spec);

/// Builds the governor factory for a mechanism name (the `run`/`sweep`
/// vocabulary: baseline, static-<L>, ssmdvfs, ssmdvfs-nocal, pcstall,
/// flemma, ondemand). "baseline" is the static-default policy: every
/// governor holds vf.defaultLevel(). Never returns nullptr; throws
/// DataError for unknown names or a missing model.
[[nodiscard]] std::unique_ptr<GovernorFactory> makeGovernorFactory(
    const std::string& mechanism, const VfTable& vf, double preset,
    const std::shared_ptr<const SsmModel>& model);

/// One live cell of `spec` at `job`'s coordinates (live mode only): a
/// clean static-default baseline run and the mechanism's governed run of
/// the same program, both from a Gpu seeded with `job.sim_seed`. An enabled
/// thermal scenario attaches RC physics to both runs, each with its own
/// throttle; an active fault scenario corrupts the governed run only, from
/// an injector seeded by (sim_seed, fault index); `spec.harden` wraps the
/// governors in the HardenedGovernor decorator. "baseline" is the one
/// mechanism treated specially: its governed result IS the clean baseline
/// run. Null seams give the sweep cell; `trace` records the governed run's
/// epochs and `mode_log` collects its hardened mode transitions.
[[nodiscard]] SweepResult runCell(const SweepSpec& spec, const SweepJob& job,
                                  EpochTraceRecorder* trace = nullptr,
                                  GovernorModeLog* mode_log = nullptr);

/// Called under the collector lock as jobs complete, in completion order.
using ProgressFn = ThreadPool::ProgressFn;

class FleetRunner {
 public:
  /// `spec` must outlive the runner. Jobs execute on `pool`.
  FleetRunner(const SweepSpec& spec, ThreadPool& pool);

  /// Runs every job; returns results in job-index order.
  [[nodiscard]] std::vector<SweepResult> run(
      const ProgressFn& progress = {}) const;

  /// Runs every job, streaming one JSON object per line into `os` in
  /// job-index order as soon as the completed prefix allows. Returns the
  /// number of lines written.
  std::size_t runJsonl(std::ostream& os, const ProgressFn& progress = {}) const;

  [[nodiscard]] const std::vector<SweepJob>& jobs() const noexcept {
    return jobs_;
  }

 private:
  [[nodiscard]] SweepResult runJob(const SweepJob& job) const;
  [[nodiscard]] SweepResult runReplayJob(const SweepJob& job) const;

  const SweepSpec& spec_;
  ThreadPool& pool_;
  std::vector<SweepJob> jobs_;
};

/// One compact JSON object (single line, no trailing newline) per result.
[[nodiscard]] std::string toJsonLine(const SweepSpec& spec,
                                     const SweepResult& r);

/// CSV export: header + one row per result, in the given order.
void writeCsv(const SweepSpec& spec, const std::vector<SweepResult>& results,
              std::ostream& os);

}  // namespace ssm::fleet
