// One GPU of the rack: a job queue, governors and a per-chip power-cap
// loop, running each job on engine::EpochLoop.
//
// Each node is an independent simulation domain — its own Gpu per job,
// governors, PowerCapController and (optional) FaultInjector — sharing only
// immutable inputs with its siblings. The rack calls advance(R) on every
// node in lockstep rounds (in parallel, one node per task slot) and
// recomputes caps in between. Every random draw is keyed off (rack seed,
// job id), so a job simulates identically on any GPU, in any round, at any
// pool size.
//
// A job's epochs within a round are one bounded EpochLoop run, arbitrated
// like every other run: governor, the node's persistent thermal throttle,
// actuator faults, then the cap. An engine::PowerCappedSource feeds chip
// power to the chip's integral controller and hands the effective preset
// (chip preset + rack bias) to SSMDVFS-family governors; the node's sink
// decodes that preset into a hard V/f ceiling, applied last for every
// mechanism, so faults cannot push past it.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/power_cap.hpp"
#include "core/ssm_governor.hpp"
#include "dc/dispatcher.hpp"
#include "dc/traffic.hpp"
#include "engine/sim_backend.hpp"
#include "faults/fault_injector.hpp"
#include "thermal/thermal_model.hpp"
#include "thermal/thermal_spec.hpp"
#include "thermal/thermal_throttle.hpp"

namespace ssm::dc {

/// Ledger entry for one job's trip through the rack.
struct JobOutcome {
  std::uint32_t id = 0;
  int gpu = -1;
  int priority = 0;
  TimeNs arrival_ns = 0;
  TimeNs deadline_ns = 0;
  TimeNs start_ns = -1;
  TimeNs finish_ns = -1;
  double energy_j = 0.0;
  std::int64_t instructions = 0;
  bool completed = false;
  bool missed = false;  ///< finished late, or never finished
  friend bool operator==(const JobOutcome&, const JobOutcome&) = default;
};

/// What one node did during one control round.
struct NodeRoundStats {
  double power_sum_w = 0.0;  ///< Σ per-epoch chip power (idle epochs too)
  int epochs = 0;
  int busy_epochs = 0;
};

class GpuNode {
 public:
  struct Init {
    int gpu_id = 0;
    const GpuConfig* gpu = nullptr;
    const VfTable* vf = nullptr;
    const std::vector<KernelProfile>* mix = nullptr;
    /// Required; "baseline" racks pass fleet::makeGovernorFactory's
    /// static-default factory.
    const GovernorFactory* factory = nullptr;
    PowerCapConfig cap;
    double idle_power_w = 45.0;
    std::uint64_t rack_seed = 0;
    /// Active spec makes this a degraded chip; nullptr/inactive is clean.
    const faults::FaultSpec* fault = nullptr;
    /// Enabled scenario gives the node RC thermal physics: die temperature
    /// carries across jobs, cools during idle epochs, and a persistent
    /// throttle backstops every commanded level. nullptr/disabled is the
    /// pre-thermal node, byte for byte.
    const thermal::ThermalScenario* thermal = nullptr;
    std::size_t max_jobs = 0;  ///< queue capacity (total traffic size)
  };

  explicit GpuNode(const Init& init);

  // --- dispatch interface (serial, between rounds) ----------------------
  void enqueue(const JobSpec& job);
  [[nodiscard]] bool busy() const noexcept { return sim_.has_value(); }
  [[nodiscard]] int queuedJobs() const noexcept {
    return static_cast<int>(queue_count_);
  }
  /// Estimated remaining work: queued service estimates plus what is left
  /// of the active job's estimate (never less than one epoch while busy).
  [[nodiscard]] TimeNs backlogNs() const noexcept;
  [[nodiscard]] bool degraded() const noexcept { return fault_ != nullptr; }

  /// Retargets the chip cap and rack bias for the coming round.
  void setRoundCap(double cap_w, double rack_bias);

  // --- simulation (one node per pool task; no shared mutable state) -----
  /// Runs exactly `epochs` epochs (idle epochs burn idle power).
  NodeRoundStats advance(int epochs);

  // --- results (read after the rack loop finishes) -----------------------
  [[nodiscard]] std::span<const JobOutcome> outcomes() const noexcept {
    return completed_;
  }
  [[nodiscard]] std::int64_t busyEpochs() const noexcept {
    return busy_epochs_;
  }
  [[nodiscard]] double energyJ() const noexcept {
    return job_energy_j_ + idle_energy_j_;
  }
  [[nodiscard]] double idleEnergyJ() const noexcept { return idle_energy_j_; }
  [[nodiscard]] double capW() const noexcept { return cap_.cap(); }
  [[nodiscard]] const faults::FaultCounts& faultCounts() const noexcept {
    return fault_counts_;
  }
  /// Hottest die temperature the node ever reached (0 without thermal).
  [[nodiscard]] double peakTempC() const noexcept { return peak_temp_c_; }
  /// Epochs the node's throttle spent limiting (0 without thermal).
  [[nodiscard]] std::int64_t throttleEpochs() const noexcept {
    return throttle_ ? throttle_->throttleEpochs() : 0;
  }

 private:
  /// Pops the queue's best job (priority-EDF) and boots a fresh Gpu for it.
  void startNextJob();
  void finishJob();

  int gpu_id_;
  const GpuConfig* gpu_cfg_;
  const VfTable* vf_;
  const std::vector<KernelProfile>* mix_;
  const GovernorFactory* factory_;
  double idle_power_w_;
  std::uint64_t rack_seed_;
  const faults::FaultSpec* fault_;  ///< null unless the node is degraded

  PowerCapController cap_;
  double rack_bias_ = 0.0;

  // Queue: preallocated slots, swap-remove on pop (the priority-EDF scan
  // picks a unique winner, so removal order never leaks into results).
  std::vector<JobSpec> queue_;
  std::size_t queue_count_ = 0;

  // Active job state (reset per job; governors are reused via reset()).
  std::optional<engine::SimBackend> sim_;
  JobOutcome active_;
  TimeNs active_est_ns_ = 0;  ///< dispatcher's service estimate for it
  std::vector<std::unique_ptr<DvfsGovernor>> governors_;
  std::vector<SsmdvfsGovernor*> presetable_;  ///< the soft-preset path
  std::vector<VfLevel> levels_;
  std::unique_ptr<faults::FaultInjector> injector_;

  // Thermal carry-over (only populated when the scenario is enabled). The
  // idle model owns the node temperatures between jobs: a starting job
  // copies them in (setThermalState), a finishing job copies them back, and
  // idle epochs integrate cooling under the rail floor. The throttle is one
  // persistent state machine per node, observing across job boundaries.
  const thermal::ThermalScenario* thermal_ = nullptr;
  std::optional<thermal::ThermalModel> idle_thermal_;
  std::optional<thermal::ThermalThrottle> throttle_;
  std::vector<double> zero_power_w_;  ///< idle clusters draw no dynamic power
  double peak_temp_c_ = 0.0;

  // Accumulated over the node's lifetime.
  std::vector<JobOutcome> completed_;
  faults::FaultCounts fault_counts_;
  TimeNs now_ns_ = 0;
  std::int64_t busy_epochs_ = 0;
  double job_energy_j_ = 0.0;
  double idle_energy_j_ = 0.0;
};

}  // namespace ssm::dc
