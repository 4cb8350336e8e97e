// The rack: N GpuNodes + traffic + dispatcher + hierarchical power cap,
// advanced in lockstep control rounds.
//
// Each round: (serial) admit every arrival whose timestamp has passed and
// assign it a GPU; (parallel) advance every node by `epochs_per_round`
// epochs — one node per pool task, writing its round stats into a
// pre-allocated slot; (serial) feed the per-node powers to the
// RackPowerCoordinator, which retargets per-GPU caps and the rack bias for
// the next round. All cross-node state changes hands only at round
// boundaries on the calling thread, so the result is byte-identical for
// any ThreadPool size (the fleet determinism contract, docs/fleet.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ssm_model.hpp"
#include "dc/dispatcher.hpp"
#include "dc/gpu_node.hpp"
#include "dc/rack_power.hpp"
#include "dc/traffic.hpp"
#include "sched/thread_pool.hpp"
#include "thermal/thermal_spec.hpp"

namespace ssm::dc {

struct RackSpec {
  int gpus = 16;
  GpuConfig gpu;
  VfTable vf = VfTable::titanX();
  /// Workload mix the traffic draws from (required, non-empty).
  std::vector<KernelProfile> mix;
  TrafficSpec traffic;
  DispatchPolicy policy = DispatchPolicy::kLeastLoaded;
  /// Governor vocabulary of fleet::makeGovernorFactory (baseline,
  /// static-<L>, ssmdvfs, ssmdvfs-nocal, pcstall, flemma, ondemand).
  std::string mechanism = "ondemand";
  double preset = 0.10;
  /// Required for the ssmdvfs mechanisms.
  std::shared_ptr<const SsmModel> model;
  RackPowerConfig power;
  double idle_power_w = 45.0;
  /// Epochs per control round (cap re-split cadence).
  int epochs_per_round = 5;
  /// Hard stop; jobs still unfinished then count as missed.
  int max_rounds = 20000;
  /// Rounds excluded from the steady-state cap-compliance statistic.
  int warmup_rounds = 10;
  std::uint64_t seed = 777;
  /// Fault scenario carried by the degraded GPUs (inactive → clean rack).
  faults::FaultSpec fault;
  /// GPU ids running under `fault`; empty means every chip is healthy.
  std::vector<int> degraded;
  /// Rack-wide thermal scenario. When enabled every node integrates the RC
  /// network (die temperature carries across jobs and cools during idle
  /// epochs) and runs a persistent thermal throttle; disabled (default)
  /// keeps the rack byte-identical to the pre-thermal build.
  thermal::ThermalScenario thermal;
};

struct GpuNodeSummary {
  int gpu_id = 0;
  int jobs_run = 0;
  std::int64_t busy_epochs = 0;
  double energy_j = 0.0;
  double final_cap_w = 0.0;
  bool degraded = false;
  friend bool operator==(const GpuNodeSummary&,
                         const GpuNodeSummary&) = default;
};

struct RackResult {
  /// One entry per traffic job, indexed by job id (unfinished jobs keep
  /// completed=false and missed=true).
  std::vector<JobOutcome> jobs;
  int gpus = 0;
  int rounds = 0;
  std::int64_t busy_gpu_epochs = 0;
  std::int64_t total_gpu_epochs = 0;
  int completed = 0;
  int missed_deadlines = 0;  ///< completed late + unfinished
  int unfinished = 0;
  /// First-class sweep column: (late + unfinished) / total jobs.
  double deadline_miss_rate = 0.0;
  /// First-class sweep column: total rack energy (idle floor included)
  /// over completed jobs.
  double energy_per_job_j = 0.0;
  double total_energy_j = 0.0;
  double idle_energy_j = 0.0;
  double mean_rack_power_w = 0.0;
  double max_rack_power_w = 0.0;
  /// Fraction of rounds whose mean rack power exceeded the rack cap.
  double cap_violation_frac = 0.0;
  /// Same, counting only rounds after `warmup_rounds`.
  double steady_violation_frac = 0.0;
  double final_rack_bias = 0.0;
  TimeNs makespan_ns = 0;
  TimeNs p50_latency_ns = 0;
  TimeNs p99_latency_ns = 0;
  faults::FaultCounts fault_counts;
  /// Hottest die temperature across every node and epoch, and total
  /// node-epochs spent throttle-limited (both 0 on a non-thermal rack).
  double peak_temp_c = 0.0;
  std::int64_t throttle_epochs = 0;
  std::vector<GpuNodeSummary> nodes;
  friend bool operator==(const RackResult&, const RackResult&) = default;
};

/// Runs one rack to completion (all jobs served) or `max_rounds`. `pool`
/// may be null (serial) — results are byte-identical either way.
[[nodiscard]] RackResult runRack(const RackSpec& spec,
                                 ThreadPool* pool = nullptr);

}  // namespace ssm::dc
