#include "engine/epoch_loop.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "engine/trace_io.hpp"
#include "gpusim/fault_hook.hpp"
#include "gpusim/gpu_snapshot.hpp"
#include "gpusim/trace.hpp"
#include "thermal/thermal_throttle.hpp"

namespace ssm::engine {

namespace {

/// The chip-wide governor's observation: the live clusters' counters,
/// power and instructions averaged (a chip with no live cluster reports
/// cluster_done). The level is the last live cluster's.
EpochObservation liveClusterAverage(const GpuEpochReport& report) {
  EpochObservation agg;
  agg.epoch_start_ns = report.epoch_start_ns;
  agg.epoch_len_ns = report.epoch_len_ns;
  int live = 0;
  for (const auto& obs : report.clusters) {
    if (obs.cluster_done) continue;
    ++live;
    agg.instructions += obs.instructions;
    agg.power_w += obs.power_w;
    for (int c = 0; c < kNumCounters; ++c) {
      const auto id = static_cast<CounterId>(c);
      agg.counters.add(id, obs.counters.get(id));
    }
    agg.level = obs.level;
  }
  if (live > 0) {
    const double inv = 1.0 / static_cast<double>(live);
    agg.instructions =
        static_cast<std::int64_t>(static_cast<double>(agg.instructions) * inv);
    agg.power_w *= inv;
    for (int c = 0; c < kNumCounters; ++c) {
      const auto id = static_cast<CounterId>(c);
      agg.counters.set(id, agg.counters.get(id) * inv);
    }
  } else {
    agg.cluster_done = true;
  }
  return agg;
}

}  // namespace

std::vector<std::unique_ptr<DvfsGovernor>> makeGovernors(
    const GovernorFactory& factory, int count) {
  SSM_CHECK(count > 0, "governor count must be positive");
  std::vector<std::unique_ptr<DvfsGovernor>> governors;
  governors.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) governors.push_back(factory.create(i));
  return governors;
}

RunResult EpochLoop::run(EpochSource& source, ActuationSink& sink,
                         const GovernorFactory& factory,
                         std::string mechanism_name) const {
  const auto governors =
      makeGovernors(factory, cfg_.chip_wide ? 1 : source.numClusters());
  return run(source, sink, governors, std::move(mechanism_name));
}

RunResult EpochLoop::run(
    EpochSource& source, ActuationSink& sink,
    std::span<const std::unique_ptr<DvfsGovernor>> governors,
    std::string mechanism_name) const {
  const int n = source.numClusters();
  const VfTable& vf = source.vfTable();
  if (cfg_.chip_wide) {
    SSM_CHECK(governors.size() == 1,
              "chip-wide mode drives exactly one governor");
    SSM_CHECK(cfg_.faults == nullptr,
              "fault injection is per-cluster; unsupported in chip-wide mode");
    SSM_CHECK(cfg_.throttle == nullptr,
              "thermal throttle is per-cluster; unsupported in chip-wide mode");
    SSM_CHECK(cfg_.keyframe_every == 0 && cfg_.levels_io == nullptr,
              "keyframe capture and shared level state are per-cluster "
              "concerns; unsupported in chip-wide mode");
  } else {
    SSM_CHECK(static_cast<int>(governors.size()) == n,
              "per-cluster mode needs one governor per cluster");
  }

  const bool capture_keyframes = cfg_.keyframe_every > 0;
  if (capture_keyframes) {
    SSM_CHECK(cfg_.keyframes != nullptr,
              "keyframe capture needs a destination vector");
    SSM_CHECK(source.gpuState() != nullptr,
              "keyframe capture requires a live-machine source");
  }
  if (cfg_.levels_io != nullptr)
    SSM_CHECK(static_cast<int>(cfg_.levels_io->size()) == n,
              "levels_io needs one level per cluster");
  std::vector<VfLevel> levels =
      cfg_.levels_io != nullptr
          ? *cfg_.levels_io
          : std::vector<VfLevel>(static_cast<std::size_t>(n),
                                 vf.defaultLevel());
  std::vector<double> level_epochs(vf.size(), 0.0);

  RunResult result;
  result.mechanism = std::move(mechanism_name);
  double power_time_sum = 0.0;
  const std::int64_t throttle_epochs_before =
      cfg_.throttle != nullptr ? cfg_.throttle->throttleEpochs() : 0;

  while (!source.done() && source.nowNs() < cfg_.max_time_ns &&
         (cfg_.max_epochs == 0 || result.epochs < cfg_.max_epochs)) {
    // Keyframes snapshot the machine BEFORE the boundary's epoch runs, so a
    // branch restored from keyframe k re-produces epochs k, k+1, ...
    // byte-identically. Epoch 0 (the initial state) is always included.
    if (capture_keyframes && result.epochs % cfg_.keyframe_every == 0)
      cfg_.keyframes->push_back(
          TraceKeyframe{static_cast<std::int64_t>(result.epochs),
                        serializeGpu(*source.gpuState())});
    GpuEpochReport report = source.nextEpoch(levels);
    // Physical peak temperature, captured before sensor-fault corruption:
    // the die heats regardless of what a broken sensor reports.
    if (report.hasThermal()) {
      result.peak_temp_c = std::max(
          result.peak_temp_c,
          std::max(report.package_temp_c,
                   *std::max_element(report.cluster_temps_c.begin(),
                                     report.cluster_temps_c.end())));
    }
    // Faulted telemetry is what both the governors and the trace observe;
    // the source's internal state and energy accounting stay truthful.
    if (cfg_.faults != nullptr) cfg_.faults->onTelemetry(report);
    if (cfg_.trace != nullptr) cfg_.trace->record(report);
    // The throttle, like the governors, reads sensor (post-fault) values.
    if (cfg_.throttle != nullptr && report.hasThermal())
      cfg_.throttle->observe(report.cluster_temps_c, report.package_temp_c);
    ++result.epochs;
    power_time_sum += report.chip_power_w;
    // Chip-wide mode differs only in its decision step: the one governor
    // decides once on the live-cluster average, for every cluster.
    const VfLevel chip_level =
        cfg_.chip_wide
            ? vf.clamp(governors.front()->decide(liveClusterAverage(report)))
            : VfLevel{0};
    for (int i = 0; i < n; ++i) {
      const auto& obs = report.clusters[static_cast<std::size_t>(i)];
      level_epochs[static_cast<std::size_t>(obs.level)] += 1.0;
      VfLevel requested =
          cfg_.chip_wide
              ? chip_level
              : vf.clamp(governors[static_cast<std::size_t>(i)]->decide(obs));
      // Arbitration order mirrors hardware: the protection firmware caps
      // the governor's request, then the actuator (fault seam) may still
      // fail or stick the transition downstream of it. A rack node's sink
      // then applies its power-cap V/f ceiling last (dc::GpuNode).
      if (cfg_.throttle != nullptr)
        requested = cfg_.throttle->clamp(i, requested);
      const VfLevel commanded =
          cfg_.faults != nullptr
              ? cfg_.faults->onActuate(i, requested, obs.level)
              : requested;
      levels[static_cast<std::size_t>(i)] =
          sink.actuate(i, commanded, obs.level);
    }
    if (report.all_done) break;
  }

  const bool epoch_bound_hit =
      cfg_.max_epochs != 0 && result.epochs >= cfg_.max_epochs;
  SSM_CHECK(source.done() || epoch_bound_hit,
            std::string(cfg_.timeout_message));
  if (cfg_.levels_io != nullptr) *cfg_.levels_io = levels;

  const StreamStats stats = source.stats();
  result.exec_time_ns = stats.exec_time_ns;
  result.energy_j = stats.energy_j;
  result.edp = stats.edp;
  result.instructions = stats.instructions;
  result.mean_power_w =
      result.epochs > 0 ? power_time_sum / result.epochs : 0.0;
  if (cfg_.throttle != nullptr)
    result.throttle_epochs = static_cast<int>(
        cfg_.throttle->throttleEpochs() - throttle_epochs_before);

  const double total_cluster_epochs =
      static_cast<double>(result.epochs) * static_cast<double>(n);
  result.level_histogram.resize(level_epochs.size());
  for (std::size_t l = 0; l < level_epochs.size(); ++l)
    result.level_histogram[l] =
        total_cluster_epochs > 0 ? level_epochs[l] / total_cluster_epochs
                                 : 0.0;
  return result;
}

}  // namespace ssm::engine
