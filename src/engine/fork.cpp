#include "engine/fork.hpp"

#include <limits>

#include "common/check.hpp"
#include "gpusim/gpu_snapshot.hpp"

namespace ssm::engine {

Gpu keyframeGpu(const TraceKeyframe& kf) {
  return deserializeGpu(kf.gpu_blob);
}

// The one sanctioned raw-stepping site outside the simulator and the
// SimBackend adapter (see the gpu-stepping rule in tools/ssm_lint).
GpuEpochReport GpuFork::step(std::span<const VfLevel> levels) {
  return gpu_.runEpoch(levels);
}

GpuEpochReport GpuFork::stepUniform(VfLevel level) {
  return gpu_.runEpochUniform(level);
}

int GpuFork::stepUntil(TimeNs deadline_ns, VfLevel level) {
  return gpu_.runUntil(deadline_ns, level);
}

GpuBranch::GpuBranch(Gpu start, const GovernorFactory& factory,
                     std::span<const VfLevel> initial_levels)
    : backend_(std::move(start)),
      levels_(initial_levels.begin(), initial_levels.end()) {
  const int n = backend_.numClusters();
  SSM_CHECK(static_cast<int>(levels_.size()) == n,
            "branch initial levels need one entry per cluster");
  governors_ = makeGovernors(factory, n);
}

RunResult GpuBranch::advance(std::int64_t max_epochs) {
  SSM_CHECK(max_epochs > 0, "branch windows advance at least one epoch");
  LoopConfig cfg;
  // The epoch bound is the only cutoff a branch honors: a window stops at
  // max_epochs or retire, never on wall-clock.
  cfg.max_time_ns = std::numeric_limits<TimeNs>::max();
  cfg.max_epochs = max_epochs;
  cfg.levels_io = &levels_;
  const EpochLoop loop(cfg);
  return loop.run(backend_, backend_,
                  std::span<const std::unique_ptr<DvfsGovernor>>(governors_),
                  "branch");
}

}  // namespace ssm::engine
