// The fork-resimulate primitive: branch a live machine and advance the copy.
//
// Every counterfactual in this codebase — datagen's per-level replay windows
// (§III.A), closed-loop counterfactual replay, what-if screening — is the
// same move: snapshot a value-semantic Gpu, then step the copy forward while
// the original (or the recorded history) stands still. Before this header
// each layer hand-rolled that loop around raw Gpu stepping calls; it now
// lives here once, and fork.* is the only sanctioned Gpu-stepping site
// outside the simulator itself and the SimBackend adapter (enforced by
// ssm_lint's gpu-stepping rule).
//
// Two granularities:
//
//   * GpuFork    — a bare branched machine with raw epoch stepping. This is
//                  datagen's tool: fixed uniform levels, no governors, the
//                  caller owns the control policy.
//   * GpuBranch  — a branched machine driven by real governors through the
//                  full EpochLoop, advanced window by window. This is
//                  counterfactual replay's tool: repeated advance(k)
//                  calls are exactly equivalent to one long closed-loop
//                  run, because commanded levels persist across calls via
//                  LoopConfig::levels_io.
//
// keyframeGpu() turns a trace keyframe (.ssmtrace v3) back into the live
// machine it snapshotted, so branches can start from recorded history.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/epoch_loop.hpp"
#include "engine/sim_backend.hpp"
#include "engine/trace_io.hpp"
#include "gpusim/gpu.hpp"
#include "gpusim/runner.hpp"

namespace ssm::engine {

/// Rebuilds the live machine a trace keyframe snapshotted. The returned Gpu
/// sits at the epoch boundary `kf.epoch`: stepping it re-produces epochs
/// kf.epoch, kf.epoch+1, ... byte-identically to the recording run (given
/// the same commanded levels). Malformed blobs throw DataError.
[[nodiscard]] Gpu keyframeGpu(const TraceKeyframe& kf);

/// A branched machine with raw epoch stepping — the caller is the policy.
/// Copying the source Gpu into the fork snapshots the complete simulation
/// state (microarchitecture, RNG streams, thermal nodes), so many forks of
/// one machine advance independently and deterministically.
class GpuFork {
 public:
  explicit GpuFork(Gpu start) : gpu_(std::move(start)) {}

  /// One epoch with per-cluster levels (levels.size() == numClusters()).
  GpuEpochReport step(std::span<const VfLevel> levels);
  /// One epoch with the same level on every cluster.
  GpuEpochReport stepUniform(VfLevel level);
  /// Whole epochs until retire or `deadline_ns`, at a uniform level.
  /// Returns the number of epochs run.
  int stepUntil(TimeNs deadline_ns, VfLevel level);

  [[nodiscard]] const Gpu& gpu() const noexcept { return gpu_; }
  [[nodiscard]] bool allDone() const noexcept { return gpu_.allDone(); }
  [[nodiscard]] TimeNs nowNs() const noexcept { return gpu_.nowNs(); }
  [[nodiscard]] std::int64_t totalInstructions() const noexcept {
    return gpu_.totalInstructions();
  }
  [[nodiscard]] std::int64_t lastEpochInstructions() const noexcept {
    return gpu_.lastEpochInstructions();
  }
  [[nodiscard]] double totalEnergyJ() const noexcept {
    return gpu_.totalEnergyJ();
  }
  [[nodiscard]] const GpuConfig& config() const noexcept {
    return gpu_.config();
  }

 private:
  Gpu gpu_;
};

/// A branched machine driven by real governors through the EpochLoop,
/// advanced in bounded windows. Governors are created once in the
/// constructor and persist across advance() calls, as do the commanded
/// levels, so N bounded advances are exactly one long closed-loop run.
/// Faults are deliberately not a branch seam: a branch restored from a
/// keyframe already carries the recorded faults' effects in its machine
/// state. A hardened branch takes a HardenedGovernorFactory.
class GpuBranch {
 public:
  /// `initial_levels` seeds the first epoch's commanded levels (size must be
  /// numClusters()) — for a branch resumed from a keyframe these are the
  /// levels the recorded run's clusters ran at in the keyframe's epoch.
  GpuBranch(Gpu start, const GovernorFactory& factory,
            std::span<const VfLevel> initial_levels);

  /// Advances up to `max_epochs` epochs (must be > 0) closed-loop; stops
  /// early when the program retires. Returns the window's RunResult (epoch
  /// count, energy/time totals reflect the whole branch so far).
  RunResult advance(std::int64_t max_epochs);

  [[nodiscard]] const Gpu& gpu() const noexcept { return backend_.gpu(); }
  [[nodiscard]] bool done() const noexcept { return backend_.done(); }
  [[nodiscard]] const std::vector<VfLevel>& levels() const noexcept {
    return levels_;
  }

 private:
  SimBackend backend_;
  std::vector<std::unique_ptr<DvfsGovernor>> governors_;
  std::vector<VfLevel> levels_;
};

}  // namespace ssm::engine
