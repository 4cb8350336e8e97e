// Hierarchical power capping: one rack-level integral loop on top of the
// per-GPU PowerCapController loops.
//
// The rack owns a single power budget (a capacity event, a busbar limit).
// Each control round the coordinator (1) feeds total rack power into a
// rack-level PowerCapController whose preset becomes a fleet-wide bias every
// chip adds to its own scheduled preset — the integral action that catches a
// whole rack drifting over budget even when every chip is individually under
// its slice — and (2) re-splits the budget into per-GPU caps: every GPU
// starts from the equal share, idle GPUs donate the headroom above their
// measured draw (down to a floor), and the donated watts are redistributed
// to loaded GPUs in proportion to their demand. The per-GPU integral loops
// themselves live in GpuNode and keep their accumulated state across
// retargets (PowerCapController::setCap).
//
// The sum of the per-GPU caps never exceeds the rack cap: idle GPUs only
// ever shrink below the equal share, and loaded GPUs split exactly the
// donated amount.
//
// This file is under the hot-path-alloc lint contract: onRound() runs every
// control round of every rack simulation and never allocates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/power_cap.hpp"

namespace ssm::dc {

struct RackPowerConfig {
  /// Total rack budget, watts.
  double rack_cap_w = 2000.0;
  /// Per-GPU controller template; cap_w is retargeted by the coordinator
  /// every round, the gains/bounds apply per chip.
  PowerCapConfig per_gpu;
  /// Rack-level integral loop (gains are per control round, which spans
  /// several epochs — hence stiffer than the per-epoch per-GPU defaults).
  double rack_ki = 0.004;
  double rack_relax = 0.05;
  /// Cap on the fleet-wide preset bias the rack loop may inject.
  double rack_bias_max = 0.40;
  /// No GPU's cap ever drops below this floor (idle draw + wake headroom).
  double idle_floor_w = 60.0;
  /// A loaded GPU's demand is its measured draw times this margin; an idle
  /// GPU keeps min(share, max(floor, draw × margin)) and donates the rest.
  double demand_margin = 1.25;
};

class RackPowerCoordinator {
 public:
  RackPowerCoordinator(const RackPowerConfig& cfg, int gpus);

  /// Feeds one control round: `power_w[i]` is GPU i's mean draw over the
  /// round, `loaded[i]` (0/1) whether it was busy or had queued work.
  /// Recomputes the per-GPU caps and the rack bias for the NEXT round.
  void onRound(std::span<const double> power_w,
               std::span<const std::uint8_t> loaded);

  /// Per-GPU cap for the coming round (equal share before the first round).
  [[nodiscard]] double capFor(int gpu) const { return caps_[gpu]; }
  /// Fleet-wide preset bias from the rack integral loop.
  [[nodiscard]] double rackBias() const noexcept { return rack_.preset(); }
  [[nodiscard]] int rounds() const noexcept { return rack_.epochs(); }
  /// Rounds whose mean rack power exceeded the rack cap.
  [[nodiscard]] int violationRounds() const noexcept {
    return rack_.violations();
  }
  void reset();

 private:
  RackPowerConfig cfg_;
  PowerCapController rack_;
  std::vector<double> caps_;
  std::vector<double> weights_;  ///< scratch: loaded GPUs' demand weights
  int gpus_;
};

}  // namespace ssm::dc
