// Closed-loop power capping on top of SSMDVFS.
//
// The performance-loss preset is SSMDVFS's single user-facing knob. In a
// deployment the operator usually has the *dual* problem: hold the chip
// under a power cap (a capacity event, a thermal excursion) while giving
// up as little performance as possible. This module closes that loop: an
// integral controller watches chip power per epoch and schedules the
// preset handed to the per-cluster governors — preset rises while the cap
// is violated (allowing deeper V/f drops) and relaxes back toward zero
// when there is headroom.
//
// This is an extension the paper points at but does not build (its preset
// is fixed per run); it exercises the public governor API exactly the way
// a power-management stack would.
#pragma once

#include <memory>

#include "core/ssm_governor.hpp"
#include "gpusim/gpu.hpp"
#include "gpusim/runner.hpp"

namespace ssm {

struct PowerCapConfig {
  double cap_w = 180.0;          ///< chip power target, watts
  /// Integral gain: preset increment per (watt of violation × epoch).
  double ki = 0.002;
  /// Preset decay per epoch while under the cap (relax toward 0).
  double relax = 0.02;
  /// Bounds on the scheduled preset.
  double preset_min = 0.0;
  double preset_max = 0.60;
  /// Initial preset.
  double preset0 = 0.0;
};

/// The preset schedule controller (pure logic; drive it from any loop).
class PowerCapController {
 public:
  explicit PowerCapController(PowerCapConfig cfg);

  /// Feeds one epoch's chip power; returns the preset for the next epoch.
  double onEpoch(double chip_power_w);

  [[nodiscard]] double preset() const noexcept { return preset_; }
  [[nodiscard]] double cap() const noexcept { return cfg_.cap_w; }
  [[nodiscard]] double presetMax() const noexcept { return cfg_.preset_max; }
  [[nodiscard]] int violations() const noexcept { return violations_; }
  [[nodiscard]] int epochs() const noexcept { return epochs_; }
  void reset();

  /// Retargets the cap without disturbing the integral state — the
  /// hierarchical coordinator (src/dc) moves per-GPU caps every control
  /// round while each chip's loop keeps its accumulated preset.
  void setCap(double cap_w);

 private:
  PowerCapConfig cfg_;
  double preset_;
  int violations_ = 0;
  int epochs_ = 0;
};

/// Outcome of a capped run.
struct PowerCapRunResult {
  RunResult run;                 ///< aggregate metrics of the governed run
  double mean_power_w = 0.0;
  double max_power_w = 0.0;
  /// Fraction of epochs above the cap (after the controller reacted).
  double violation_frac = 0.0;
  double final_preset = 0.0;
};

/// Runs a program under SSMDVFS with the power-cap controller scheduling
/// the working preset every epoch. The governors' own self-calibration
/// stays active inside each epoch's decision; the controller only moves
/// the preset they aim for. Implemented over engine::EpochLoop in
/// engine/runner_adapter.cpp (link ssm_engine).
[[nodiscard]] PowerCapRunResult runWithPowerCap(
    Gpu gpu, std::shared_ptr<const SsmModel> model,
    const PowerCapConfig& cap_cfg, SsmGovernorConfig governor_cfg = {},
    TimeNs max_time_ns = 5 * kNsPerMs);

}  // namespace ssm
