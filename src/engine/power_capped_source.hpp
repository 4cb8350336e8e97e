// PowerCappedSource: the engine's one power-cap seam. It forwards a
// source's epochs, feeds each one's chip power to a PowerCapController,
// adds a rack bias, and hands the effective preset to the SSMDVFS governors
// before they decide on that epoch. runWithPowerCap passes bias 0 (exact:
// onEpoch already clamps to preset_max); the rack's dc::GpuNode passes the
// coordinator's bias and decodes `effective_preset` into a V/f ceiling.
#pragma once

#include <algorithm>
#include <span>

#include "core/power_cap.hpp"
#include "core/ssm_governor.hpp"
#include "engine/epoch_stream.hpp"

namespace ssm::engine {

struct PowerCappedSource final : EpochSource {
  PowerCappedSource(EpochSource& in, PowerCapController& ctl,
                    double rack_bias,
                    std::span<SsmdvfsGovernor* const> presetable)
      : inner(in), controller(ctl), bias(rack_bias), governors(presetable) {}

  const VfTable& vfTable() const noexcept override { return inner.vfTable(); }
  int numClusters() const noexcept override { return inner.numClusters(); }
  bool done() const noexcept override { return inner.done(); }
  TimeNs nowNs() const noexcept override { return inner.nowNs(); }
  StreamStats stats() const override { return inner.stats(); }
  GpuEpochReport nextEpoch(std::span<const VfLevel> levels) override {
    GpuEpochReport report = inner.nextEpoch(levels);
    power_sum_w += report.chip_power_w;
    max_power_w = std::max(max_power_w, report.chip_power_w);
    effective_preset = std::min(controller.onEpoch(report.chip_power_w) + bias,
                                controller.presetMax());
    for (SsmdvfsGovernor* gov : governors)
      gov->setLossPreset(std::max(effective_preset, 1e-6));
    return report;
  }

  EpochSource& inner;
  PowerCapController& controller;  ///< also counts the over-cap epochs
  double bias;
  std::span<SsmdvfsGovernor* const> governors;
  /// Running chip-power sum; seed it to keep one sum, in epoch order,
  /// across several runs.
  double power_sum_w = 0.0;
  double max_power_w = 0.0;
  /// Chip preset plus rack bias for the epoch just streamed, clamped to
  /// preset_max.
  double effective_preset = 0.0;
};

}  // namespace ssm::engine
