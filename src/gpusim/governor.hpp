// The DVFS-governor interface shared by SSMDVFS and every baseline.
//
// The simulator calls the governor once per cluster per 10 µs epoch with the
// epoch's observation (counters + power + V/f level) and applies the
// returned level to the next epoch. Keeping SSMDVFS, PCSTALL, F-LEMMA and
// the static baseline behind one interface makes full-system comparisons
// strictly like-for-like (§V.B).
#pragma once

#include <memory>

#include "counters/counters.hpp"
#include "power/vf_table.hpp"

namespace ssm {

/// Everything a governor may observe about one cluster-epoch.
struct EpochObservation {
  CounterBlock counters;
  VfLevel level = 0;           ///< level the cluster ran at this epoch
  double power_w = 0.0;        ///< cluster power this epoch (= PPC)
  std::int64_t instructions = 0;
  TimeNs epoch_start_ns = 0;
  TimeNs epoch_len_ns = 0;
  int cluster_id = 0;
  bool cluster_done = false;   ///< all warps on this cluster retired
};

/// Per-cluster DVFS policy. Implementations must be deterministic given
/// their construction arguments (any randomness comes from a seeded Rng).
class DvfsGovernor {
 public:
  virtual ~DvfsGovernor() = default;

  /// Returns the V/f level for the next epoch.
  virtual VfLevel decide(const EpochObservation& obs) = 0;

  /// Resets internal state between programs (RL baselines keep learned
  /// weights but clear episodic state; stateless governors ignore this).
  virtual void reset() {}
};

/// Always runs at a fixed level; level = table default reproduces the
/// paper's baseline configuration.
class StaticGovernor final : public DvfsGovernor {
 public:
  explicit StaticGovernor(VfLevel level) : level_(level) {}
  VfLevel decide(const EpochObservation&) override { return level_; }

 private:
  VfLevel level_;
};

/// Factory for one governor instance per cluster (each cluster carries its
/// own policy state, as per-cluster DVFS requires).
class GovernorFactory {
 public:
  virtual ~GovernorFactory() = default;
  [[nodiscard]] virtual std::unique_ptr<DvfsGovernor> create(
      int cluster_id) const = 0;
};

/// One StaticGovernor per cluster, all pinned to the same level.
class StaticFactory final : public GovernorFactory {
 public:
  explicit StaticFactory(VfLevel level) : level_(level) {}
  [[nodiscard]] std::unique_ptr<DvfsGovernor> create(int) const override {
    return std::make_unique<StaticGovernor>(level_);
  }

 private:
  VfLevel level_;
};

}  // namespace ssm
