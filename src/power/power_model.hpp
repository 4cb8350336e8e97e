// Analytic GPU power model (McPAT substitute).
//
// The paper uses McPAT to turn simulator activity into power. McPAT's core
// output for a DVFS study reduces to the classic decomposition
//     P_cluster = C_eff * V^2 * f * activity + P_leak(V)
// plus an uncore component (L2, NoC, memory controllers, DRAM I/O) that does
// not scale with the cluster clock. Coefficients are calibrated so that a
// fully-active 24-cluster chip at the default operating point lands in the
// GTX Titan X's 250 W TDP class.
#pragma once

#include "power/vf_table.hpp"

namespace ssm {

/// Per-epoch activity factors for one cluster, each in [0, 1].
struct ClusterActivity {
  double issue = 0.0;      ///< fraction of issue slots used (IPC / peak IPC)
  double alu = 0.0;        ///< fraction of cycles an ALU/FPU fired
  double mem = 0.0;        ///< fraction of cycles with L1/LSU activity
  double active = 1.0;     ///< fraction of the epoch the cluster had work
};

/// Coefficients of the cluster power model. Defaults are the Titan X
/// calibration; tests construct variants to probe sensitivity.
struct ClusterPowerParams {
  /// Effective switched capacitance in W / (V^2 * MHz) at full activity.
  double c_eff = 0.00500;
  /// Activity mapping: P_dyn scales with (base + w_issue*issue + w_alu*alu
  /// + w_mem*mem), clamped to [base, 1]. base models clock-tree/idle toggle.
  double act_base = 0.22;
  double w_issue = 0.42;
  double w_alu = 0.22;
  double w_mem = 0.14;
  /// Leakage P = (leak_lin * V + leak_cub * V^3) * exp(alpha * (T - T_cal))
  /// (watts; V in volts, T in degrees Celsius). The voltage polynomial is
  /// calibrated at `leak_cal_temp_c` so that a fully-active 24-cluster chip
  /// at the default operating point lands in the Titan X 250 W TDP class;
  /// callers that do not model temperature evaluate at the calibration
  /// point, where the exponential is exactly 1.0 and the legacy
  /// voltage-only behaviour is reproduced bit-for-bit.
  double leak_lin = 0.40;
  double leak_cub = 0.45;
  /// Exponential leakage-temperature sensitivity in 1/degC. 0.028 doubles
  /// leakage roughly every 25 degC, in line with published GPU leakage
  /// fits (Mei et al., arXiv:1610.01784 survey, sec. on thermal effects).
  double leak_temp_alpha = 0.028;
  /// Temperature at which leak_lin/leak_cub were calibrated (degC): a
  /// steady-state die temperature typical of an open-bench Titan X under
  /// sustained load.
  double leak_cal_temp_c = 60.0;
};

/// Uncore (frequency-domain-independent) power coefficients for the chip.
struct UncorePowerParams {
  double base_w = 22.0;        ///< L2/NoC/MC idle + board overhead share
  double dram_max_w = 30.0;    ///< DRAM+PHY at full bandwidth utilisation
};

/// Computes per-cluster power from operating point and activity.
class ClusterPowerModel {
 public:
  explicit ClusterPowerModel(ClusterPowerParams params = {});

  [[nodiscard]] double dynamicPowerW(const VfPoint& vf,
                                     const ClusterActivity& a) const noexcept;
  /// Leakage at the calibration temperature (voltage-only legacy path).
  [[nodiscard]] double leakagePowerW(const VfPoint& vf) const noexcept;
  /// Temperature-aware leakage. At `temp_c == params().leak_cal_temp_c`
  /// this is bit-identical to the single-argument overload.
  [[nodiscard]] double leakagePowerW(const VfPoint& vf,
                                     double temp_c) const noexcept;
  [[nodiscard]] double totalPowerW(const VfPoint& vf,
                                   const ClusterActivity& a) const noexcept;

  [[nodiscard]] const ClusterPowerParams& params() const noexcept {
    return params_;
  }

 private:
  ClusterPowerParams params_;
};

/// Chip-level aggregation: clusters + uncore.
class ChipPowerModel {
 public:
  ChipPowerModel(int num_clusters, ClusterPowerParams cluster_params = {},
                 UncorePowerParams uncore_params = {});

  [[nodiscard]] const ClusterPowerModel& cluster() const noexcept {
    return cluster_model_;
  }
  [[nodiscard]] int numClusters() const noexcept { return num_clusters_; }
  [[nodiscard]] const UncorePowerParams& uncore() const noexcept {
    return uncore_;
  }

  /// Uncore power given DRAM bandwidth utilisation in [0,1].
  [[nodiscard]] double uncorePowerW(double dram_util) const noexcept;

  /// Whole-chip power with every cluster at the same point and activity
  /// (convenience for calibration and tests).
  [[nodiscard]] double uniformChipPowerW(const VfPoint& vf,
                                         const ClusterActivity& a,
                                         double dram_util) const noexcept;

 private:
  int num_clusters_;
  ClusterPowerModel cluster_model_;
  UncorePowerParams uncore_;
};

/// Accumulates energy over simulated epochs and derives EDP.
class EnergyAccountant {
 public:
  /// Adds `power_w` sustained for `duration_ns`.
  void add(double power_w, TimeNs duration_ns) noexcept;

  [[nodiscard]] double energyJ() const noexcept { return energy_j_; }
  [[nodiscard]] TimeNs elapsedNs() const noexcept { return elapsed_ns_; }

  /// Energy-delay product in joule-seconds.
  [[nodiscard]] double edp() const noexcept {
    return energy_j_ * secondsOf(elapsed_ns_);
  }

  void reset() noexcept {
    energy_j_ = 0.0;
    elapsed_ns_ = 0;
  }

  /// The accumulated totals in snapshot wire order (gpusim/gpu_snapshot.cpp);
  /// `Self` is const when encoding.
  template <class IO, class Self>
  static void fields(IO& io, Self& acc) {
    io(acc.energy_j_);
    io(acc.elapsed_ns_);
  }

 private:
  double energy_j_ = 0.0;
  TimeNs elapsed_ns_ = 0;
};

}  // namespace ssm
