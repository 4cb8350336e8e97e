// Top-level GPU: 24 clusters, shared memory system, per-cluster DVFS.
//
// The Gpu advances in aligned 10 µs epochs. Within an epoch each cluster
// runs in its own clock domain at the V/f level requested for it; at the
// epoch boundary the Gpu aggregates DRAM traffic into a bandwidth-queueing
// term for the next epoch, prices energy through the ChipPowerModel and
// emits one EpochObservation per cluster for the governors.
//
// The whole object is value-semantic: copying a Gpu snapshots the complete
// simulation state. Data generation (§III.A) relies on this to replay the
// same execution window at each of the six operating points.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gpusim/governor.hpp"
#include "gpusim/gpu_config.hpp"
#include "gpusim/sm_cluster.hpp"
#include "power/power_model.hpp"
#include "power/vf_table.hpp"
#include "thermal/thermal_model.hpp"
#include "workloads/kernel_profile.hpp"

namespace ssm {

class ByteWriter;
class ByteReader;

/// Everything observable about one simulated epoch.
struct GpuEpochReport {
  std::vector<EpochObservation> clusters;
  double chip_power_w = 0.0;
  double dram_util = 0.0;
  TimeNs epoch_start_ns = 0;
  TimeNs epoch_len_ns = 0;
  bool all_done = false;
  /// Post-step node temperatures when thermal modeling is attached; empty
  /// (and package_temp_c == 0) otherwise. One entry per cluster.
  std::vector<double> cluster_temps_c;
  double package_temp_c = 0.0;

  [[nodiscard]] bool hasThermal() const noexcept {
    return !cluster_temps_c.empty();
  }
};

class Gpu {
 public:
  Gpu(const GpuConfig& cfg, VfTable vf, const KernelProfile& kernel,
      std::uint64_t seed, ChipPowerModel power_model = ChipPowerModel(24));

  [[nodiscard]] const VfTable& vfTable() const noexcept { return vf_; }
  [[nodiscard]] const GpuConfig& config() const noexcept { return *cfg_; }
  [[nodiscard]] int numClusters() const noexcept {
    return static_cast<int>(clusters_.size());
  }

  /// Runs one epoch with per-cluster levels (levels.size() == numClusters()).
  GpuEpochReport runEpoch(std::span<const VfLevel> levels);

  /// Runs one epoch with the same level on every cluster.
  GpuEpochReport runEpochUniform(VfLevel level);

  /// Runs whole epochs until the program retires or `deadline_ns` is
  /// reached, at the given uniform level. Returns the number of epochs run.
  int runUntil(TimeNs deadline_ns, VfLevel level);

  [[nodiscard]] bool allDone() const noexcept;
  [[nodiscard]] TimeNs nowNs() const noexcept { return now_ns_; }

  /// Wall-clock time at which the last warp retired (-1 while running).
  [[nodiscard]] TimeNs finishTimeNs() const noexcept;

  [[nodiscard]] double totalEnergyJ() const noexcept {
    return energy_.energyJ();
  }
  /// EDP using the retire time when done, else the current time.
  [[nodiscard]] double edp() const noexcept;

  [[nodiscard]] std::int64_t totalInstructions() const noexcept;

  /// Chip-wide instructions issued in the most recent epoch.
  [[nodiscard]] std::int64_t lastEpochInstructions() const noexcept {
    return last_epoch_insts_;
  }

  /// Attaches the RC thermal model: leakage becomes temperature-dependent
  /// (fed from the node temperatures at the start of each epoch) and every
  /// subsequent report carries post-step temperature tracks. Never attached
  /// by default — without it the simulator is bit-identical to the
  /// pre-thermal code. Copying the Gpu snapshots the thermal state too.
  void attachThermal(const thermal::ThermalParams& params);

  [[nodiscard]] bool hasThermal() const noexcept {
    return thermal_.has_value();
  }
  /// Thermal node snapshot; requires hasThermal().
  [[nodiscard]] const thermal::ThermalState& thermalState() const {
    return thermal_->state();
  }
  /// Overwrites node temperatures (datacenter carry-over between jobs);
  /// requires hasThermal().
  void setThermalState(const thermal::ThermalState& state) {
    thermal_->setState(state);
  }

  /// Serializes the complete machine — config, V/f table, kernel profile,
  /// power model, epoch-boundary microarchitectural state, RNG streams and
  /// thermal state — so restoreState continues the exact simulation. Only
  /// valid between epochs. Prefer the serializeGpu/deserializeGpu wrappers
  /// (gpusim/gpu_snapshot.hpp); implemented in gpu_snapshot.cpp.
  void saveState(ByteWriter& w) const;

  /// Rebuilds a machine mid-run from a saveState image; malformed images
  /// throw DataError.
  [[nodiscard]] static Gpu restoreState(ByteReader& r);

 private:
  /// The mutable chip-level state in snapshot wire order; `Self` is const
  /// when encoding. Defined in gpu_snapshot.cpp.
  template <class IO, class Self>
  static void chipFields(IO& io, Self& gpu);

  std::shared_ptr<const GpuConfig> cfg_;
  VfTable vf_;
  ChipPowerModel power_;
  std::vector<SmCluster> clusters_;
  std::vector<VfLevel> prev_levels_;
  MemEnv mem_env_;
  EnergyAccountant energy_;
  TimeNs now_ns_ = 0;
  std::int64_t last_epoch_insts_ = 0;
  std::optional<thermal::ThermalModel> thermal_;
  std::vector<double> thermal_power_w_;  ///< per-epoch scratch, preallocated
};

}  // namespace ssm
