// Per-cluster, per-epoch performance counters.
//
// §III.B of the paper collects 47 performance counters per 10 µs epoch and
// groups them into three categories: instruction metrics, execution-stall
// metrics, and power metrics. This module defines that counter block, the
// exact 47-counter vector used for feature selection (§IV.A), and the
// 5-feature subset of Table I that survives RFE:
//   IPC (instructions per core), PPC (power per core), MH (memory hazard),
//   MH\L (memory hazard from other than load), L1CRM (L1 cache read miss).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/units.hpp"

namespace ssm {

/// Category of a performance counter (§III.B).
enum class CounterCategory { kInstruction, kStall, kPower, kClock };

/// Identifiers for all 47 counters. The order is the feature order used by
/// RFE and by the raw-47 model variant.
enum class CounterId : int {
  // --- instruction metrics -------------------------------------------
  kInstTotal = 0,
  kInstIalu,
  kInstFalu,
  kInstSfu,
  kInstLoad,
  kInstStore,
  kInstShared,
  kInstBranch,
  kIpc,              ///< instructions per cycle over the epoch
  kInstPerWarp,
  kIssueUtil,        ///< issued slots / (issue width * cycles)
  kFracCompute,
  kFracMem,
  kFracBranch,
  // --- execution stall metrics ---------------------------------------
  kStallMemLoadCycles,    ///< warp blocked on an outstanding load
  kStallMemOtherCycles,   ///< blocked on store buffer / fence / atomic (MH\L)
  kStallMemTotalCycles,   ///< MH = load + other memory hazards
  kStallControlCycles,    ///< control hazard (divergence / branch resolve)
  kStallExecDepCycles,    ///< scoreboard dependency on an ALU result
  kStallNoReadyCycles,    ///< cycles with zero ready warps
  kL1ReadAccess,
  kL1ReadMiss,            ///< L1CRM
  kL1ReadMissRate,
  kL1WriteAccess,
  kL1WriteMiss,
  kL2Access,
  kL2Miss,
  kL2MissRate,
  kDramReqs,
  kDramBytes,
  kDramUtil,
  kMshrFullEvents,
  kStoreBufFullEvents,
  kAvgMemLatencyNs,
  kStallMemFrac,
  kStallControlFrac,
  kStallExecFrac,
  // --- power metrics ---------------------------------------------------
  kPowerClusterW,         ///< PPC
  kPowerDynamicW,
  kPowerLeakageW,
  kEnergyEpochMj,         ///< millijoules in this epoch
  kAvgVoltage,
  // --- clock / misc -----------------------------------------------------
  kFreqMhz,
  kCyclesElapsed,
  kActiveCycles,
  kOccupancy,
  kWarpsDone,
  kCount  // = 47
};

inline constexpr int kNumCounters = static_cast<int>(CounterId::kCount);
static_assert(kNumCounters == 47, "the paper collects 47 counters");

/// Human-readable short name, e.g. "ipc", "l1_read_miss".
[[nodiscard]] std::string_view counterName(CounterId id) noexcept;

/// The §III.B category of a counter.
[[nodiscard]] CounterCategory counterCategory(CounterId id) noexcept;

/// One-line description of what the counter measures and its unit.
[[nodiscard]] std::string_view counterDescription(CounterId id) noexcept;

/// Fixed-size counter vector for one cluster-epoch.
class CounterBlock {
 public:
  [[nodiscard]] double get(CounterId id) const noexcept {
    return values_[static_cast<std::size_t>(id)];
  }
  void set(CounterId id, double v) noexcept {
    values_[static_cast<std::size_t>(id)] = v;
  }
  void add(CounterId id, double v) noexcept {
    values_[static_cast<std::size_t>(id)] += v;
  }

  [[nodiscard]] std::span<const double> raw() const noexcept {
    return values_;
  }
  [[nodiscard]] std::span<double> raw() noexcept { return values_; }

  void clear() noexcept { values_.fill(0.0); }

  /// Fills the derived (rate/fraction) counters from the raw event counts.
  /// Must be called once at the end of an epoch.
  void finalizeDerived(Cycles cycles_in_epoch, int max_warps,
                       int issue_width) noexcept;

 private:
  std::array<double, kNumCounters> values_{};
};

/// The Table I feature subset, in the order fed to the models.
inline constexpr std::array<CounterId, 5> kTable1Features = {
    CounterId::kIpc,                  // IPC
    CounterId::kPowerClusterW,        // PPC
    CounterId::kStallMemTotalCycles,  // MH
    CounterId::kStallMemOtherCycles,  // MH\L
    CounterId::kL1ReadMiss,           // L1CRM
};

/// Extracts the Table I 5-feature vector from a counter block.
[[nodiscard]] std::array<double, 5> extractTable1Features(
    const CounterBlock& c) noexcept;

}  // namespace ssm
