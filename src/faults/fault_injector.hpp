// Seeded realisation of a FaultSpec over one simulation run.
//
// Determinism contract (the fleet contract, see docs/fleet.md): every draw
// comes from an Rng forked off (seed, stream, epoch, cluster) coordinates —
// never from call order, thread identity, or how many draws another cell
// made. The same FaultSpec + seed therefore replays byte-identically at any
// --jobs value, and adding a fault class to the spec never perturbs the
// draws of the others.
//
// One injector serves ONE simulation run (single-writer, like
// EpochTraceRecorder); parallel sweeps construct one per job.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "faults/fault_spec.hpp"
#include "gpusim/fault_hook.hpp"
#include "gpusim/gpu.hpp"

namespace ssm {
class JsonWriter;
}  // namespace ssm

namespace ssm::faults {

/// How many cluster-epoch events each fault class actually injected
/// (heatsoak counts epochs — it is chip-wide, not per-cluster).
struct FaultCounts {
  std::int64_t noise = 0;
  std::int64_t dropout = 0;
  std::int64_t delay = 0;
  std::int64_t failed = 0;
  std::int64_t stuck = 0;
  std::int64_t jitter = 0;
  std::int64_t heatsoak = 0;
  std::int64_t tsensor = 0;
  std::int64_t tjolt = 0;

  [[nodiscard]] std::int64_t total() const noexcept {
    return noise + dropout + delay + failed + stuck + jitter + heatsoak +
           tsensor + tjolt;
  }
  /// The "fault_counts" object of `run --json` and sweep JSONL rows.
  void writeJson(JsonWriter& w) const;
  FaultCounts& operator+=(const FaultCounts& o) noexcept {
    noise += o.noise;
    dropout += o.dropout;
    delay += o.delay;
    failed += o.failed;
    stuck += o.stuck;
    jitter += o.jitter;
    heatsoak += o.heatsoak;
    tsensor += o.tsensor;
    tjolt += o.tjolt;
    return *this;
  }
  friend bool operator==(const FaultCounts&, const FaultCounts&) = default;
};

/// The injector seed for fault scenario `scenario` of a run simulated with
/// `sim_seed`: a salted fork off the run's own coordinates (never thread
/// identity), so a sweep cell, `ssmdvfs run --faults` and the fault bench
/// replay the same fault pattern at any --jobs value.
[[nodiscard]] inline std::uint64_t injectorSeed(std::uint64_t sim_seed,
                                                std::uint64_t scenario) {
  return Rng(sim_seed).fork(0xFA17).fork(scenario).nextU64();
}

class FaultInjector final : public EpochFaultHook {
 public:
  /// `seed` should itself be coordinate-derived (e.g. forked from the
  /// sweep cell's sim_seed) so fleet replays stay deterministic.
  FaultInjector(FaultSpec spec, std::uint64_t seed);

  void onTelemetry(GpuEpochReport& report) override;
  VfLevel onActuate(int cluster_id, VfLevel requested,
                    VfLevel current) override;

  [[nodiscard]] const FaultCounts& counts() const noexcept { return counts_; }

 private:
  /// Independent stream per (purpose, epoch, cluster).
  [[nodiscard]] Rng cellRng(std::uint64_t stream, std::int64_t epoch,
                            int cluster) const noexcept;

  void corruptCluster(EpochObservation& obs, int cluster);

  /// Corrupts the temperature tracks (heatsoak, tsensor, tjolt). No-op on
  /// reports without thermal tracks: there is no sensor to corrupt.
  void corruptThermal(GpuEpochReport& report);

  FaultSpec spec_;
  Rng root_;
  FaultCounts counts_;
  std::int64_t epoch_ = -1;  ///< index of the epoch last seen by onTelemetry

  /// Pristine telemetry history per cluster (ring, newest last) feeding the
  /// stale-dropout and delayed-telemetry classes.
  std::vector<std::vector<EpochObservation>> history_;
  std::size_t history_depth_ = 0;
  /// First epoch index at which each cluster's stuck level unfreezes.
  std::vector<std::int64_t> stuck_until_;

  /// Pristine per-cluster temperature history ring (tsensor mode=lag).
  std::vector<std::vector<double>> temp_history_;
  std::size_t temp_history_depth_ = 0;
  /// tsensor mode=stuck latch: held reading and first epoch it releases.
  std::vector<double> sensor_stuck_value_;
  std::vector<std::int64_t> sensor_stuck_until_;
};

}  // namespace ssm::faults
