// EpochLoop: the one epoch-driving loop behind every full-program run.
//
// Before the engine layer this loop existed three times (runWithGovernor,
// runWithChipGovernor, runSequence) and could only ever drive the live Gpu.
// It now lives here once, backend-agnostic: telemetry comes from an
// EpochSource, commanded levels go through an ActuationSink, and the
// cross-cutting seams — trace recording, fault injection, thermal throttle,
// keyframe capture — are loop concerns configured once instead of being
// re-implemented per entry point. Governor decorators such as the
// HardenedGovernor watchdog are not loop concerns: wrap the factory
// (HardenedGovernorFactory) before handing it to the loop.
//
// Numeric contract: driving a SimBackend, the loop's arithmetic (accumulator
// order, histogram bookkeeping, aggregation in chip-wide mode) is exactly
// the pre-engine runner's, so RunResults are byte-identical to the old code
// paths (pinned by tests/test_engine.cpp).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/epoch_stream.hpp"
#include "gpusim/runner.hpp"

namespace ssm {
class EpochTraceRecorder;
class EpochFaultHook;
}  // namespace ssm

namespace ssm::thermal {
class ThermalThrottle;
}  // namespace ssm::thermal

namespace ssm::engine {

struct TraceKeyframe;

/// Per-run loop configuration: the cross-cutting seams.
struct LoopConfig {
  TimeNs max_time_ns = 5 * kNsPerMs;
  /// Stop after this many epochs (0 = unbounded). Unlike the max_time_ns
  /// timeout, hitting the epoch bound is a NORMAL exit — the fork engine
  /// advances branches window by window with it — so the loop does not
  /// require the stream to be done when the bound is what stopped it.
  std::int64_t max_epochs = 0;
  /// Per-cluster level state shared across runs: when non-null the loop
  /// seeds its commanded levels from this vector instead of the V/f
  /// default and writes the final levels back on exit, so driving a stream
  /// through N bounded runs is exactly equivalent to one long run.
  /// Per-cluster mode only; size must equal numClusters().
  std::vector<VfLevel>* levels_io = nullptr;
  /// Snapshot the source's machine every N epochs (0 = off) into
  /// `keyframes`: one TraceKeyframe per boundary, starting with epoch 0
  /// (the initial state). Requires a source with gpuState() != nullptr and
  /// a non-null `keyframes`; per-cluster mode only.
  std::int64_t keyframe_every = 0;
  std::vector<TraceKeyframe>* keyframes = nullptr;
  /// Streams every epoch report (post fault corruption) when non-null.
  EpochTraceRecorder* trace = nullptr;
  /// Corrupts telemetry / arbitrates actuation when non-null. Zero-cost
  /// when null: one pointer comparison per call site, nothing else.
  EpochFaultHook* faults = nullptr;
  /// Thermal throttle arbitrated between governor decision and actuation
  /// when non-null: it observes the (possibly fault-corrupted) temperature
  /// tracks each epoch and clamps commanded levels to its cap. Requires a
  /// source whose reports carry thermal tracks; per-cluster mode only.
  /// Zero-cost when null, like `faults`.
  thermal::ThermalThrottle* throttle = nullptr;
  /// ONE governor sees the cluster-averaged observation and its decision is
  /// applied chip-wide (the §V.A ablation) — the same loop with a different
  /// decision step. Faults, throttle, keyframes and levels_io are
  /// per-cluster seams and not supported in this mode.
  bool chip_wide = false;
  /// Message of the ContractError thrown when the stream is not done by
  /// max_time_ns (kept configurable so the legacy entry points preserve
  /// their exact diagnostics).
  std::string_view timeout_message =
      "program did not retire before max_time_ns; raise the limit";
};

/// One governor instance per cluster (or a single one in chip-wide mode).
[[nodiscard]] std::vector<std::unique_ptr<DvfsGovernor>> makeGovernors(
    const GovernorFactory& factory, int count);

class EpochLoop {
 public:
  explicit EpochLoop(LoopConfig cfg = {}) : cfg_(cfg) {}

  /// Creates governors from `factory` and runs the stream to completion.
  [[nodiscard]] RunResult run(EpochSource& source, ActuationSink& sink,
                              const GovernorFactory& factory,
                              std::string mechanism_name) const;

  /// Runs with externally owned governors — the sequence-execution use case
  /// where policy state persists across programs. `governors.size()` must be
  /// numClusters() (or 1 in chip-wide mode).
  [[nodiscard]] RunResult run(
      EpochSource& source, ActuationSink& sink,
      std::span<const std::unique_ptr<DvfsGovernor>> governors,
      std::string mechanism_name) const;

  [[nodiscard]] const LoopConfig& config() const noexcept { return cfg_; }

 private:
  LoopConfig cfg_;
};

}  // namespace ssm::engine
