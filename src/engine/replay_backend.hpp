// ReplayBackend: a recorded EpochTrace behind the EpochSource/ActuationSink
// pair — the open-loop backend.
//
// Replay streams the recorded GpuEpochReports through any governor at
// memory-bandwidth speed: no cycle-level simulation, no power model, just
// the observations the recording run produced. It is explicitly OPEN LOOP:
// the governor's decisions are logged and compared against the recorded
// policy's, but they never feed back into what the governor observes next —
// the trace is immutable history. Consequences:
//
//   * The replay RunResult's numeric fields equal the recorded run's exactly,
//     for ANY governor: stats() returns the recorded final numbers and the
//     loop recomputes epochs / mean power / level histogram from the same
//     report stream the recording loop saw, in the same order.
//   * A deterministic governor replayed with its recording-time configuration
//     agrees with the trace on every decision (agreement() == 1.0) — the
//     observation stream is identical, so the decisions are too. Any drift
//     below 1.0 measures how a DIFFERENT policy/config diverges from the
//     recorded one, epoch by epoch (the counterfactual-screening use case).
//
// Agreement accounting: epoch e's decision is compared against the level the
// trace shows the cluster running at in epoch e+1 (that is where a commanded
// level becomes observable). Decisions made after the final epoch have no
// recorded successor; they are counted in decisions() but excluded from the
// agreement denominator.
//
// Fault injection is rejected in replay (LoopConfig::faults must stay null):
// onActuate arbitration would need to feed back into the stream, which the
// open-loop contract forbids. (Counterfactual branches are different: they
// resume from keyframes whose machine state already carries the recorded
// faults' effects — recorded history stays immutable either way.)
//
// Closed-loop counterfactual mode (ReplayOptions::counterfactual) closes the
// loop where it matters without giving up replay speed: the open-loop pass
// runs unchanged, and only the keyframe windows where the candidate governor
// actually diverged are forked from their recorded keyframe (engine/fork.hpp)
// and resimulated cycle-level under the candidate. The branch runs until it
// retires the same instructions the recorded window did, and the true
// energy/latency/EDP deltas are accumulated alongside the agreement stats.
// Non-divergent windows cost nothing — a same-mechanism replay stays a pure
// memory-bandwidth scan with all-zero deltas.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/epoch_stream.hpp"
#include "engine/trace_io.hpp"

namespace ssm::engine {

class ReplayBackend final : public EpochSource, public ActuationSink {
 public:
  /// The trace must outlive the backend (it is borrowed, not copied — traces
  /// can be large and sweeps replay one trace under many governors).
  explicit ReplayBackend(const EpochTrace& trace);

  // --- EpochSource -----------------------------------------------------
  [[nodiscard]] const VfTable& vfTable() const noexcept override;
  [[nodiscard]] int numClusters() const noexcept override;
  [[nodiscard]] bool done() const noexcept override;
  [[nodiscard]] TimeNs nowNs() const noexcept override;
  /// Returns the next recorded report. `levels` is ignored: open loop.
  [[nodiscard]] GpuEpochReport nextEpoch(
      std::span<const VfLevel> levels) override;
  /// The recorded run's final numbers, valid at any time.
  [[nodiscard]] StreamStats stats() const override;

  // --- ActuationSink ---------------------------------------------------
  /// Logs `commanded` (histogram + agreement vs the recorded next level) and
  /// returns the recorded level so the loop's state tracks the trace.
  VfLevel actuate(int cluster_id, VfLevel commanded, VfLevel current) override;

  // --- Replay-only accessors -------------------------------------------
  [[nodiscard]] std::int64_t decisions() const noexcept { return decisions_; }
  [[nodiscard]] std::int64_t compared() const noexcept { return compared_; }
  [[nodiscard]] std::int64_t matches() const noexcept { return matches_; }
  /// matches()/compared(); 1.0 for traces too short to compare anything.
  [[nodiscard]] double agreement() const noexcept;
  /// Count of commanded decisions per V/f level (size == vfTable().size()).
  [[nodiscard]] const std::vector<std::int64_t>& commandedHistogram()
      const noexcept {
    return commanded_histogram_;
  }
  /// Epochs at which at least one cluster's commanded level disagreed with
  /// the recorded one — the epoch index where the divergent command would
  /// first have been observable. Strictly increasing, deduplicated.
  [[nodiscard]] const std::vector<std::int64_t>& divergentEpochs()
      const noexcept {
    return divergent_epochs_;
  }

 private:
  const EpochTrace* trace_;
  std::size_t pos_ = 0;  ///< index of the next epoch to stream
  std::int64_t decisions_ = 0;
  std::int64_t compared_ = 0;
  std::int64_t matches_ = 0;
  std::vector<std::int64_t> commanded_histogram_;
  std::vector<std::int64_t> divergent_epochs_;
};

/// One-call replay: stream `trace` through governors from `factory` and
/// report the result plus the agreement statistics.
/// A hardened replay passes a HardenedGovernorFactory; the counterfactual
/// branches are built from the same factory.
struct ReplayOptions {
  /// Closed-loop counterfactual mode: requires a keyframed (v3) trace. For
  /// every keyframe window in which the candidate governor diverged from the
  /// recorded policy, fork the machine from the window's keyframe, re-run
  /// the window closed-loop under the candidate, and accumulate the TRUE
  /// energy/latency deltas against the recorded window — turning agreement
  /// screening into a measured what-if. Two documented approximations: each
  /// divergent window is resimulated independently from its recorded
  /// keyframe (cross-window drift does not compound), and branch governors
  /// start fresh at the keyframe rather than inheriting warmed-up state.
  bool counterfactual = false;
  /// A divergent branch may need more epochs than the recorded window to
  /// retire the same instructions; this caps the overrun per window. A
  /// window still unmatched at window_epochs + max_extra_epochs is counted
  /// in unmatched_windows and contributes no delta.
  std::int64_t max_extra_epochs = 64;
};

struct ReplayReport {
  RunResult result;
  std::int64_t decisions = 0;
  std::int64_t compared = 0;
  std::int64_t matches = 0;
  double agreement = 1.0;
  std::vector<std::int64_t> commanded_histogram;
  // --- Counterfactual accounting (all zero unless opts.counterfactual) ---
  /// Epochs where at least one cluster's command diverged from the record.
  std::int64_t divergent_epochs = 0;
  /// Keyframe windows containing at least one divergent epoch (each was
  /// forked and resimulated).
  std::int64_t divergent_windows = 0;
  /// Total branch epochs simulated across all divergent windows.
  std::int64_t resim_epochs = 0;
  /// Windows whose branch failed to retire the recorded instruction count
  /// within the overrun cap; excluded from the deltas.
  std::int64_t unmatched_windows = 0;
  /// Candidate minus recorded, summed over matched divergent windows at
  /// equal retired-instruction points (negative = candidate is better).
  double energy_delta_mj = 0.0;
  double latency_delta_ns = 0.0;
  /// Whole-run EDP change implied by the deltas, in percent of the
  /// recorded run's EDP (negative = candidate is better).
  double edp_delta_pct = 0.0;
};

[[nodiscard]] ReplayReport replayTrace(const EpochTrace& trace,
                                       const GovernorFactory& factory,
                                       std::string mechanism_name,
                                       const ReplayOptions& opts = {});

}  // namespace ssm::engine
