#include "engine/replay_backend.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "engine/epoch_loop.hpp"
#include "engine/fork.hpp"

namespace ssm::engine {

namespace {

// Fork-and-resimulate every keyframe window that contains a divergent epoch,
// accumulating candidate-minus-recorded deltas into `report`. Windows are
// half-open [k_i, k_{i+1}) (the last one ends at the trace's epoch count): a
// keyframe at epoch k snapshots the machine BEFORE epoch k runs, so a branch
// started from it replays the window from its first epoch.
void resimulateDivergentWindows(const EpochTrace& trace,
                                const GovernorFactory& factory,
                                const ReplayOptions& opts,
                                std::span<const std::int64_t> divergent,
                                ReplayReport& report) {
  if (trace.keyframes.empty() || trace.keyframes.front().epoch != 0)
    throw DataError(
        "counterfactual replay needs a keyframed trace starting at epoch 0; "
        "re-record it with `ssmdvfs record --keyframe-every N`");
  const auto num_epochs = static_cast<std::int64_t>(trace.epochs.size());
  const std::size_t num_windows = trace.keyframes.size();

  // Distinct window indices touched by a divergence, in increasing order
  // (divergent epochs are already sorted). Epoch d lands in the window of
  // the last keyframe with epoch <= d.
  std::vector<std::size_t> windows;
  for (const std::int64_t d : divergent) {
    std::size_t w = num_windows - 1;
    while (trace.keyframes[w].epoch > d) --w;
    if (windows.empty() || windows.back() != w) windows.push_back(w);
  }

  double energy_delta_j = 0.0;
  double latency_delta_ns = 0.0;
  for (const std::size_t w : windows) {
    const std::int64_t k = trace.keyframes[w].epoch;
    // Recorded endpoint of the window: the next keyframe's machine holds the
    // exact cumulative counters at its boundary; the last window ends at the
    // recorded run's final numbers.
    std::int64_t target_insts = 0;
    double rec_energy_end = 0.0;
    double rec_time_end_ns = 0.0;
    std::int64_t end_epoch = num_epochs;
    if (w + 1 < num_windows) {
      const Gpu boundary = keyframeGpu(trace.keyframes[w + 1]);
      target_insts = boundary.totalInstructions();
      rec_energy_end = boundary.totalEnergyJ();
      rec_time_end_ns = static_cast<double>(boundary.nowNs());
      end_epoch = trace.keyframes[w + 1].epoch;
    } else {
      target_insts = trace.recorded.instructions;
      rec_energy_end = trace.recorded.energy_j;
      rec_time_end_ns = static_cast<double>(trace.recorded.exec_time_ns);
    }

    Gpu start = keyframeGpu(trace.keyframes[w]);
    const auto& seed_epoch = trace.epochs[static_cast<std::size_t>(k)];
    std::vector<VfLevel> initial_levels;
    initial_levels.reserve(seed_epoch.clusters.size());
    for (const auto& obs : seed_epoch.clusters)
      initial_levels.push_back(obs.level);

    GpuBranch branch(std::move(start), factory, initial_levels);

    // Advance epoch by epoch until the branch has retired the recorded
    // window's instructions; the final (fractional) epoch is interpolated so
    // candidate and record are compared at the SAME retired-work point.
    const std::int64_t epoch_cap = (end_epoch - k) + opts.max_extra_epochs;
    bool matched = false;
    for (std::int64_t e = 0; e < epoch_cap; ++e) {
      const std::int64_t before_insts = branch.gpu().totalInstructions();
      const double before_energy = branch.gpu().totalEnergyJ();
      const auto before_ns = static_cast<double>(branch.gpu().nowNs());
      (void)branch.advance(1);
      ++report.resim_epochs;
      const std::int64_t after_insts = branch.gpu().totalInstructions();
      const double after_energy = branch.gpu().totalEnergyJ();
      const auto after_ns = static_cast<double>(branch.gpu().nowNs());
      if (after_insts >= target_insts || branch.done()) {
        const std::int64_t gained = after_insts - before_insts;
        const double frac =
            gained > 0 ? static_cast<double>(
                             std::min(target_insts, after_insts) -
                             before_insts) /
                             static_cast<double>(gained)
                       : 1.0;
        const double cf_time_ns = before_ns + frac * (after_ns - before_ns);
        const double cf_energy =
            before_energy + frac * (after_energy - before_energy);
        energy_delta_j += cf_energy - rec_energy_end;
        latency_delta_ns += cf_time_ns - rec_time_end_ns;
        matched = true;
        break;
      }
    }
    if (!matched) ++report.unmatched_windows;
    ++report.divergent_windows;
  }

  report.energy_delta_mj = energy_delta_j * 1e3;
  report.latency_delta_ns = latency_delta_ns;
  const double rec_edp = trace.recorded.edp;
  if (rec_edp > 0.0) {
    const double cf_energy_j = trace.recorded.energy_j + energy_delta_j;
    const double cf_time_s =
        (static_cast<double>(trace.recorded.exec_time_ns) + latency_delta_ns) *
        1e-9;
    report.edp_delta_pct = 100.0 * (cf_energy_j * cf_time_s - rec_edp) / rec_edp;
  }
}

}  // namespace

ReplayBackend::ReplayBackend(const EpochTrace& trace)
    : trace_(&trace),
      commanded_histogram_(trace.vf.size(), 0) {}

const VfTable& ReplayBackend::vfTable() const noexcept { return trace_->vf; }

int ReplayBackend::numClusters() const noexcept {
  return trace_->numClusters();
}

bool ReplayBackend::done() const noexcept {
  return pos_ >= trace_->epochs.size();
}

TimeNs ReplayBackend::nowNs() const noexcept {
  if (pos_ < trace_->epochs.size()) return trace_->epochs[pos_].epoch_start_ns;
  return trace_->recorded.exec_time_ns;
}

GpuEpochReport ReplayBackend::nextEpoch(std::span<const VfLevel> /*levels*/) {
  SSM_CHECK(!done(), "nextEpoch() called on an exhausted replay stream");
  return trace_->epochs[pos_++];
}

StreamStats ReplayBackend::stats() const {
  StreamStats st;
  st.exec_time_ns = trace_->recorded.exec_time_ns;
  st.energy_j = trace_->recorded.energy_j;
  st.edp = trace_->recorded.edp;
  st.instructions = trace_->recorded.instructions;
  return st;
}

VfLevel ReplayBackend::actuate(int cluster_id, VfLevel commanded,
                               VfLevel current) {
  ++decisions_;
  if (commanded >= 0 &&
      static_cast<std::size_t>(commanded) < commanded_histogram_.size())
    ++commanded_histogram_[static_cast<std::size_t>(commanded)];
  // pos_ already points one past the epoch whose observation produced this
  // decision, i.e. at the epoch where the commanded level would first be
  // observable — exactly what the recorded policy's decision became.
  if (pos_ < trace_->epochs.size()) {
    const VfLevel recorded =
        trace_->epochs[pos_].clusters[static_cast<std::size_t>(cluster_id)]
            .level;
    ++compared_;
    if (commanded == recorded) {
      ++matches_;
    } else if (divergent_epochs_.empty() ||
               divergent_epochs_.back() !=
                   static_cast<std::int64_t>(pos_)) {
      // One entry per epoch no matter how many clusters diverged in it.
      divergent_epochs_.push_back(static_cast<std::int64_t>(pos_));
    }
    return recorded;
  }
  // Decision after the final epoch: no recorded successor to compare with
  // (the recording run made one too, and it was never applied either).
  return current;
}

double ReplayBackend::agreement() const noexcept {
  return compared_ == 0
             ? 1.0
             : static_cast<double>(matches_) / static_cast<double>(compared_);
}

ReplayReport replayTrace(const EpochTrace& trace, const GovernorFactory& factory,
                         std::string mechanism_name, const ReplayOptions& opts) {
  ReplayBackend backend(trace);
  LoopConfig cfg;
  // The recorded run already finished; the cutoff must never truncate it.
  cfg.max_time_ns = std::numeric_limits<TimeNs>::max();
  cfg.timeout_message = "replay stream did not drain; trace is inconsistent";

  ReplayReport report;
  report.result = EpochLoop(cfg).run(backend, backend, factory,
                                     std::move(mechanism_name));
  report.result.workload = trace.workload;
  report.decisions = backend.decisions();
  report.compared = backend.compared();
  report.matches = backend.matches();
  report.agreement = backend.agreement();
  report.commanded_histogram = backend.commandedHistogram();
  if (opts.counterfactual) {
    report.divergent_epochs =
        static_cast<std::int64_t>(backend.divergentEpochs().size());
    resimulateDivergentWindows(trace, factory, opts,
                               backend.divergentEpochs(), report);
  }
  return report;
}

}  // namespace ssm::engine
