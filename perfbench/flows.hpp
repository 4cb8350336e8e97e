// The benchmark's flows. Each one drives a public entry point of src/ the
// way a user does, checks the outputs, and reports metrics:
//
//   setup          DataGenerator::generate -> SsmModel::train ->
//                  pruneAndFinetune on a reduced, fixed corpus;
//   sweep          fleet::FleetRunner over the Fig. 4 grid;
//   record-replay  record -> .ssmtrace encode/decode -> open-loop replay ->
//                  decide timing -> counterfactual replay;
//   rack           dc::runRack, 16 GPUs under a binding power cap.
//
// The untraced flows are objects whose passes a run repeats and interleaves
// (main.cpp); metrics() reports medians over the passes made. The *PerLayer
// functions run the traced variant once and return per-layer metrics.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Builds the benchmark model `repeats` times (traced: once, with spans),
/// checks every build against the expected digest, and reports setup_s (the
/// median build time) or the per-layer set-up metrics.
struct SetupResult {
  std::shared_ptr<const ssm::SsmModel> model;
  Metrics metrics;
};
[[nodiscard]] SetupResult runSetup(const Env& env, int repeats);

/// One pass = one FleetRunner run over the whole grid on a pool of
/// env.workers.
class SweepFlow {
 public:
  explicit SweepFlow(const Env& env);
  ~SweepFlow();
  SweepFlow(const SweepFlow&) = delete;
  SweepFlow& operator=(const SweepFlow&) = delete;
  void pass();
  [[nodiscard]] Metrics metrics() const;

 private:
  struct State;
  std::unique_ptr<State> s_;
};

/// recordPass() records, round-trips and counterfactually replays every
/// program; latencySlice() then times decode + open-loop replay and
/// decide() on the recorded traces in short chunks, so a run can spread
/// those fast measurements over its whole length.
class RecordReplayFlow {
 public:
  explicit RecordReplayFlow(const Env& env);
  ~RecordReplayFlow();
  RecordReplayFlow(const RecordReplayFlow&) = delete;
  RecordReplayFlow& operator=(const RecordReplayFlow&) = delete;
  void recordPass();
  /// Runs chunks for about `seconds` (at least one); needs a recordPass().
  void latencySlice(double seconds);
  [[nodiscard]] Metrics metrics() const;

 private:
  struct State;
  std::unique_ptr<State> s_;
};

/// One pass = one dc::runRack on a pool of env.workers.
class RackFlow {
 public:
  explicit RackFlow(const Env& env);
  ~RackFlow();
  RackFlow(const RackFlow&) = delete;
  RackFlow& operator=(const RackFlow&) = delete;
  void pass();
  [[nodiscard]] Metrics metrics() const;

 private:
  struct State;
  std::unique_ptr<State> s_;
};

/// Traced variants; `focus` runs the flow at full size and reports its
/// tracing overhead, otherwise a smaller instance.
[[nodiscard]] Metrics sweepPerLayer(const Env& env, bool focus);
[[nodiscard]] Metrics recordReplayPerLayer(const Env& env, bool focus);
[[nodiscard]] Metrics rackPerLayer(const Env& env, bool focus);

}  // namespace perfbench
