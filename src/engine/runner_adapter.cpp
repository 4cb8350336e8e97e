// The legacy gpusim/runner.hpp entry points, reimplemented as thin adapters
// over the engine layer: every one is "construct a SimBackend, configure an
// EpochLoop, run". The declarations stay in gpusim/runner.hpp (include
// compatibility for every caller) but the implementation lives here so
// ssm_gpusim does not depend on ssm_engine — the engine links gpusim, not
// the other way around.
//
// Byte-identity: each adapter reproduces the exact LoopConfig its pre-engine
// loop hard-wired (max time, trace/fault hooks, chip-wide flag, timeout
// message), and EpochLoop reproduces that loop's arithmetic exactly, so the
// RunResults are bit-for-bit what the deleted src/gpusim/runner.cpp produced
// (pinned by tests/test_engine.cpp against a reference reimplementation).
#include "gpusim/runner.hpp"

#include <memory>
#include <utility>

#include "common/check.hpp"
#include "engine/epoch_loop.hpp"
#include "engine/sim_backend.hpp"

namespace ssm {

RunResult runWithGovernor(Gpu gpu, const GovernorFactory& factory,
                          std::string mechanism_name, TimeNs max_time_ns,
                          EpochTraceRecorder* trace, EpochFaultHook* faults,
                          thermal::ThermalThrottle* throttle) {
  engine::SimBackend backend(std::move(gpu));
  engine::LoopConfig cfg;
  cfg.max_time_ns = max_time_ns;
  cfg.trace = trace;
  cfg.faults = faults;
  cfg.throttle = throttle;
  return engine::EpochLoop(cfg).run(backend, backend, factory,
                                    std::move(mechanism_name));
}

RunResult runWithChipGovernor(Gpu gpu, const GovernorFactory& factory,
                              std::string mechanism_name, TimeNs max_time_ns,
                              EpochTraceRecorder* trace) {
  engine::SimBackend backend(std::move(gpu));
  engine::LoopConfig cfg;
  cfg.max_time_ns = max_time_ns;
  cfg.trace = trace;
  cfg.chip_wide = true;
  return engine::EpochLoop(cfg).run(backend, backend, factory,
                                    std::move(mechanism_name));
}

RunResult runBaseline(Gpu gpu, TimeNs max_time_ns,
                      thermal::ThermalThrottle* throttle) {
  const StaticFactory factory(gpu.vfTable().defaultLevel());
  return runWithGovernor(std::move(gpu), factory, "baseline", max_time_ns,
                         nullptr, nullptr, throttle);
}

std::vector<RunResult> runSequence(const std::vector<KernelProfile>& programs,
                                   const GovernorFactory& factory,
                                   std::string mechanism_name,
                                   const SequenceConfig& cfg) {
  SSM_CHECK(!programs.empty(), "empty program sequence");

  // The same governor instances persist across programs (reset() between:
  // episodic state clears, learned state survives — the F-LEMMA design).
  const auto governors = engine::makeGovernors(factory, cfg.gpu.num_clusters);

  engine::LoopConfig loop_cfg;
  loop_cfg.max_time_ns = cfg.max_time_ns_per_program;
  loop_cfg.timeout_message = "sequence program did not retire in time";
  const engine::EpochLoop loop(loop_cfg);

  std::vector<RunResult> results;
  results.reserve(programs.size());
  for (std::size_t p = 0; p < programs.size(); ++p) {
    Gpu gpu(cfg.gpu, cfg.vf, programs[p], cfg.seed + p,
            ChipPowerModel(cfg.gpu.num_clusters));
    for (const auto& gov : governors) gov->reset();
    engine::SimBackend backend(std::move(gpu));
    RunResult result = loop.run(backend, backend, governors, mechanism_name);
    result.workload = programs[p].name;
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace ssm
