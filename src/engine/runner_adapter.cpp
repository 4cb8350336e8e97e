// The legacy gpusim/runner.hpp entry points and core/power_cap.hpp's capped
// run, reimplemented as thin adapters over the engine layer: every one is
// "construct a SimBackend, configure an EpochLoop, run". The declarations
// stay in their headers (include compatibility for every caller) but the
// implementation lives here so ssm_gpusim and ssm_core do not depend on
// ssm_engine — the engine links them, not the other way around.
//
// Byte-identity: each adapter reproduces the exact LoopConfig its pre-engine
// loop hard-wired (max time, trace/fault hooks, chip-wide flag, timeout
// message), and EpochLoop reproduces that loop's arithmetic exactly, so the
// RunResults are bit-for-bit what the deleted src/gpusim/runner.cpp produced
// (pinned by tests/test_engine.cpp against a reference reimplementation).
#include "gpusim/runner.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/power_cap.hpp"
#include "engine/epoch_loop.hpp"
#include "engine/power_capped_source.hpp"
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

PowerCapRunResult runWithPowerCap(Gpu gpu,
                                  std::shared_ptr<const SsmModel> model,
                                  const PowerCapConfig& cap_cfg,
                                  SsmGovernorConfig governor_cfg,
                                  TimeNs max_time_ns) {
  SSM_CHECK(model != nullptr && model->trained(),
            "power capping needs a trained model");
  PowerCapController controller(cap_cfg);
  governor_cfg.loss_preset = std::max(controller.preset(), 1e-6);

  engine::SimBackend backend(std::move(gpu));
  std::vector<std::unique_ptr<DvfsGovernor>> governors;
  std::vector<SsmdvfsGovernor*> presetable;
  for (int i = 0; i < backend.numClusters(); ++i) {
    auto gov = std::make_unique<SsmdvfsGovernor>(model, governor_cfg);
    presetable.push_back(gov.get());
    governors.push_back(std::move(gov));
  }
  engine::PowerCappedSource source(backend, controller, 0.0, presetable);
  engine::LoopConfig cfg;
  cfg.max_time_ns = max_time_ns;
  cfg.timeout_message = "capped run did not retire; raise max_time_ns";

  PowerCapRunResult out;
  out.run = engine::EpochLoop(cfg).run(source, backend, governors,
                                       "ssmdvfs+powercap");
  out.mean_power_w = out.run.mean_power_w;
  out.max_power_w = source.max_power_w;
  out.violation_frac =
      out.run.epochs > 0
          ? static_cast<double>(controller.violations()) / out.run.epochs
          : 0.0;
  out.final_preset = controller.preset();
  return out;
}

}  // namespace ssm
