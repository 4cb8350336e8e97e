#include "baselines/oracle.hpp"

#include "common/check.hpp"
#include "engine/fork.hpp"

namespace ssm {

OracleResult findBestStaticLevel(const Gpu& gpu, OracleObjective objective,
                                 double latency_bound, TimeNs max_time_ns) {
  SSM_CHECK(latency_bound >= 1.0, "latency bound below 1 is unsatisfiable");
  OracleResult result;
  const int levels = static_cast<int>(gpu.vfTable().size());

  for (VfLevel level = 0; level < levels; ++level) {
    engine::GpuFork fork(gpu);
    fork.stepUntil(max_time_ns, level);
    SSM_CHECK(fork.allDone(), "oracle run did not retire; raise max_time_ns");
    const Gpu& ran = fork.gpu();
    RunResult r;
    r.mechanism = "static-" + std::to_string(level);
    r.exec_time_ns = ran.finishTimeNs();
    r.energy_j = ran.totalEnergyJ();
    r.edp = ran.edp();
    r.instructions = ran.totalInstructions();
    result.all.push_back(std::move(r));
  }

  const RunResult& base = result.all.back();  // default level reference
  int best = levels - 1;
  const auto better = [&](const RunResult& a, const RunResult& b) {
    switch (objective) {
      case OracleObjective::kMinEdp: return a.edp < b.edp;
      case OracleObjective::kMinEnergy: return a.energy_j < b.energy_j;
      case OracleObjective::kMinEnergyUnderLatency: return a.energy_j < b.energy_j;
    }
    return false;
  };
  for (int level = 0; level < levels; ++level) {
    const RunResult& r = result.all[static_cast<std::size_t>(level)];
    if (objective == OracleObjective::kMinEnergyUnderLatency) {
      const double slowdown = static_cast<double>(r.exec_time_ns) /
                              static_cast<double>(base.exec_time_ns);
      if (slowdown > latency_bound) continue;
    }
    if (better(r, result.all[static_cast<std::size_t>(best)])) best = level;
  }
  result.best_level = best;
  result.run = result.all[static_cast<std::size_t>(best)];
  return result;
}

}  // namespace ssm
