// One closed-loop run through engine::EpochLoop over an engine::SimBackend,
// decorated when a tracer is given (then it is an "engine.loop" span whose
// epochs are "gpusim.epoch" spans and whose decisions are "core.decide"
// spans). Decorated or not, the RunResult is the same.
#pragma once

#include <string>
#include <utility>

#include "decorators.hpp"
#include "engine/epoch_loop.hpp"
#include "engine/sim_backend.hpp"

namespace perfbench {

inline ssm::RunResult loopRun(Tracer* tracer, ssm::Gpu gpu,
                              const ssm::GovernorFactory& factory,
                              std::string mechanism,
                              const ssm::engine::LoopConfig& cfg) {
  ssm::engine::SimBackend backend(std::move(gpu));
  const ssm::engine::EpochLoop loop(cfg);
  if (tracer == nullptr)
    return loop.run(backend, backend, factory, std::move(mechanism));
  TracedStream stream(backend, backend, *tracer, "gpusim.epoch");
  const TracedFactory traced(factory, *tracer);
  const Scope s(tracer, "engine.loop");
  return loop.run(stream, stream, traced, std::move(mechanism));
}

}  // namespace perfbench
