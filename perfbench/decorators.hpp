// Decorators that time the program's layers from outside: they implement
// the same public interfaces the engine drives (EpochSource/ActuationSink,
// GovernorFactory/DvfsGovernor), forward every call unchanged and wrap the
// calls that cross a layer boundary in a span. A run through them computes
// exactly what the undecorated run computes.
#pragma once

#include <memory>
#include <utility>

#include "engine/epoch_stream.hpp"
#include "gpusim/governor.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Wraps a backend (SimBackend or ReplayBackend); nextEpoch() is a span
/// named `epoch_span` ("gpusim.epoch" or "engine.replay_epoch").
class TracedStream final : public ssm::engine::EpochSource,
                           public ssm::engine::ActuationSink {
 public:
  TracedStream(ssm::engine::EpochSource& source,
               ssm::engine::ActuationSink& sink, Tracer& tracer,
               const char* epoch_span)
      : source_(source), sink_(sink), tracer_(tracer), span_(epoch_span) {}

  [[nodiscard]] const ssm::VfTable& vfTable() const noexcept override {
    return source_.vfTable();
  }
  [[nodiscard]] int numClusters() const noexcept override {
    return source_.numClusters();
  }
  [[nodiscard]] bool done() const noexcept override { return source_.done(); }
  [[nodiscard]] ssm::TimeNs nowNs() const noexcept override {
    return source_.nowNs();
  }
  [[nodiscard]] ssm::GpuEpochReport nextEpoch(
      std::span<const ssm::VfLevel> levels) override {
    const Scope s(&tracer_, span_);
    return source_.nextEpoch(levels);
  }
  [[nodiscard]] ssm::engine::StreamStats stats() const override {
    return source_.stats();
  }
  [[nodiscard]] const ssm::Gpu* gpuState() const noexcept override {
    return source_.gpuState();
  }
  ssm::VfLevel actuate(int cluster_id, ssm::VfLevel commanded,
                       ssm::VfLevel current) override {
    return sink_.actuate(cluster_id, commanded, current);
  }

 private:
  ssm::engine::EpochSource& source_;
  ssm::engine::ActuationSink& sink_;
  Tracer& tracer_;
  const char* span_;
};

/// decide() is a "core.decide" span.
class TracedGovernor final : public ssm::DvfsGovernor {
 public:
  TracedGovernor(std::unique_ptr<ssm::DvfsGovernor> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  ssm::VfLevel decide(const ssm::EpochObservation& obs) override {
    const Scope s(&tracer_, "core.decide");
    return inner_->decide(obs);
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<ssm::DvfsGovernor> inner_;
  Tracer& tracer_;
};

/// Wraps what fleet::makeGovernorFactory returns.
class TracedFactory final : public ssm::GovernorFactory {
 public:
  TracedFactory(const ssm::GovernorFactory& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  [[nodiscard]] std::unique_ptr<ssm::DvfsGovernor> create(
      int cluster_id) const override {
    return std::make_unique<TracedGovernor>(inner_.create(cluster_id),
                                            tracer_);
  }

 private:
  const ssm::GovernorFactory& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
