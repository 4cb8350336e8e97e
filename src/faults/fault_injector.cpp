#include "faults/fault_injector.hpp"

#include <algorithm>
#include <cmath>

#include "common/json_writer.hpp"

namespace ssm::faults {

namespace {

// Each fault class draws from its own stream so enabling one class never
// perturbs another's draws (the header's independence guarantee).
constexpr std::uint64_t kStreamDropout = 0;
constexpr std::uint64_t kStreamDelay = 1;
constexpr std::uint64_t kStreamNoise = 2;
constexpr std::uint64_t kStreamJitter = 3;
constexpr std::uint64_t kStreamStuck = 4;
constexpr std::uint64_t kStreamFail = 5;
constexpr std::uint64_t kStreamTsensor = 6;
constexpr std::uint64_t kStreamTjolt = 7;

/// The telemetry payload a fault may replace: the counters plus the derived
/// per-cluster scalars. Identity fields (level, timing, cluster_id, done)
/// always reflect reality.
void copyPayload(EpochObservation& dst, const EpochObservation& src) {
  dst.counters = src.counters;
  dst.power_w = src.power_w;
  dst.instructions = src.instructions;
}

void zeroPayload(EpochObservation& obs) {
  obs.counters.clear();
  obs.power_w = 0.0;
  obs.instructions = 0;
}

}  // namespace

void FaultCounts::writeJson(JsonWriter& w) const {
  w.beginObject("fault_counts")
      .value("noise", noise)
      .value("dropout", dropout)
      .value("delay", delay)
      .value("failed", failed)
      .value("stuck", stuck)
      .value("jitter", jitter)
      .value("heatsoak", heatsoak)
      .value("tsensor", tsensor)
      .value("tjolt", tjolt)
      .value("total", total())
      .endObject();
}

FaultInjector::FaultInjector(FaultSpec spec, std::uint64_t seed)
    : spec_(spec), root_(seed) {
  if (spec_.delay.p > 0.0) history_depth_ = static_cast<std::size_t>(spec_.delay.k);
  if (spec_.dropout.p > 0.0 && spec_.dropout.stale)
    history_depth_ = std::max<std::size_t>(history_depth_, 1);
  if (spec_.tsensor.p > 0.0 &&
      spec_.tsensor.mode == ThermalSensorFault::Mode::kLag)
    temp_history_depth_ = static_cast<std::size_t>(spec_.tsensor.k);
}

Rng FaultInjector::cellRng(std::uint64_t stream, std::int64_t epoch,
                           int cluster) const noexcept {
  return root_.fork(stream)
      .fork(static_cast<std::uint64_t>(epoch))
      .fork(static_cast<std::uint64_t>(cluster));
}

void FaultInjector::onTelemetry(GpuEpochReport& report) {
  ++epoch_;
  const std::size_t n = report.clusters.size();
  const std::size_t cap = history_depth_ + 1;
  if (history_depth_ > 0 && history_.size() < n)
    history_.resize(n, std::vector<EpochObservation>(cap));

  // Record the pristine view first: stale/delayed telemetry must replay what
  // the hardware really did k epochs ago, not an already-faulted block.
  if (history_depth_ > 0) {
    const std::size_t slot = static_cast<std::size_t>(epoch_) % cap;
    for (std::size_t c = 0; c < n; ++c)
      history_[c][slot] = report.clusters[c];
  }

  // Pristine temperature history for the lagging-sensor class, recorded
  // before any corruption (a lagging sensor replays what the die really
  // read k epochs ago).
  if (temp_history_depth_ > 0 && report.hasThermal()) {
    const std::size_t tcap = temp_history_depth_ + 1;
    if (temp_history_.size() < n)
      temp_history_.resize(n, std::vector<double>(tcap, 0.0));
    const std::size_t slot = static_cast<std::size_t>(epoch_) % tcap;
    for (std::size_t c = 0; c < n; ++c)
      temp_history_[c][slot] = report.cluster_temps_c[c];
  }

  // corruptThermal gates its own triggers on the window: a latched stuck
  // sensor keeps holding past the window's end (triggers are gated,
  // consequences are not), mirroring the stuck-level actuation class.
  corruptThermal(report);

  if (!spec_.window.contains(epoch_)) return;

  for (std::size_t c = 0; c < n; ++c) {
    EpochObservation& obs = report.clusters[c];
    if (obs.cluster_done) continue;
    corruptCluster(obs, static_cast<int>(c));
  }
}

void FaultInjector::corruptThermal(GpuEpochReport& report) {
  if (!report.hasThermal()) return;
  const bool in_window = spec_.window.contains(epoch_);
  const std::size_t n = report.cluster_temps_c.size();

  // Heat-soak: deterministic chip-wide additive episode, linear ramp from
  // the window start. Touches every cluster sensor and the package sensor.
  if (spec_.heatsoak.add_c > 0.0 && in_window) {
    const auto since = static_cast<double>(epoch_ - spec_.window.start + 1);
    const double frac =
        std::min(1.0, since / static_cast<double>(spec_.heatsoak.ramp));
    const double add = spec_.heatsoak.add_c * frac;
    for (double& t : report.cluster_temps_c) t += add;
    report.package_temp_c += add;
    ++counts_.heatsoak;
  }

  if (spec_.tsensor.p > 0.0) {
    if (sensor_stuck_until_.size() < n) {
      sensor_stuck_until_.resize(n, 0);
      sensor_stuck_value_.resize(n, 0.0);
    }
    for (std::size_t c = 0; c < n; ++c) {
      double& t = report.cluster_temps_c[c];
      // An already-latched sensor holds its reading regardless of window.
      if (spec_.tsensor.mode == ThermalSensorFault::Mode::kStuck &&
          epoch_ < sensor_stuck_until_[c]) {
        t = sensor_stuck_value_[c];
        ++counts_.tsensor;
        continue;
      }
      if (!in_window ||
          !cellRng(kStreamTsensor, epoch_, static_cast<int>(c))
               .nextBernoulli(spec_.tsensor.p))
        continue;
      ++counts_.tsensor;
      switch (spec_.tsensor.mode) {
        case ThermalSensorFault::Mode::kLag: {
          if (epoch_ >= spec_.tsensor.k) {
            const std::size_t tcap = temp_history_depth_ + 1;
            t = temp_history_[c][static_cast<std::size_t>(
                                     epoch_ - spec_.tsensor.k) %
                                 tcap];
          }
          break;
        }
        case ThermalSensorFault::Mode::kStuck:
          sensor_stuck_value_[c] = t;
          sensor_stuck_until_[c] = epoch_ + spec_.tsensor.k;
          break;
        case ThermalSensorFault::Mode::kDrop:
          t = 0.0;  // dead sensor: reads nothing, masks real overheating
          break;
      }
    }
  }

  if (spec_.tjolt.p > 0.0 && in_window) {
    for (std::size_t c = 0; c < n; ++c) {
      if (cellRng(kStreamTjolt, epoch_, static_cast<int>(c))
              .nextBernoulli(spec_.tjolt.p)) {
        report.cluster_temps_c[c] += spec_.tjolt.amp_c;
        ++counts_.tjolt;
      }
    }
  }
}

void FaultInjector::corruptCluster(EpochObservation& obs, int cluster) {
  // Replacement faults first (dropout, then delay), perturbations after
  // (noise, then jitter); all triggers are drawn from independent streams.
  if (spec_.dropout.p > 0.0 &&
      cellRng(kStreamDropout, epoch_, cluster).nextBernoulli(spec_.dropout.p)) {
    ++counts_.dropout;
    if (spec_.dropout.stale && epoch_ >= 1) {
      const std::size_t cap = history_depth_ + 1;
      copyPayload(obs, history_[static_cast<std::size_t>(cluster)]
                           [static_cast<std::size_t>(epoch_ - 1) % cap]);
    } else {
      zeroPayload(obs);
    }
  }

  if (spec_.delay.p > 0.0 && epoch_ >= spec_.delay.k &&
      cellRng(kStreamDelay, epoch_, cluster).nextBernoulli(spec_.delay.p)) {
    ++counts_.delay;
    const std::size_t cap = history_depth_ + 1;
    copyPayload(obs, history_[static_cast<std::size_t>(cluster)]
                         [static_cast<std::size_t>(epoch_ - spec_.delay.k) %
                          cap]);
  }

  if (spec_.noise.p > 0.0) {
    Rng rng = cellRng(kStreamNoise, epoch_, cluster);
    if (rng.nextBernoulli(spec_.noise.p)) {
      ++counts_.noise;
      for (int i = 0; i < kNumCounters; ++i) {
        const auto id = static_cast<CounterId>(i);
        const double factor =
            1.0 + spec_.noise.bias + spec_.noise.sigma * rng.nextGaussian();
        obs.counters.set(id, std::max(0.0, obs.counters.get(id) * factor));
      }
      const double pf =
          1.0 + spec_.noise.bias + spec_.noise.sigma * rng.nextGaussian();
      obs.power_w = std::max(0.0, obs.power_w * pf);
      const double inf =
          1.0 + spec_.noise.bias + spec_.noise.sigma * rng.nextGaussian();
      obs.instructions = std::max<std::int64_t>(
          0, static_cast<std::int64_t>(std::llround(
                 static_cast<double>(obs.instructions) * inf)));
    }
  }

  if (spec_.jitter.p > 0.0) {
    Rng rng = cellRng(kStreamJitter, epoch_, cluster);
    if (rng.nextBernoulli(spec_.jitter.p)) {
      ++counts_.jitter;
      const double delta = spec_.jitter.frac * (2.0 * rng.nextDouble() - 1.0);
      for (const CounterId id : {CounterId::kFreqMhz, CounterId::kCyclesElapsed,
                                 CounterId::kActiveCycles}) {
        obs.counters.set(id,
                         std::max(0.0, obs.counters.get(id) * (1.0 + delta)));
      }
    }
  }
}

VfLevel FaultInjector::onActuate(int cluster_id, VfLevel requested,
                                 VfLevel current) {
  const std::int64_t epoch = std::max<std::int64_t>(epoch_, 0);
  if (stuck_until_.size() <= static_cast<std::size_t>(cluster_id))
    stuck_until_.resize(static_cast<std::size_t>(cluster_id) + 1, 0);
  std::int64_t& until = stuck_until_[static_cast<std::size_t>(cluster_id)];

  // A freeze that started inside the window keeps holding past its end —
  // the window gates triggers, not physical consequences.
  if (epoch < until) {
    ++counts_.stuck;
    return current;
  }
  if (requested == current || !spec_.window.contains(epoch)) return requested;

  if (spec_.stuck.p > 0.0 &&
      cellRng(kStreamStuck, epoch, cluster_id).nextBernoulli(spec_.stuck.p)) {
    until = epoch + spec_.stuck.epochs;
    ++counts_.stuck;
    return current;
  }
  if (spec_.fail.p > 0.0 &&
      cellRng(kStreamFail, epoch, cluster_id).nextBernoulli(spec_.fail.p)) {
    ++counts_.failed;
    return current;
  }
  return requested;
}

}  // namespace ssm::faults
