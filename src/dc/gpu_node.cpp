#include "dc/gpu_node.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "engine/epoch_loop.hpp"
#include "engine/power_capped_source.hpp"

namespace ssm::dc {

namespace {

/// Salts separating the per-job streams hanging off the rack seed.
constexpr std::uint64_t kJobSimSalt = 0xDC51;
constexpr std::uint64_t kJobFaultSalt = 0xDCFA;

/// The rail-level backstop, applied after the loop's governor, throttle and
/// actuator-fault arbitration: the epoch's effective preset decodes into a
/// hard V/f ceiling for every mechanism (preset 0 → no clamp, preset_max →
/// the slowest level, equal bands per level step in between).
struct CeilingSink final : engine::ActuationSink {
  explicit CeilingSink(const engine::PowerCappedSource& capped)
      : source(capped) {}
  VfLevel actuate(int /*cluster_id*/, VfLevel commanded,
                  VfLevel /*current*/) override {
    const VfLevel top = source.vfTable().defaultLevel();
    const double preset_max = source.controller.presetMax();
    const double frac =
        preset_max > 0.0
            ? std::clamp(source.effective_preset / preset_max, 0.0, 1.0)
            : 0.0;
    return std::min(commanded,
                    top - static_cast<VfLevel>(std::lround(frac * top)));
  }
  const engine::PowerCappedSource& source;
};

}  // namespace

GpuNode::GpuNode(const Init& init)
    : gpu_id_(init.gpu_id),
      gpu_cfg_(init.gpu),
      vf_(init.vf),
      mix_(init.mix),
      factory_(init.factory),
      idle_power_w_(init.idle_power_w),
      rack_seed_(init.rack_seed),
      fault_(init.fault),
      cap_(init.cap),
      thermal_(init.thermal) {
  SSM_CHECK(gpu_cfg_ != nullptr && vf_ != nullptr && mix_ != nullptr &&
                factory_ != nullptr,
            "GpuNode needs gpu config, vf table, workload mix and a governor "
            "factory");
  SSM_CHECK(!mix_->empty(), "GpuNode mix must be non-empty");
  SSM_CHECK(idle_power_w_ >= 0.0, "idle power must be non-negative");
  if (fault_ != nullptr && !fault_->active()) fault_ = nullptr;  // clean chip
  const int n = gpu_cfg_->num_clusters;
  if (thermal_ != nullptr) throttle_ = thermal_->makeThrottle(*vf_, n);
  if (throttle_) {
    idle_thermal_.emplace(thermal_->params, n);
    zero_power_w_.assign(static_cast<std::size_t>(n), 0.0);
    peak_temp_c_ = thermal_->params.ambient_c;
  }

  queue_.resize(std::max<std::size_t>(init.max_jobs, 1));
  completed_.reserve(std::max<std::size_t>(init.max_jobs, 1));

  // Governors are built once and reset() between jobs (the RL-style
  // contract of DvfsGovernor::reset). The soft-preset side channel is
  // resolved once here, not by a dynamic_cast per epoch.
  governors_ = engine::makeGovernors(*factory_, n);
  levels_.assign(static_cast<std::size_t>(n), vf_->defaultLevel());
  for (const auto& gov : governors_)
    if (auto* ssm = dynamic_cast<SsmdvfsGovernor*>(gov.get()))
      presetable_.push_back(ssm);
}

void GpuNode::enqueue(const JobSpec& job) {
  SSM_CHECK(queue_count_ < queue_.size(), "GpuNode queue overflow");
  queue_[queue_count_++] = job;
}

TimeNs GpuNode::backlogNs() const noexcept {
  TimeNs total = 0;
  for (std::size_t i = 0; i < queue_count_; ++i)
    total += queue_[i].est_service_ns;
  if (sim_.has_value()) {
    const TimeNs elapsed = now_ns_ - active_.start_ns;
    // What's left of the active job's estimate, floored at one epoch (a
    // busy GPU is never "free" for dispatch purposes).
    total += std::max(active_est_ns_ - elapsed, gpu_cfg_->epoch_ns);
  }
  return total;
}

void GpuNode::setRoundCap(double cap_w, double rack_bias) {
  cap_.setCap(cap_w);
  rack_bias_ = rack_bias;
}

void GpuNode::startNextJob() {
  if (queue_count_ == 0) return;
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue_count_; ++i)
    if (jobBefore(queue_[i], queue_[best])) best = i;
  const JobSpec job = queue_[best];
  queue_[best] = queue_[--queue_count_];

  active_ = JobOutcome{};
  active_.id = job.id;
  active_.gpu = gpu_id_;
  active_.priority = job.priority;
  active_.arrival_ns = job.arrival_ns;
  active_.deadline_ns = job.deadline_ns;
  active_.start_ns = now_ns_;
  active_est_ns_ = job.est_service_ns;

  // The job's program stream is keyed on (rack seed, job id) only: the same
  // job simulates identically on any GPU, under any policy, at any --jobs.
  const std::uint64_t sim_seed =
      Rng(rack_seed_).fork(kJobSimSalt).fork(job.id).nextU64();
  Gpu machine((*gpu_cfg_), *vf_, (*mix_)[job.workload], sim_seed,
              ChipPowerModel(gpu_cfg_->num_clusters));
  if (idle_thermal_) {
    // The job inherits the node temperatures the idle model carried —
    // back-to-back jobs start hot, a long-idle chip starts cooled down.
    machine.attachThermal(thermal_->params);
    machine.setThermalState(idle_thermal_->state());
  }
  sim_.emplace(std::move(machine));

  for (auto& gov : governors_) gov->reset();
  std::fill(levels_.begin(), levels_.end(), vf_->defaultLevel());
  if (fault_ != nullptr)
    injector_ = std::make_unique<faults::FaultInjector>(
        *fault_, Rng(rack_seed_)
                     .fork(kJobFaultSalt)
                     .fork(static_cast<std::uint64_t>(gpu_id_))
                     .fork(job.id)
                     .nextU64());
}

void GpuNode::finishJob() {
  // Hand the die temperatures back to the idle model so heat soaks across
  // job boundaries instead of resetting to ambient.
  if (idle_thermal_) idle_thermal_->setState(sim_->gpu().thermalState());
  active_.finish_ns = now_ns_;
  active_.completed = true;
  active_.missed = active_.finish_ns > active_.deadline_ns;
  active_.energy_j = sim_->gpu().totalEnergyJ();
  active_.instructions = sim_->gpu().totalInstructions();
  job_energy_j_ += active_.energy_j;
  completed_.push_back(active_);
  if (injector_ != nullptr) {
    fault_counts_ += injector_->counts();
    injector_.reset();
  }
  sim_.reset();
}

NodeRoundStats GpuNode::advance(int epochs) {
  NodeRoundStats stats;
  const double epoch_s = static_cast<double>(gpu_cfg_->epoch_ns) / 1e9;
  while (stats.epochs < epochs) {
    if (!sim_.has_value()) startNextJob();
    if (!sim_.has_value()) {
      // Idle epoch: the rail still burns the floor, the chip loop still
      // integrates (so the preset relaxes and the cap ledger stays honest).
      stats.power_sum_w += idle_power_w_;
      idle_energy_j_ += idle_power_w_ * epoch_s;
      static_cast<void>(cap_.onEpoch(idle_power_w_));
      if (idle_thermal_) {
        // The die cools toward ambient under the rail floor; the throttle
        // keeps observing so it can recover while the chip is quiet.
        idle_thermal_->step(zero_power_w_, idle_power_w_, gpu_cfg_->epoch_ns);
        throttle_->observe(idle_thermal_->state().cluster_c,
                           idle_thermal_->packageTempC());
      }
      ++stats.epochs;
      now_ns_ += gpu_cfg_->epoch_ns;
      continue;
    }

    // The active job runs on the one epoch loop until it retires or the
    // round ends. The capped source feeds the chip loop and rack bias into
    // the presets; the sink applies their V/f ceiling last.
    engine::PowerCappedSource capped(*sim_, cap_, rack_bias_, presetable_);
    capped.power_sum_w = stats.power_sum_w;  // one sum, in epoch order
    CeilingSink sink(capped);
    const engine::EpochLoop loop(
        {.max_time_ns = std::numeric_limits<TimeNs>::max(),
         .max_epochs = epochs - stats.epochs,
         .levels_io = &levels_,
         .faults = injector_.get(),
         .throttle = throttle_ ? &*throttle_ : nullptr});
    const RunResult run = loop.run(capped, sink, governors_, "");
    stats.power_sum_w = capped.power_sum_w;
    stats.epochs += run.epochs;
    stats.busy_epochs += run.epochs;
    busy_epochs_ += run.epochs;
    now_ns_ += run.epochs * gpu_cfg_->epoch_ns;
    peak_temp_c_ = std::max(peak_temp_c_, run.peak_temp_c);
    if (sim_->done()) finishJob();
  }
  return stats;
}

}  // namespace ssm::dc
