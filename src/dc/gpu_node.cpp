#include "dc/gpu_node.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace ssm::dc {

namespace {

/// Salts separating the per-job streams hanging off the rack seed.
constexpr std::uint64_t kJobSimSalt = 0xDC51;
constexpr std::uint64_t kJobFaultSalt = 0xDCFA;

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
      preset_max_(init.cap.preset_max),
      thermal_(init.thermal) {
  SSM_CHECK(gpu_cfg_ != nullptr && vf_ != nullptr && mix_ != nullptr &&
                factory_ != nullptr,
            "GpuNode needs gpu config, vf table, workload mix and a governor "
            "factory");
  SSM_CHECK(!mix_->empty(), "GpuNode mix must be non-empty");
  SSM_CHECK(idle_power_w_ >= 0.0, "idle power must be non-negative");
  fault_active_ = fault_ != nullptr && fault_->active();
  thermal_enabled_ = thermal_ != nullptr && thermal_->enabled;
  if (thermal_enabled_) {
    idle_thermal_.emplace(thermal_->params, init.gpu->num_clusters);
    throttle_.emplace(thermal_->throttle, init.gpu->num_clusters,
                      static_cast<int>(init.vf->defaultLevel()));
    zero_power_w_.assign(static_cast<std::size_t>(init.gpu->num_clusters),
                         0.0);
    peak_temp_c_ = thermal_->params.ambient_c;
  }

  queue_.resize(std::max<std::size_t>(init.max_jobs, 1));
  completed_.reserve(std::max<std::size_t>(init.max_jobs, 1));

  // Governors are built once and reset() between jobs (the RL-style
  // contract of DvfsGovernor::reset). The soft-preset side channel is
  // resolved once here so the per-epoch loop costs a null check, not a
  // dynamic_cast.
  const int n = gpu_cfg_->num_clusters;
  governors_.reserve(static_cast<std::size_t>(n));
  presetable_.reserve(static_cast<std::size_t>(n));
  levels_.assign(static_cast<std::size_t>(n), vf_->defaultLevel());
  for (int i = 0; i < n; ++i) {
    std::unique_ptr<DvfsGovernor> gov = factory_->create(i);
    presetable_.push_back(dynamic_cast<SsmdvfsGovernor*>(gov.get()));
    governors_.push_back(std::move(gov));
  }
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

VfLevel GpuNode::ceilingForPreset(double preset) const noexcept {
  // preset 0 → no clamp; preset_max → pinned at the slowest level. The
  // rounding splits [0, preset_max] into equal bands per level step.
  const VfLevel max_level = vf_->defaultLevel();
  if (preset_max_ <= 0.0) return max_level;
  const double frac = std::clamp(preset / preset_max_, 0.0, 1.0);
  return max_level -
         static_cast<VfLevel>(std::lround(frac * max_level));
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
  if (thermal_enabled_) {
    // The job inherits the node temperatures the idle model carried —
    // back-to-back jobs start hot, a long-idle chip starts cooled down.
    machine.attachThermal(thermal_->params);
    machine.setThermalState(idle_thermal_->state());
  }
  sim_.emplace(std::move(machine));

  for (auto& gov : governors_) gov->reset();
  std::fill(levels_.begin(), levels_.end(), vf_->defaultLevel());
  if (fault_active_)
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
  if (thermal_enabled_) idle_thermal_->setState(sim_->gpu().thermalState());
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
  const double epoch_s =
      static_cast<double>(gpu_cfg_->epoch_ns) / 1e9;
  for (int e = 0; e < epochs; ++e) {
    if (!sim_.has_value()) startNextJob();
    if (!sim_.has_value()) {
      // Idle epoch: the rail still burns the floor, the chip loop still
      // integrates (so the preset relaxes and the cap ledger stays honest).
      stats.power_sum_w += idle_power_w_;
      idle_energy_j_ += idle_power_w_ * epoch_s;
      stats.cap_violations += idle_power_w_ > cap_.cap();
      static_cast<void>(cap_.onEpoch(idle_power_w_));
      if (thermal_enabled_) {
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

    GpuEpochReport report = sim_->nextEpoch(levels_);
    if (thermal_enabled_) {
      // Physical peak, scanned before fault corruption touches the sensors.
      peak_temp_c_ = std::max(peak_temp_c_, report.package_temp_c);
      for (const double t : report.cluster_temps_c)
        peak_temp_c_ = std::max(peak_temp_c_, t);
    }
    if (injector_ != nullptr) injector_->onTelemetry(report);
    // The throttle reads the (possibly fault-corrupted) sensor view, like
    // real protection hardware behind a flaky sensor bus.
    if (thermal_enabled_)
      throttle_->observe(report.cluster_temps_c, report.package_temp_c);
    stats.power_sum_w += report.chip_power_w;
    stats.cap_violations += report.chip_power_w > cap_.cap();
    ++stats.busy_epochs;
    ++busy_epochs_;

    // Chip integral loop + rack bias → effective preset for the epoch.
    const double chip_preset = cap_.onEpoch(report.chip_power_w);
    const double eff_preset = std::min(chip_preset + rack_bias_, preset_max_);
    const VfLevel ceiling = ceilingForPreset(eff_preset);
    const int n = gpu_cfg_->num_clusters;
    for (int i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      if (presetable_[u] != nullptr)
        presetable_[u]->setLossPreset(std::max(eff_preset, 1e-6));
      const EpochObservation& obs = report.clusters[u];
      VfLevel requested = vf_->clamp(governors_[u]->decide(obs));
      if (injector_ != nullptr)
        requested = injector_->onActuate(i, requested, obs.level);
      // Rail-level backstop: the cap ceiling binds after governor and
      // fault arbitration, for every mechanism; the thermal throttle
      // composes on top as a second hardware limiter.
      levels_[u] = std::min(requested, ceiling);
      if (thermal_enabled_) levels_[u] = throttle_->clamp(i, levels_[u]);
    }

    ++stats.epochs;
    now_ns_ += gpu_cfg_->epoch_ns;
    if (report.all_done) finishJob();
  }
  return stats;
}

}  // namespace ssm::dc
