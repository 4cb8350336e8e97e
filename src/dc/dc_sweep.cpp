#include "dc/dc_sweep.hpp"

#include <ostream>
#include <span>
#include <sstream>
#include <utility>

#include "common/json_writer.hpp"
#include "sched/fleet.hpp"

namespace ssm::dc {

namespace {

/// The fault columns appear only when the template actually degrades
/// chips — clean sweeps keep the lean schema (the fleet.cpp rule).
bool faultsActive(const DcSweepSpec& spec) {
  return spec.base.fault.active() && !spec.base.degraded.empty();
}

/// Thermal columns appear only when the template enables the scenario.
bool thermalActive(const DcSweepSpec& spec) {
  return spec.base.thermal.enabled;
}

// Every axis falls back to the base's value when left empty, so a spec
// with no axes set runs the base rack exactly once and a forgotten axis
// can never silently replace a configured base field with a default.
template <typename T>
std::span<const T> axis(const std::vector<T>& values, const T& base) {
  return values.empty() ? std::span<const T>(&base, 1)
                        : std::span<const T>(values);
}
}  // namespace

std::vector<DcSweepJob> expandDcJobs(const DcSweepSpec& spec) {
  const std::size_t traffics = axis(spec.traffic, spec.base.traffic).size();
  const std::size_t policies = axis(spec.policies, spec.base.policy).size();
  const std::size_t caps =
      axis(spec.rack_caps_w, spec.base.power.rack_cap_w).size();
  const std::size_t mechanisms =
      axis(spec.mechanisms, spec.base.mechanism).size();
  const std::size_t seeds = axis(spec.seeds, spec.base.seed).size();

  std::vector<DcSweepJob> jobs;
  jobs.reserve(traffics * policies * caps * mechanisms * seeds);
  for (std::size_t t = 0; t < traffics; ++t)
    for (std::size_t p = 0; p < policies; ++p)
      for (std::size_t c = 0; c < caps; ++c)
        for (std::size_t m = 0; m < mechanisms; ++m)
          for (std::size_t s = 0; s < seeds; ++s) {
            DcSweepJob job;
            job.index = jobs.size();
            job.traffic = t;
            job.policy = p;
            job.cap = c;
            job.mechanism = m;
            job.seed = s;
            jobs.push_back(job);
          }
  return jobs;
}

RackSpec cellSpec(const DcSweepSpec& spec, const DcSweepJob& job) {
  RackSpec cell = spec.base;
  cell.traffic = axis(spec.traffic, spec.base.traffic)[job.traffic];
  cell.policy = axis(spec.policies, spec.base.policy)[job.policy];
  cell.power.rack_cap_w =
      axis(spec.rack_caps_w, spec.base.power.rack_cap_w)[job.cap];
  cell.mechanism = axis(spec.mechanisms, spec.base.mechanism)[job.mechanism];
  cell.seed = axis(spec.seeds, spec.base.seed)[job.seed];
  return cell;
}

DcSweepRunner::DcSweepRunner(const DcSweepSpec& spec, ThreadPool& pool)
    : spec_(spec), pool_(pool), jobs_(expandDcJobs(spec)) {
  // Fail fast on an unsatisfiable spec before any simulation time.
  for (const auto& mech : axis(spec_.mechanisms, spec_.base.mechanism))
    static_cast<void>(fleet::makeGovernorFactory(mech, spec_.base.vf, 0.10,
                                                 spec_.base.model));
}

DcSweepResult DcSweepRunner::runJob(std::size_t i) const {
  DcSweepResult r;
  r.job = jobs_[i];
  r.rack = runRack(cellSpec(spec_, jobs_[i]), &pool_);
  return r;
}

std::vector<DcSweepResult> DcSweepRunner::run() const {
  std::vector<DcSweepResult> results;
  results.reserve(jobs_.size());
  pool_.parallelForOrdered(
      jobs_.size(), [&](std::size_t i) { return runJob(i); },
      [&](DcSweepResult r) { results.push_back(std::move(r)); });
  return results;
}

std::size_t DcSweepRunner::runJsonl(std::ostream& os) const {
  std::size_t lines = 0;
  pool_.parallelForOrdered(
      jobs_.size(),
      [&](std::size_t i) { return toJsonLine(spec_, runJob(i)); },
      [&](const std::string& line) {
        os << line << '\n';
        ++lines;
      });
  return lines;
}

std::string toJsonLine(const DcSweepSpec& spec, const DcSweepResult& r) {
  const RackResult& rack = r.rack;
  const RackSpec cell = cellSpec(spec, r.job);
  std::ostringstream ss;
  JsonWriter w(ss);
  w.beginObject()
      .value("traffic", cell.traffic.print())
      .value("policy", policyName(cell.policy))
      .value("rack_cap_w", cell.power.rack_cap_w)
      .value("mechanism", cell.mechanism)
      .value("seed", static_cast<std::int64_t>(cell.seed))
      .value("gpus", rack.gpus)
      .value("jobs", static_cast<std::int64_t>(rack.jobs.size()))
      .value("completed", rack.completed)
      .value("unfinished", rack.unfinished)
      .value("deadline_miss_rate", rack.deadline_miss_rate)
      .value("energy_per_job_mj", rack.energy_per_job_j * 1e3)
      .value("mean_rack_power_w", rack.mean_rack_power_w)
      .value("max_rack_power_w", rack.max_rack_power_w)
      .value("cap_violation_frac", rack.cap_violation_frac)
      .value("steady_violation_frac", rack.steady_violation_frac)
      .value("p50_latency_us",
             static_cast<double>(rack.p50_latency_ns) / 1e3)
      .value("p99_latency_us",
             static_cast<double>(rack.p99_latency_ns) / 1e3)
      .value("makespan_ms",
             static_cast<double>(rack.makespan_ns) / 1e6)
      .value("rounds", rack.rounds)
      .value("busy_gpu_epochs",
             static_cast<std::int64_t>(rack.busy_gpu_epochs));
  if (faultsActive(spec)) {
    w.value("faults", spec.base.fault.print())
        .value("degraded_gpus",
               static_cast<std::int64_t>(spec.base.degraded.size()))
        .value("injected_faults", rack.fault_counts.total());
  }
  if (thermalActive(spec)) {
    w.value("thermal", spec.base.thermal.print())
        .value("peak_temp_c", rack.peak_temp_c)
        .value("throttle_epochs", rack.throttle_epochs);
  }
  w.endObject();
  return std::move(ss).str();
}

void writeCsv(const DcSweepSpec& spec,
              const std::vector<DcSweepResult>& results, std::ostream& os) {
  const bool with_faults = faultsActive(spec);
  const bool with_thermal = thermalActive(spec);
  os << "traffic,policy,rack_cap_w,mechanism,seed,gpus,jobs,completed,"
        "unfinished,deadline_miss_rate,energy_per_job_mj,mean_rack_power_w,"
        "max_rack_power_w,cap_violation_frac,steady_violation_frac,"
        "p50_latency_us,p99_latency_us,makespan_ms,rounds,busy_gpu_epochs";
  if (with_faults) os << ",faults,degraded_gpus,injected_faults";
  if (with_thermal) os << ",thermal,peak_temp_c,throttle_epochs";
  os << '\n';
  std::ostringstream num;
  num.precision(17);
  for (const auto& r : results) {
    const RackResult& rack = r.rack;
    const RackSpec cell = cellSpec(spec, r.job);
    num.str({});
    num << cell.power.rack_cap_w << ',' << cell.mechanism << ','
        << cell.seed << ',' << rack.gpus << ','
        << rack.jobs.size() << ',' << rack.completed << ','
        << rack.unfinished << ',' << rack.deadline_miss_rate << ','
        << rack.energy_per_job_j * 1e3 << ',' << rack.mean_rack_power_w
        << ',' << rack.max_rack_power_w << ',' << rack.cap_violation_frac
        << ',' << rack.steady_violation_frac << ','
        << static_cast<double>(rack.p50_latency_ns) / 1e3 << ','
        << static_cast<double>(rack.p99_latency_ns) / 1e3 << ','
        << static_cast<double>(rack.makespan_ns) / 1e6 << ','
        << rack.rounds << ',' << rack.busy_gpu_epochs;
    if (with_faults) {
      // The spec's canonical form contains ','; quote it per CSV rules
      // (print() never emits a quote character).
      num << ",\"" << spec.base.fault.print() << "\","
          << spec.base.degraded.size() << ','
          << rack.fault_counts.total();
    }
    if (with_thermal) {
      // The scenario's canonical form may contain ','; quote like faults.
      num << ",\"" << spec.base.thermal.print() << "\","
          << rack.peak_temp_c << ',' << rack.throttle_epochs;
    }
    // The traffic grammar also contains ';' and '='; quote it too.
    os << '"' << cell.traffic.print() << "\"," << policyName(cell.policy)
       << ',' << num.str() << '\n';
  }
}

}  // namespace ssm::dc
