#include "dc/dc_sweep.hpp"

#include <concepts>
#include <ostream>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/json_writer.hpp"
#include "sched/fleet.hpp"

namespace ssm::dc {

namespace {

// Every axis falls back to the base's value when left empty, so a spec
// with no axes set runs the base rack exactly once and a forgotten axis
// can never silently replace a configured base field with a default.
template <typename T>
std::span<const T> axis(const std::vector<T>& values, const T& base) {
  return values.empty() ? std::span<const T>(&base, 1)
                        : std::span<const T>(values);
}

/// A spec-grammar value (traffic, faults, thermal): JSON writes its
/// canonical print() as a string; CSV always quotes it, since the grammars
/// contain ',' and ';' (print() never emits a quote character).
template <class T>
concept Grammar = requires(const T& g) {
  { g.print() } -> std::convertible_to<std::string>;
};

/// The dc row's columns in output order: the one field list JSONL and CSV
/// both visit, so the two formats cannot drift. Fault columns appear only
/// when the rack degrades chips, thermal columns only when its scenario is
/// enabled, so clean sweeps keep the lean schema.
template <class Row>
void fields(Row& row, const RackSpec& cell, const RackResult& rack) {
  row("traffic", cell.traffic);
  row("policy", policyName(cell.policy));
  row("rack_cap_w", cell.power.rack_cap_w);
  row("mechanism", cell.mechanism);
  row("seed", cell.seed);
  row("gpus", rack.gpus);
  row("jobs", rack.jobs.size());
  row("completed", rack.completed);
  row("unfinished", rack.unfinished);
  row("deadline_miss_rate", rack.deadline_miss_rate);
  row("energy_per_job_mj", rack.energy_per_job_j * 1e3);
  row("mean_rack_power_w", rack.mean_rack_power_w);
  row("max_rack_power_w", rack.max_rack_power_w);
  row("cap_violation_frac", rack.cap_violation_frac);
  row("steady_violation_frac", rack.steady_violation_frac);
  row("p50_latency_us", static_cast<double>(rack.p50_latency_ns) / 1e3);
  row("p99_latency_us", static_cast<double>(rack.p99_latency_ns) / 1e3);
  row("makespan_ms", static_cast<double>(rack.makespan_ns) / 1e6);
  row("rounds", rack.rounds);
  row("busy_gpu_epochs", rack.busy_gpu_epochs);
  if (cell.fault.active() && !cell.degraded.empty()) {
    row("faults", cell.fault);
    row("degraded_gpus", cell.degraded.size());
    row("injected_faults", rack.fault_counts.total());
  }
  if (cell.thermal.enabled) {
    row("thermal", cell.thermal);
    row("peak_temp_c", rack.peak_temp_c);
    row("throttle_epochs", rack.throttle_epochs);
  }
}

/// One JSONL object's members: integers widen to 64 bits, grammars print.
struct JsonRow {
  JsonWriter& w;
  template <class T>
  void operator()(const char* key, const T& v) {
    if constexpr (Grammar<T>)
      w.value(key, v.print());
    else if constexpr (std::is_unsigned_v<T>)
      w.value(key, static_cast<std::uint64_t>(v));
    else if constexpr (std::is_integral_v<T>)
      w.value(key, static_cast<std::int64_t>(v));
    else
      w.value(key, v);
  }
};

/// One CSV line: the header (keys) or a row (values at %.17g precision).
struct CsvRow {
  explicit CsvRow(bool is_header) : header(is_header) { line.precision(17); }
  template <class T>
  void operator()(const char* key, const T& v) {
    if (line.tellp() > 0) line << ',';
    if (header)
      line << key;
    else if constexpr (Grammar<T>)
      line << '"' << v.print() << '"';
    else
      line << v;
  }
  bool header;
  std::ostringstream line;
};

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
  std::ostringstream ss;
  JsonWriter w(ss);
  JsonRow row{w};
  w.beginObject();
  fields(row, cellSpec(spec, r.job), r.rack);
  w.endObject();
  return std::move(ss).str();
}

void writeCsv(const DcSweepSpec& spec,
              const std::vector<DcSweepResult>& results, std::ostream& os) {
  CsvRow header(true);
  fields(header, spec.base, RackResult{});
  os << header.line.str() << '\n';
  for (const auto& r : results) {
    CsvRow row(false);
    fields(row, cellSpec(spec, r.job), r.rack);
    os << row.line.str() << '\n';
  }
}

}  // namespace ssm::dc
