// Datacenter sweeps: the cartesian product traffic × policy × rack cap ×
// mechanism × seed, each cell a full rack simulation.
//
// Mirrors fleet::FleetRunner's contract (docs/fleet.md): deterministic
// expansion order, coordinate-keyed seeds, the pool's ordered parallelFor
// (ThreadPool::parallelForOrdered), and byte-identical output at any --jobs
// count.
// Cells run on the pool AND each cell's nodes fan out on the same pool
// (nested parallelFor — the work-stealing pool supports it), so a single
// large rack and a wide sweep both saturate the machine.
//
// deadline_miss_rate and energy_per_job are first-class columns in both
// JSONL and CSV output — the headline metrics of the ROADMAP's
// "millions of users" scenario.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dc/rack.hpp"
#include "sched/thread_pool.hpp"

namespace ssm::dc {

struct DcSweepSpec {
  /// Per-cell template: gpus, gpu config, vf, mix, power gains, fault
  /// scenario + degraded set, round geometry. The axes below override
  /// traffic, policy, rack cap, mechanism and seed per cell; an EMPTY axis
  /// falls back to the base's value, so a spec with no axes set runs the
  /// base rack exactly once.
  RackSpec base;
  std::vector<TrafficSpec> traffic;        ///< empty → {base.traffic}
  std::vector<DispatchPolicy> policies;    ///< empty → {base.policy}
  std::vector<double> rack_caps_w;         ///< empty → {base.power.rack_cap_w}
  std::vector<std::string> mechanisms;     ///< empty → {base.mechanism}
  std::vector<std::uint64_t> seeds;        ///< empty → {base.seed}
};

/// One cell, in expansion order (traffic-major, then policy, cap,
/// mechanism, seed).
struct DcSweepJob {
  std::size_t index = 0;
  std::size_t traffic = 0;
  std::size_t policy = 0;
  std::size_t cap = 0;
  std::size_t mechanism = 0;
  std::size_t seed = 0;
};

struct DcSweepResult {
  DcSweepJob job;
  RackResult rack;
};

/// Expands the cartesian product in deterministic order. Empty axes
/// count as one cell drawn from the base spec.
[[nodiscard]] std::vector<DcSweepJob> expandDcJobs(const DcSweepSpec& spec);

/// Materializes one cell's RackSpec from the template + coordinates.
[[nodiscard]] RackSpec cellSpec(const DcSweepSpec& spec,
                                const DcSweepJob& job);

class DcSweepRunner {
 public:
  /// `spec` must outlive the runner. Cells and their racks execute on
  /// `pool`.
  DcSweepRunner(const DcSweepSpec& spec, ThreadPool& pool);

  /// Runs every cell; returns results in job-index order.
  [[nodiscard]] std::vector<DcSweepResult> run() const;

  /// Streams one JSON object per cell into `os` in job-index order as soon
  /// as the completed prefix allows. Returns the number of lines written.
  std::size_t runJsonl(std::ostream& os) const;

  [[nodiscard]] const std::vector<DcSweepJob>& jobs() const noexcept {
    return jobs_;
  }

 private:
  [[nodiscard]] DcSweepResult runJob(std::size_t i) const;

  const DcSweepSpec& spec_;
  ThreadPool& pool_;
  std::vector<DcSweepJob> jobs_;
};

/// One compact JSON object (single line, no trailing newline) per cell.
[[nodiscard]] std::string toJsonLine(const DcSweepSpec& spec,
                                     const DcSweepResult& r);

/// CSV export: header + one row per cell, in the given order.
void writeCsv(const DcSweepSpec& spec,
              const std::vector<DcSweepResult>& results, std::ostream& os);

}  // namespace ssm::dc
