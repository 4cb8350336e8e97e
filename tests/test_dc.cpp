// Tests for src/dc: traffic generation, the hierarchical power coordinator,
// dispatch policies, the rack simulation (the ISSUE acceptance scenario:
// >= 16 GPUs under a rack cap serving deadline-tagged traffic), and the dc
// sweep's byte-identical-at-any---jobs contract.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "dc/dc_sweep.hpp"
#include "dc/dispatcher.hpp"
#include "dc/rack.hpp"
#include "dc/rack_power.hpp"
#include "dc/traffic.hpp"
#include "faults/fault_spec.hpp"
#include "sched/thread_pool.hpp"
#include "thermal/thermal_spec.hpp"

namespace ssm {
namespace {

using dc::DispatchPolicy;
using dc::TrafficSpec;

/// A synthetic kernel small enough that a whole rack simulation stays in
/// test time: ~8.8k instructions per warp, 8 resident warps per cluster.
KernelProfile tinyKernel(const char* name, std::int64_t insts_per_warp,
                         double load_frac) {
  KernelProfile k;
  k.name = name;
  k.suite = "synthetic";
  PhaseProfile p;
  p.mix.ialu = 0.95 - load_frac;
  p.mix.load = load_frac;
  p.mix.branch = 0.05;
  p.insts_per_warp = insts_per_warp;
  k.phases = {p};
  k.warps_per_cluster = 8;
  k.validate();
  return k;
}

/// Small rack template shared by the DcRack / DcSweep tests: 4-cluster
/// GPUs, two tiny kernels, a low idle floor so the cap math is about the
/// busy chips.
dc::RackSpec smallRackSpec(int gpus) {
  dc::RackSpec spec;
  spec.gpus = gpus;
  spec.gpu.num_clusters = 4;
  spec.mix = {tinyKernel("tiny-compute", 8800, 0.05),
              tinyKernel("tiny-memory", 6600, 0.30)};
  spec.traffic = TrafficSpec::parse("shape=bursty;jobs=20;rate=4;burst=6");
  spec.idle_power_w = 5.0;
  spec.power.idle_floor_w = 6.0;
  spec.max_rounds = 4000;
  return spec;
}

// ---------------------------------------------------------------- traffic

TEST(DcTraffic, ParsePrintRoundTrip) {
  const char* specs[] = {
      "shape=steady;jobs=10;rate=1.5;slack=2;prio=3",
      "shape=bursty;jobs=64;rate=2;slack=3;burst=6;duty=0.25;period=4;prio=2",
      "shape=diurnal;jobs=32;rate=4;period=8",
      "shape=adversarial;jobs=12;burst=4;period=2",
  };
  for (const char* text : specs) {
    const TrafficSpec spec = TrafficSpec::parse(text);
    EXPECT_EQ(TrafficSpec::parse(spec.print()), spec) << text;
  }
  // The empty string is the default (steady) spec.
  EXPECT_EQ(TrafficSpec::parse(""), TrafficSpec{});
  // Steady print omits the modulation keys.
  EXPECT_EQ(TrafficSpec{}.print().find("burst"), std::string::npos);
  EXPECT_EQ(TrafficSpec{}.print().find("period"), std::string::npos);
}

TEST(DcTraffic, ParseRejectsBadSpecs) {
  EXPECT_THROW(static_cast<void>(TrafficSpec::parse("shape=lumpy")),
               DataError);
  EXPECT_THROW(static_cast<void>(TrafficSpec::parse("cadence=5")), DataError);
  EXPECT_THROW(static_cast<void>(TrafficSpec::parse("jobs=0")), DataError);
  EXPECT_THROW(static_cast<void>(TrafficSpec::parse("rate=-1")), DataError);
  EXPECT_THROW(static_cast<void>(TrafficSpec::parse("duty=1.5")), DataError);
  EXPECT_THROW(static_cast<void>(TrafficSpec::parse("prio=0")), DataError);
  EXPECT_THROW(static_cast<void>(TrafficSpec::parse("jobs")), DataError);
  EXPECT_THROW(static_cast<void>(TrafficSpec::parse("rate=abc")), DataError);
}

TEST(DcTraffic, GenerationIsDeterministicPerSeed) {
  const GpuConfig gpu;
  const VfTable vf = VfTable::titanX();
  const std::vector<KernelProfile> mix = {tinyKernel("a", 8000, 0.1),
                                          tinyKernel("b", 4000, 0.3)};
  const TrafficSpec spec =
      TrafficSpec::parse("shape=bursty;jobs=40;rate=2;burst=4");
  const auto one = generateTraffic(spec, mix, gpu, vf, 99);
  const auto two = generateTraffic(spec, mix, gpu, vf, 99);
  ASSERT_EQ(one.size(), two.size());
  for (std::size_t j = 0; j < one.size(); ++j) {
    EXPECT_EQ(one[j].arrival_ns, two[j].arrival_ns);
    EXPECT_EQ(one[j].deadline_ns, two[j].deadline_ns);
    EXPECT_EQ(one[j].workload, two[j].workload);
    EXPECT_EQ(one[j].priority, two[j].priority);
  }
  // A different seed moves the arrivals.
  const auto other = generateTraffic(spec, mix, gpu, vf, 100);
  bool any_diff = false;
  for (std::size_t j = 0; j < one.size(); ++j)
    any_diff = any_diff || one[j].arrival_ns != other[j].arrival_ns;
  EXPECT_TRUE(any_diff);
}

TEST(DcTraffic, StreamIsSortedAndFeasible) {
  const GpuConfig gpu;
  const VfTable vf = VfTable::titanX();
  const std::vector<KernelProfile> mix = {tinyKernel("a", 8000, 0.1)};
  const TrafficSpec spec =
      TrafficSpec::parse("shape=diurnal;jobs=50;rate=3;prio=4");
  const auto jobs = generateTraffic(spec, mix, gpu, vf, 7);
  ASSERT_EQ(jobs.size(), 50u);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(jobs[j].id, static_cast<std::uint32_t>(j));
    if (j > 0) {
      EXPECT_GE(jobs[j].arrival_ns, jobs[j - 1].arrival_ns);
    }
    EXPECT_GE(jobs[j].est_service_ns, gpu.epoch_ns);
    // Deadlines leave at least the estimated service time.
    EXPECT_GE(jobs[j].deadline_ns, jobs[j].arrival_ns + jobs[j].est_service_ns);
    EXPECT_GE(jobs[j].priority, 0);
    EXPECT_LT(jobs[j].priority, 4);
    EXPECT_EQ(jobs[j].workload, 0u);
  }
}

TEST(DcTraffic, AdversarialWavesLandTogetherAtMaxPriority) {
  const GpuConfig gpu;
  const VfTable vf = VfTable::titanX();
  const std::vector<KernelProfile> mix = {tinyKernel("a", 8000, 0.1)};
  const TrafficSpec spec =
      TrafficSpec::parse("shape=adversarial;jobs=12;burst=4;period=2;prio=3");
  const auto jobs = generateTraffic(spec, mix, gpu, vf, 7);
  ASSERT_EQ(jobs.size(), 12u);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto wave = static_cast<TimeNs>(j / 4);
    EXPECT_EQ(jobs[j].arrival_ns, wave * 2 * kNsPerMs);
    EXPECT_EQ(jobs[j].priority, 2);
  }
}

TEST(DcTraffic, ServiceEstimateScalesWithWorkAndFloorsAtEpoch) {
  const GpuConfig gpu;
  const VfTable vf = VfTable::titanX();
  const TimeNs small =
      dc::estimatedServiceNs(tinyKernel("s", 10, 0.1), gpu, vf);
  const TimeNs mid = dc::estimatedServiceNs(tinyKernel("m", 8000, 0.1), gpu, vf);
  const TimeNs big =
      dc::estimatedServiceNs(tinyKernel("b", 80000, 0.1), gpu, vf);
  EXPECT_EQ(small, gpu.epoch_ns);  // floored
  EXPECT_GT(big, mid);
  EXPECT_NEAR(static_cast<double>(big) / static_cast<double>(mid), 10.0, 0.5);
}

// ------------------------------------------------------------ coordinator

TEST(DcCoordinator, CapSumNeverExceedsRackCap) {
  dc::RackPowerConfig cfg;
  cfg.rack_cap_w = 400.0;
  cfg.idle_floor_w = 20.0;
  dc::RackPowerCoordinator coord(cfg, 4);

  const std::vector<std::vector<double>> rounds = {
      {10.0, 10.0, 10.0, 10.0},     // all idle
      {120.0, 130.0, 15.0, 10.0},   // two loaded, two idle
      {150.0, 140.0, 130.0, 120.0}, // all loaded, over budget
      {0.0, 0.0, 0.0, 200.0},       // one hog
  };
  const std::vector<std::vector<std::uint8_t>> loaded = {
      {0, 0, 0, 0}, {1, 1, 0, 0}, {1, 1, 1, 1}, {0, 0, 0, 1}};
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    coord.onRound(rounds[r], loaded[r]);
    double sum = 0.0;
    for (int g = 0; g < 4; ++g) {
      EXPECT_GT(coord.capFor(g), 0.0);
      sum += coord.capFor(g);
    }
    EXPECT_LE(sum, cfg.rack_cap_w + 1e-9) << "round " << r;
  }
  EXPECT_EQ(coord.rounds(), 4);
}

TEST(DcCoordinator, IdleHeadroomFlowsToLoadedGpus) {
  dc::RackPowerConfig cfg;
  cfg.rack_cap_w = 400.0;  // equal share 100 W
  cfg.idle_floor_w = 20.0;
  dc::RackPowerCoordinator coord(cfg, 4);

  const std::vector<double> power = {150.0, 140.0, 8.0, 8.0};
  const std::vector<std::uint8_t> loaded = {1, 1, 0, 0};
  coord.onRound(power, loaded);

  const double share = cfg.rack_cap_w / 4;
  // Idle chips keep the floor (draw x margin = 10 W < floor 20 W).
  EXPECT_DOUBLE_EQ(coord.capFor(2), cfg.idle_floor_w);
  EXPECT_DOUBLE_EQ(coord.capFor(3), cfg.idle_floor_w);
  // Loaded chips get more than the equal share, the heavier one more.
  EXPECT_GT(coord.capFor(0), share);
  EXPECT_GT(coord.capFor(1), share);
  EXPECT_GT(coord.capFor(0), coord.capFor(1));
  const double sum =
      coord.capFor(0) + coord.capFor(1) + coord.capFor(2) + coord.capFor(3);
  EXPECT_NEAR(sum, cfg.rack_cap_w, 1e-9);
}

TEST(DcCoordinator, RackBiasIntegratesOverdrawAndDecays) {
  dc::RackPowerConfig cfg;
  cfg.rack_cap_w = 100.0;
  dc::RackPowerCoordinator coord(cfg, 2);
  const std::vector<double> over = {90.0, 90.0};  // 180 W vs 100 W cap
  const std::vector<std::uint8_t> loaded = {1, 1};
  EXPECT_DOUBLE_EQ(coord.rackBias(), 0.0);
  for (int r = 0; r < 50; ++r) coord.onRound(over, loaded);
  const double risen = coord.rackBias();
  EXPECT_GT(risen, 0.0);
  EXPECT_LE(risen, cfg.rack_bias_max);
  EXPECT_EQ(coord.violationRounds(), 50);

  const std::vector<double> under = {10.0, 10.0};
  for (int r = 0; r < 50; ++r) coord.onRound(under, loaded);
  EXPECT_LT(coord.rackBias(), risen);
  EXPECT_EQ(coord.violationRounds(), 50);
}

TEST(DcCoordinator, ResetRestoresEqualShares) {
  dc::RackPowerConfig cfg;
  cfg.rack_cap_w = 300.0;
  dc::RackPowerCoordinator coord(cfg, 3);
  const std::vector<double> power = {200.0, 5.0, 5.0};
  const std::vector<std::uint8_t> loaded = {1, 0, 0};
  coord.onRound(power, loaded);
  EXPECT_NE(coord.capFor(0), coord.capFor(1));
  coord.reset();
  for (int g = 0; g < 3; ++g) EXPECT_DOUBLE_EQ(coord.capFor(g), 100.0);
  EXPECT_EQ(coord.rounds(), 0);
  EXPECT_DOUBLE_EQ(coord.rackBias(), 0.0);
}

TEST(DcCoordinator, RejectsMismatchedRoundSizes) {
  dc::RackPowerCoordinator coord(dc::RackPowerConfig{}, 3);
  const std::vector<double> two = {1.0, 2.0};
  const std::vector<std::uint8_t> three = {0, 0, 0};
  EXPECT_THROW(coord.onRound(two, three), ContractError);
}

// --------------------------------------------------------------- dispatch

dc::JobSpec jobWith(std::uint32_t id, TimeNs arrival, TimeNs deadline,
                    TimeNs est, int priority = 0) {
  dc::JobSpec j;
  j.id = id;
  j.arrival_ns = arrival;
  j.deadline_ns = deadline;
  j.est_service_ns = est;
  j.priority = priority;
  return j;
}

TEST(DcDispatch, PolicyNamesRoundTrip) {
  for (const auto p :
       {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastLoaded,
        DispatchPolicy::kDeadlineAware})
    EXPECT_EQ(dc::parseDispatchPolicy(dc::policyName(p)), p);
  EXPECT_THROW(static_cast<void>(dc::parseDispatchPolicy("fastest")),
               DataError);
}

TEST(DcDispatch, JobBeforeOrdersPriorityThenDeadlineThenId) {
  const auto low = jobWith(0, 0, 500, 100, 0);
  const auto high = jobWith(1, 0, 900, 100, 2);
  const auto high_tight = jobWith(2, 0, 400, 100, 2);
  const auto high_tight_later = jobWith(3, 0, 400, 100, 2);
  EXPECT_TRUE(dc::jobBefore(high, low));           // priority wins
  EXPECT_TRUE(dc::jobBefore(high_tight, high));    // then deadline
  EXPECT_TRUE(dc::jobBefore(high_tight, high_tight_later));  // then id
  EXPECT_FALSE(dc::jobBefore(high_tight_later, high_tight));
}

TEST(DcDispatch, RoundRobinCyclesRegardlessOfLoad) {
  dc::Dispatcher d(DispatchPolicy::kRoundRobin, 3);
  std::vector<dc::NodeLoad> loads(3);
  loads[0].backlog_ns = 1'000'000;  // heavy load is ignored
  const auto job = jobWith(0, 0, 1000, 100);
  EXPECT_EQ(d.assign(job, loads), 0);
  EXPECT_EQ(d.assign(job, loads), 1);
  EXPECT_EQ(d.assign(job, loads), 2);
  EXPECT_EQ(d.assign(job, loads), 0);
}

TEST(DcDispatch, LeastLoadedPicksArgminWithLowestIdTies) {
  dc::Dispatcher d(DispatchPolicy::kLeastLoaded, 4);
  std::vector<dc::NodeLoad> loads(4);
  loads[0].backlog_ns = 300;
  loads[1].backlog_ns = 100;
  loads[2].backlog_ns = 100;
  loads[3].backlog_ns = 200;
  EXPECT_EQ(d.assign(jobWith(0, 0, 1000, 100), loads), 1);
}

TEST(DcDispatch, DeadlineAwarePrefersFeasibleHealthyGpus) {
  dc::Dispatcher d(DispatchPolicy::kDeadlineAware, 3);
  std::vector<dc::NodeLoad> loads(3);
  // Budget: deadline - arrival = 500; est = 100 → backlog must be <= 400.
  loads[0].backlog_ns = 900;                        // infeasible
  loads[1].backlog_ns = 100;
  loads[1].degraded = true;                         // feasible but degraded
  loads[2].backlog_ns = 300;                        // feasible, healthy
  EXPECT_EQ(d.assign(jobWith(0, 1000, 1500, 100), loads), 2);
  // With every GPU infeasible it degenerates to global least-loaded.
  loads[1].backlog_ns = 600;
  loads[2].backlog_ns = 700;
  EXPECT_EQ(d.assign(jobWith(1, 1000, 1100, 100), loads), 1);
}

// -------------------------------------------------------------------- rack

TEST(DcRack, SixteenGpuRackUnderCapMeetsAcceptance) {
  // The ISSUE acceptance scenario: a 16-GPU rack under a binding rack cap
  // serving deadline-tagged bursty traffic. Headline metrics must be
  // reported and the rack cap respected in steady state (violation rounds
  // bounded).
  dc::RackSpec spec = smallRackSpec(16);
  spec.power.rack_cap_w = 16 * 25.0;  // binding: a busy 4-cluster chip
                                      // draws well above 25 W
  const dc::RackResult r = dc::runRack(spec);

  EXPECT_EQ(r.gpus, 16);
  ASSERT_EQ(r.jobs.size(), 20u);
  EXPECT_EQ(r.completed + r.unfinished, 20);
  EXPECT_GT(r.completed, 0);
  EXPECT_GT(r.rounds, 0);
  EXPECT_GT(r.busy_gpu_epochs, 0);
  EXPECT_GT(r.total_gpu_epochs, r.busy_gpu_epochs);

  // Headline metrics: present, in range, and internally consistent.
  EXPECT_GE(r.deadline_miss_rate, 0.0);
  EXPECT_LE(r.deadline_miss_rate, 1.0);
  EXPECT_NEAR(r.deadline_miss_rate, r.missed_deadlines / 20.0, 1e-12);
  EXPECT_GT(r.energy_per_job_j, 0.0);
  EXPECT_GT(r.total_energy_j, 0.0);
  EXPECT_GE(r.max_rack_power_w, r.mean_rack_power_w);

  // Cap compliance: transient burst overshoot is allowed, steady state is
  // controlled. The controller must keep most post-warmup rounds legal.
  EXPECT_LE(r.steady_violation_frac, 0.5);
  EXPECT_GE(r.steady_violation_frac, 0.0);

  // Ledger consistency per job.
  int completed = 0;
  for (std::size_t j = 0; j < r.jobs.size(); ++j) {
    const dc::JobOutcome& o = r.jobs[j];
    EXPECT_EQ(o.id, static_cast<std::uint32_t>(j));
    if (!o.completed) {
      EXPECT_TRUE(o.missed);
      continue;
    }
    ++completed;
    EXPECT_GE(o.gpu, 0);
    EXPECT_LT(o.gpu, 16);
    EXPECT_GE(o.start_ns, o.arrival_ns);
    EXPECT_GT(o.finish_ns, o.start_ns);
    EXPECT_EQ(o.missed, o.finish_ns > o.deadline_ns);
    EXPECT_GT(o.energy_j, 0.0);
    EXPECT_GT(o.instructions, 0);
  }
  EXPECT_EQ(completed, r.completed);
  ASSERT_EQ(r.nodes.size(), 16u);
  int jobs_run = 0;
  for (const auto& n : r.nodes) {
    jobs_run += n.jobs_run;
    EXPECT_FALSE(n.degraded);
  }
  EXPECT_EQ(jobs_run, r.completed);
  EXPECT_EQ(r.fault_counts.total(), 0);
}

TEST(DcRack, CapActuallyThrottlesTheChips) {
  // Same rack, binding vs generous budget: the capped rack must draw less
  // peak power. (Energy and latency shift too, but peak power is the
  // direct, monotone consequence of the V/f ceiling.)
  dc::RackSpec spec = smallRackSpec(8);
  spec.traffic = TrafficSpec::parse("shape=adversarial;jobs=12;burst=6");
  spec.power.rack_cap_w = 8 * 100.0;  // never binds on 4-cluster chips
  const dc::RackResult loose = dc::runRack(spec);
  spec.power.rack_cap_w = 8 * 15.0;
  const dc::RackResult tight = dc::runRack(spec);
  EXPECT_LT(tight.max_rack_power_w, loose.max_rack_power_w);
  EXPECT_GT(tight.final_rack_bias + 0.0, 0.0);
}

TEST(DcRack, SerialAndPooledRunsAgreeExactly) {
  const dc::RackSpec spec = smallRackSpec(8);
  const dc::RackResult serial = dc::runRack(spec, nullptr);
  ThreadPool pool(4);
  const dc::RackResult pooled = dc::runRack(spec, &pool);

  EXPECT_EQ(serial.rounds, pooled.rounds);
  EXPECT_EQ(serial.completed, pooled.completed);
  EXPECT_EQ(serial.busy_gpu_epochs, pooled.busy_gpu_epochs);
  EXPECT_DOUBLE_EQ(serial.total_energy_j, pooled.total_energy_j);
  EXPECT_DOUBLE_EQ(serial.mean_rack_power_w, pooled.mean_rack_power_w);
  EXPECT_DOUBLE_EQ(serial.max_rack_power_w, pooled.max_rack_power_w);
  ASSERT_EQ(serial.jobs.size(), pooled.jobs.size());
  for (std::size_t j = 0; j < serial.jobs.size(); ++j) {
    EXPECT_EQ(serial.jobs[j].gpu, pooled.jobs[j].gpu);
    EXPECT_EQ(serial.jobs[j].start_ns, pooled.jobs[j].start_ns);
    EXPECT_EQ(serial.jobs[j].finish_ns, pooled.jobs[j].finish_ns);
    EXPECT_DOUBLE_EQ(serial.jobs[j].energy_j, pooled.jobs[j].energy_j);
  }
}

TEST(DcRack, DegradedSubsetCarriesTheFaultsAloneAndIsReported) {
  dc::RackSpec spec = smallRackSpec(4);
  spec.fault = faults::FaultSpec::parse("noise:p=0.8,sigma=0.5");
  spec.degraded = {1, 3};
  const dc::RackResult r = dc::runRack(spec);
  ASSERT_EQ(r.nodes.size(), 4u);
  EXPECT_FALSE(r.nodes[0].degraded);
  EXPECT_TRUE(r.nodes[1].degraded);
  EXPECT_FALSE(r.nodes[2].degraded);
  EXPECT_TRUE(r.nodes[3].degraded);
  EXPECT_GT(r.fault_counts.total(), 0);
  EXPECT_EQ(r.completed + r.unfinished, 20);

  // A clean rack of the same shape reports zero injected faults.
  const dc::RackResult clean = dc::runRack(smallRackSpec(4));
  EXPECT_EQ(clean.fault_counts.total(), 0);

  // Out-of-range degraded ids are rejected up front.
  spec.degraded = {7};
  EXPECT_THROW(static_cast<void>(dc::runRack(spec)), ContractError);
}

TEST(DcRack, ThermalDegradedRackIsDeterministicAndReportsBothLimiters) {
  // A hot rack whose degraded chips also fail and stick transitions: the
  // node's idle cooling, heat carry-over, persistent throttle and actuator
  // faults all run on every node's epoch loop.
  dc::RackSpec spec = smallRackSpec(8);
  spec.thermal =
      thermal::ThermalScenario::parse("trip=34,ptrip=33,hyst=1,recover=4");
  spec.fault = faults::FaultSpec::parse("fail:p=0.2;stuck:p=0.05,epochs=6");
  spec.degraded = {1, 3};
  const dc::RackResult serial = dc::runRack(spec, nullptr);
  ThreadPool pool(4);
  const dc::RackResult pooled = dc::runRack(spec, &pool);

  EXPECT_TRUE(serial == pooled);
  ASSERT_EQ(serial.jobs.size(), pooled.jobs.size());
  for (std::size_t j = 0; j < serial.jobs.size(); ++j)
    EXPECT_TRUE(serial.jobs[j] == pooled.jobs[j]) << "job " << j;
  EXPECT_EQ(serial.completed + serial.unfinished, 20);
  EXPECT_GT(serial.throttle_epochs, 0);
  EXPECT_GT(serial.fault_counts.total(), 0);
  EXPECT_GT(serial.peak_temp_c, thermal::ThermalParams{}.ambient_c);
}

// ------------------------------------------------------------------- sweep

TEST(DcSweep, ExpansionOrderIsTrafficMajorAndDeterministic) {
  dc::DcSweepSpec spec;
  spec.base = smallRackSpec(2);
  spec.traffic = {TrafficSpec::parse("shape=steady;jobs=4"),
                  TrafficSpec::parse("shape=bursty;jobs=4")};
  spec.policies = {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastLoaded};
  spec.rack_caps_w = {100.0};
  spec.seeds = {1, 2};
  const auto jobs = dc::expandDcJobs(spec);
  ASSERT_EQ(jobs.size(), 8u);
  EXPECT_EQ(jobs[0].traffic, 0u);
  EXPECT_EQ(jobs[0].policy, 0u);
  EXPECT_EQ(jobs[0].seed, 0u);
  EXPECT_EQ(jobs[1].seed, 1u);  // seed is the innermost axis
  EXPECT_EQ(jobs[2].policy, 1u);
  EXPECT_EQ(jobs[4].traffic, 1u);
  for (std::size_t i = 0; i < jobs.size(); ++i) EXPECT_EQ(jobs[i].index, i);

  const dc::RackSpec cell = dc::cellSpec(spec, jobs[5]);
  EXPECT_EQ(cell.traffic, spec.traffic[1]);
  EXPECT_EQ(cell.policy, DispatchPolicy::kRoundRobin);
  EXPECT_EQ(cell.seed, 2u);
}

TEST(DcSweep, EmptyAxesFallBackToTheBaseSpec) {
  // A spec with no axes set is one cell, and that cell IS the base —
  // configuring base.traffic (or policy/mechanism/seed) must never be
  // silently overridden by an axis default.
  dc::DcSweepSpec spec;
  spec.base = smallRackSpec(2);
  spec.base.traffic = TrafficSpec::parse("shape=adversarial;jobs=6;burst=3");
  spec.base.policy = DispatchPolicy::kDeadlineAware;
  spec.base.mechanism = "static-3";
  spec.base.seed = 42;
  spec.base.power.rack_cap_w = 123.0;

  const auto jobs = dc::expandDcJobs(spec);
  ASSERT_EQ(jobs.size(), 1u);
  const dc::RackSpec cell = dc::cellSpec(spec, jobs[0]);
  EXPECT_EQ(cell.traffic, spec.base.traffic);
  EXPECT_EQ(cell.policy, DispatchPolicy::kDeadlineAware);
  EXPECT_EQ(cell.mechanism, "static-3");
  EXPECT_EQ(cell.seed, 42u);
  EXPECT_DOUBLE_EQ(cell.power.rack_cap_w, 123.0);
}

TEST(DcSweep, JsonlByteIdenticalAcrossJobCounts) {
  dc::DcSweepSpec spec;
  spec.base = smallRackSpec(4);
  spec.base.traffic = TrafficSpec::parse("shape=steady;jobs=8;rate=4");
  spec.traffic = {spec.base.traffic};
  spec.policies = {DispatchPolicy::kLeastLoaded,
                   DispatchPolicy::kDeadlineAware};
  spec.seeds = {777, 778};

  std::string one;
  {
    ThreadPool pool(1);
    std::ostringstream os;
    EXPECT_EQ(dc::DcSweepRunner(spec, pool).runJsonl(os), 4u);
    one = os.str();
  }
  std::string eight;
  {
    ThreadPool pool(8);
    std::ostringstream os;
    EXPECT_EQ(dc::DcSweepRunner(spec, pool).runJsonl(os), 4u);
    eight = os.str();
  }
  EXPECT_EQ(one, eight);
  // The headline metrics are first-class columns.
  EXPECT_NE(one.find("\"deadline_miss_rate\":"), std::string::npos);
  EXPECT_NE(one.find("\"energy_per_job_mj\":"), std::string::npos);
  EXPECT_NE(one.find("\"steady_violation_frac\":"), std::string::npos);

  // CSV mirrors the JSONL rows.
  ThreadPool pool(2);
  const auto results = dc::DcSweepRunner(spec, pool).run();
  std::ostringstream csv;
  dc::writeCsv(spec, results, csv);
  const std::string text = csv.str();
  EXPECT_EQ(static_cast<int>(std::count(text.begin(), text.end(), '\n')), 5);
  EXPECT_NE(text.find("deadline_miss_rate"), std::string::npos);
}

}  // namespace
}  // namespace ssm
