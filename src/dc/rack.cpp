#include "dc/rack.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sched/fleet.hpp"

namespace ssm::dc {

namespace {

/// Salt separating the traffic stream from the job-simulation streams.
constexpr std::uint64_t kTrafficSalt = 0xDC7F;

TimeNs percentileNs(std::vector<TimeNs>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

RackResult runRack(const RackSpec& spec, ThreadPool* pool) {
  SSM_CHECK(spec.gpus >= 1, "rack needs at least one GPU");
  SSM_CHECK(!spec.mix.empty(), "rack needs a non-empty workload mix");
  SSM_CHECK(spec.epochs_per_round >= 1, "epochs_per_round must be >= 1");
  SSM_CHECK(spec.max_rounds >= 1, "max_rounds must be >= 1");
  SSM_CHECK(spec.warmup_rounds >= 0, "warmup_rounds must be >= 0");
  for (int id : spec.degraded)
    SSM_CHECK(id >= 0 && id < spec.gpus,
              "degraded GPU id out of range");

  // Shared immutable inputs; one factory serves every node (create() is
  // called per cluster per node, the instances are per node).
  const std::unique_ptr<GovernorFactory> factory = fleet::makeGovernorFactory(
      spec.mechanism, spec.vf, spec.preset, spec.model);

  const std::vector<JobSpec> traffic = generateTraffic(
      spec.traffic, spec.mix, spec.gpu, spec.vf,
      Rng(spec.seed).fork(kTrafficSalt).nextU64());

  RackPowerCoordinator coordinator(spec.power, spec.gpus);
  Dispatcher dispatcher(spec.policy, spec.gpus);

  std::vector<std::unique_ptr<GpuNode>> nodes;
  nodes.reserve(static_cast<std::size_t>(spec.gpus));
  for (int g = 0; g < spec.gpus; ++g) {
    GpuNode::Init init;
    init.gpu_id = g;
    init.gpu = &spec.gpu;
    init.vf = &spec.vf;
    init.mix = &spec.mix;
    init.factory = factory.get();
    init.cap = spec.power.per_gpu;
    init.cap.cap_w = spec.power.rack_cap_w / spec.gpus;
    init.idle_power_w = spec.idle_power_w;
    init.rack_seed = spec.seed;
    const bool degraded =
        std::find(spec.degraded.begin(), spec.degraded.end(), g) !=
        spec.degraded.end();
    init.fault = degraded ? &spec.fault : nullptr;
    init.thermal = &spec.thermal;
    init.max_jobs = traffic.size();
    nodes.push_back(std::make_unique<GpuNode>(init));
  }

  // Pre-allocated per-round scratch (slot per node: the parallel section
  // writes here and nowhere else).
  std::vector<NodeRoundStats> round_stats(nodes.size());
  std::vector<double> round_power(nodes.size(), 0.0);
  std::vector<std::uint8_t> round_loaded(nodes.size(), 0);
  std::vector<NodeLoad> loads(nodes.size());

  RackResult out;
  out.gpus = spec.gpus;

  const int epochs_per_round = spec.epochs_per_round;
  std::size_t next_arrival = 0;
  int violation_rounds = 0;
  int steady_rounds = 0;
  int steady_violations = 0;
  double power_round_sum = 0.0;

  int round = 0;
  for (; round < spec.max_rounds; ++round) {
    const TimeNs round_start_ns = static_cast<TimeNs>(round) *
                                  epochs_per_round * spec.gpu.epoch_ns;

    // 1. Admission: every arrival due by the round start gets a GPU now.
    //    Loads are refreshed after each assignment so a burst spreads out.
    while (next_arrival < traffic.size() &&
           traffic[next_arrival].arrival_ns <= round_start_ns) {
      for (std::size_t g = 0; g < nodes.size(); ++g) {
        loads[g].backlog_ns = nodes[g]->backlogNs();
        loads[g].queued = nodes[g]->queuedJobs();
        loads[g].degraded = nodes[g]->degraded();
      }
      const int gpu = dispatcher.assign(traffic[next_arrival], loads);
      nodes[static_cast<std::size_t>(gpu)]->enqueue(traffic[next_arrival]);
      ++next_arrival;
    }

    // 2. Cap retarget from the previous round's telemetry.
    for (std::size_t g = 0; g < nodes.size(); ++g)
      nodes[g]->setRoundCap(coordinator.capFor(static_cast<int>(g)),
                            coordinator.rackBias());

    // 3. Advance every node by one round — the only parallel section.
    if (pool != nullptr) {
      pool->parallelFor(nodes.size(), [&](std::size_t g) {
        round_stats[g] = nodes[g]->advance(epochs_per_round);
      });
    } else {
      for (std::size_t g = 0; g < nodes.size(); ++g)
        round_stats[g] = nodes[g]->advance(epochs_per_round);
    }

    // 4. Coordinator update + rack-level power ledger.
    double rack_power = 0.0;
    for (std::size_t g = 0; g < nodes.size(); ++g) {
      round_power[g] = round_stats[g].power_sum_w / epochs_per_round;
      round_loaded[g] =
          nodes[g]->busy() || nodes[g]->queuedJobs() > 0 ? 1 : 0;
      rack_power += round_power[g];
      out.busy_gpu_epochs += round_stats[g].busy_epochs;
      out.total_gpu_epochs += round_stats[g].epochs;
    }
    coordinator.onRound(round_power, round_loaded);
    power_round_sum += rack_power;
    out.max_rack_power_w = std::max(out.max_rack_power_w, rack_power);
    const bool violated = rack_power > spec.power.rack_cap_w;
    violation_rounds += violated;
    if (round >= spec.warmup_rounds) {
      ++steady_rounds;
      steady_violations += violated;
    }

    // 5. Done when the stream is drained and every chip is quiet.
    bool any_active = false;
    for (const auto& node : nodes)
      any_active = any_active || node->busy() || node->queuedJobs() > 0;
    if (next_arrival == traffic.size() && !any_active) {
      ++round;
      break;
    }
  }

  out.rounds = round;
  out.cap_violation_frac =
      round > 0 ? static_cast<double>(violation_rounds) / round : 0.0;
  out.steady_violation_frac =
      steady_rounds > 0
          ? static_cast<double>(steady_violations) / steady_rounds
          : 0.0;
  out.mean_rack_power_w = round > 0 ? power_round_sum / round : 0.0;
  out.final_rack_bias = coordinator.rackBias();

  // Job ledger, indexed by id; anything not completed is a miss.
  out.jobs.resize(traffic.size());
  for (std::size_t j = 0; j < traffic.size(); ++j) {
    JobOutcome& o = out.jobs[j];
    o.id = traffic[j].id;
    o.priority = traffic[j].priority;
    o.arrival_ns = traffic[j].arrival_ns;
    o.deadline_ns = traffic[j].deadline_ns;
    o.missed = true;
  }
  std::vector<TimeNs> latencies;
  latencies.reserve(traffic.size());
  for (const auto& node : nodes) {
    for (const JobOutcome& o : node->outcomes()) {
      out.jobs[o.id] = o;
      ++out.completed;
      out.missed_deadlines += o.missed;
      latencies.push_back(o.finish_ns - o.arrival_ns);
      out.makespan_ns = std::max(out.makespan_ns, o.finish_ns);
    }
    out.total_energy_j += node->energyJ();
    out.idle_energy_j += node->idleEnergyJ();
    out.fault_counts += node->faultCounts();
    out.peak_temp_c = std::max(out.peak_temp_c, node->peakTempC());
    out.throttle_epochs += node->throttleEpochs();
    GpuNodeSummary s;
    s.gpu_id = static_cast<int>(out.nodes.size());
    s.jobs_run = static_cast<int>(node->outcomes().size());
    s.busy_epochs = node->busyEpochs();
    s.energy_j = node->energyJ();
    s.final_cap_w = node->capW();
    s.degraded = node->degraded();
    out.nodes.push_back(s);
  }
  out.unfinished = static_cast<int>(traffic.size()) - out.completed;
  out.missed_deadlines += out.unfinished;
  out.deadline_miss_rate =
      traffic.empty() ? 0.0
                      : static_cast<double>(out.missed_deadlines) /
                            static_cast<double>(traffic.size());
  out.energy_per_job_j =
      out.completed > 0 ? out.total_energy_j / out.completed : 0.0;
  std::sort(latencies.begin(), latencies.end());
  out.p50_latency_ns = percentileNs(latencies, 0.50);
  out.p99_latency_ns = percentileNs(latencies, 0.99);
  return out;
}

}  // namespace ssm::dc
