// The `rack` flow: dc::runRack with 16 GPUs under ssmdvfs, bursty
// deadline-tagged traffic, a binding rack cap, a thermal scenario and two
// degraded GPUs running a fault spec, advanced on the worker pool.
#include "common/rng.hpp"
#include "dc/rack.hpp"
#include "faults/fault_spec.hpp"
#include "flows.hpp"
#include "thermal/thermal_spec.hpp"
#include "tracer.hpp"
#include "workloads/kernel_profile.hpp"

namespace perfbench {
namespace {

constexpr int kJobs = 160;

/// Four-cluster GPUs keep one job's epochs cheap. The mix is the four
/// memory-bound evaluation programs: their epochs cost the host about the
/// same, so busy GPU-epochs per second does not swing with the job mix a
/// seed draws. Short bursts (many per run) at about a third of the rack's
/// capacity and a tight slack keep the miss rate near one half and the
/// latency tail set by service time, so the simulated figures are steady
/// across seeds. Least-loaded dispatch sends work to the degraded GPUs too
/// (deadline-aware dispatch would route around them at this load).
ssm::dc::RackSpec rackSpec(const Env& env, int jobs) {
  ssm::dc::RackSpec spec;
  spec.gpus = 16;
  spec.gpu.num_clusters = 4;
  for (const char* name : {"nw", "streamcluster", "spmv", "bfs"})
    spec.mix.push_back(ssm::workloadByName(name));
  spec.traffic = ssm::dc::TrafficSpec::parse(
      "shape=bursty;jobs=" + std::to_string(jobs) +
      ";rate=10;slack=2;burst=4;duty=0.25;period=0.5;prio=2");
  spec.policy = ssm::dc::DispatchPolicy::kLeastLoaded;
  spec.mechanism = "ssmdvfs";
  spec.preset = 0.10;
  spec.model = env.model;
  spec.idle_power_w = 8.0;
  spec.power.idle_floor_w = 10.0;
  spec.power.rack_cap_w = 20.0 * spec.gpus;
  spec.seed = env.seed;
  spec.fault = ssm::faults::FaultSpec::parse(
      "noise:p=0.3,sigma=0.25;dropout:p=0.05,mode=stale;fail:p=0.1");
  spec.degraded = {3, 11};
  spec.thermal = ssm::thermal::ThermalScenario::parse("trip=36.5,ptrip=35.5,hyst=1");
  return spec;
}

std::string rackDigest(const ssm::dc::RackResult& r) {
  std::string s;
  char buf[240];
  for (const ssm::dc::JobOutcome& j : r.jobs) {
    std::snprintf(buf, sizeof buf, "%u %d %lld %lld %.17g %lld %d%d\n", j.id,
                  j.gpu, static_cast<long long>(j.start_ns),
                  static_cast<long long>(j.finish_ns), j.energy_j,
                  static_cast<long long>(j.instructions), j.completed,
                  j.missed);
    s += buf;
  }
  std::snprintf(buf, sizeof buf,
                "%d %lld %lld %.17g %.17g %.17g %lld %.17g %lld\n", r.rounds,
                static_cast<long long>(r.busy_gpu_epochs),
                static_cast<long long>(r.total_gpu_epochs), r.total_energy_j,
                r.max_rack_power_w, r.steady_violation_frac,
                static_cast<long long>(r.fault_counts.total()), r.peak_temp_c,
                static_cast<long long>(r.throttle_epochs));
  return digestOf(s + buf);
}

}  // namespace

struct RackFlow::State {
  explicit State(const Env& e) : env(e), spec(rackSpec(e, kJobs)) {}
  const Env& env;
  const ssm::dc::RackSpec spec;
  std::vector<double> rates;
  std::string reference;
  Metrics simulated;
};

RackFlow::RackFlow(const Env& env) : s_(std::make_unique<State>(env)) {}
RackFlow::~RackFlow() = default;

void RackFlow::pass() {
  State& s = *s_;
  // A pool per pass, as in SweepFlow::pass().
  ssm::ThreadPool pool(s.env.workers);
  const Clock::time_point t0 = Clock::now();
  const ssm::dc::RackResult r = ssm::dc::runRack(s.spec, &pool);
  s.rates.push_back(static_cast<double>(r.busy_gpu_epochs) / secondsSince(t0));
  const std::string digest = rackDigest(r);
  if (s.reference.empty()) {
    s.reference = digest;
    (*s.env.digests)["rack"] = digest;
    s.simulated["deadline_miss_rate"] = {r.deadline_miss_rate, "ratio"};
    s.simulated["energy_per_job_mj"] = {r.energy_per_job_j * 1e3, "mJ"};
    s.simulated["job_latency_us_p99"] = {
        static_cast<double>(r.p99_latency_ns) / 1e3, "us"};
  }
  s.env.checks->op(digest == s.reference,
                   "rack pass " + std::to_string(s.rates.size() - 1) +
                       ": result digest " + digest + " differs from pass 0 " +
                       s.reference);
}

Metrics RackFlow::metrics() const {
  Metrics m = s_->simulated;
  m["gpu_epochs_per_s"] = {median(s_->rates), "1/s"};
  return m;
}

Metrics rackPerLayer(const Env& env, bool focus) {
  Tracer& tracer = *env.tracer;
  const ssm::dc::RackSpec spec = rackSpec(env, focus ? kJobs : kJobs / 4);
  ssm::ThreadPool pool(env.workers);
  Metrics m;

  Clock::time_point t0 = Clock::now();
  ssm::dc::RackResult plain;
  {
    const Scope s(&tracer, "bench.reference");
    plain = ssm::dc::runRack(spec, &pool);
  }
  const double plain_s = secondsSince(t0);

  // The traffic the rack draws (runRack derives its stream from the rack
  // seed the same way), generated on its own to time the dc traffic layer.
  t0 = Clock::now();
  std::size_t generated = 0;
  {
    const Scope s(&tracer, "dc.traffic_gen");
    generated = ssm::dc::generateTraffic(
                    spec.traffic, spec.mix, spec.gpu, spec.vf,
                    ssm::Rng(spec.seed).fork(0xDC7F).nextU64())
                    .size();
  }
  const double traffic_s = secondsSince(t0);

  t0 = Clock::now();
  ssm::dc::RackResult r;
  {
    const Scope s(&tracer, "dc.rack");
    r = ssm::dc::runRack(spec, &pool);
  }
  const double rack_s = secondsSince(t0);
  t0 = Clock::now();
  ssm::dc::RackResult serial;
  {
    const Scope s(&tracer, "dc.rack_serial");
    serial = ssm::dc::runRack(spec, nullptr);
  }
  const double serial_s = secondsSince(t0);
  {
    const Scope s(&tracer, "bench.check");
    const std::string digest = rackDigest(plain);
    env.checks->op(rackDigest(r) == digest && rackDigest(serial) == digest &&
                       generated == r.jobs.size(),
                   "rack: traced, serial and untraced rack results differ");
  }

  m["dc.round_us"] = {1e6 * rack_s / r.rounds, "us"};
  m["dc.rounds"] = {static_cast<double>(r.rounds), "count"};
  m["dc.busy_frac"] = {static_cast<double>(r.busy_gpu_epochs) /
                           static_cast<double>(r.total_gpu_epochs),
                       "ratio"};
  m["dc.traffic_gen_us"] = {1e6 * traffic_s, "us"};
  m["dc.steady_violation_frac"] = {r.steady_violation_frac, "ratio"};
  m["dc.max_rack_power_w"] = {r.max_rack_power_w, "W"};
  m["dc.parallel_efficiency"] = {serial_s / (rack_s * env.workers), "ratio"};
  m["faults.injected"] = {static_cast<double>(r.fault_counts.total()),
                          "count"};
  m["thermal.throttle_epochs"] = {static_cast<double>(r.throttle_epochs),
                                  "count"};
  m["thermal.peak_temp_c"] = {r.peak_temp_c, "degC"};
  if (focus)
    m["bench.tracing_overhead_pct"] = {100.0 * (rack_s - plain_s) / plain_s,
                                       "%"};
  return m;
}

}  // namespace perfbench
