// The `record-replay` flow: a single-threaded chain over several programs.
//   1. record each program closed-loop under ssmdvfs, with keyframes (and
//      run its default-V/f baseline);
//   2. encode the recording to .ssmtrace bytes, then decode it;
//   3. replay it open-loop under the recording policy (agreement must be 1);
//   4. time every decide() on the recorded observations;
//   5. counterfactual replay: the recording policy (deltas must be zero) and
//      a divergent candidate (pcstall).
// A record pass runs 1, 2, 3 once and 5; latency slices repeat 2's decode,
// 3 and 4 in short chunks on the kept recordings.
#include <optional>

#include "common/rng.hpp"
#include "engine/fork.hpp"
#include "engine/replay_backend.hpp"
#include "flows.hpp"
#include "gpusim/gpu_snapshot.hpp"
#include "gpusim/trace.hpp"
#include "loop_run.hpp"
#include "sched/fleet.hpp"
#include "tracer.hpp"
#include "workloads/kernel_profile.hpp"

namespace perfbench {
namespace {

/// A compute-bound, a graph and a dynamic-programming program.
constexpr const char* kPrograms[] = {"sgemm", "bfs", "nw"};
constexpr double kPreset = 0.10;
constexpr std::int64_t kKeyframeEvery = 8;
/// Decode + replay repetitions of every program in one replay chunk (a few
/// tens of milliseconds).
constexpr int kReplayRepeats = 4;
/// Time of referenceKernel() on a quiet host of the kind the bounds were set
/// on; the scale of decide_ns_p50.
constexpr double kReferenceKernelNs = 120000.0;

/// A fixed kernel owned by the benchmark, shaped like decide()'s inference
/// (small dense leaky-ReLU layers) and timed right before every decide
/// chunk. The shared host runs whole stretches of a run up to half again
/// slower; both slow down alike, so their ratio stays steady where the raw
/// median flips between the host's fast and slow states. Returns ns.
double referenceKernel(double& sink) {
  double w[144];
  double v[12];
  for (int i = 0; i < 144; ++i) w[i] = 0.01 * (i % 7) - 0.02;
  for (int i = 0; i < 12; ++i) v[i] = 0.1 * i + sink * 1e-300;
  const Clock::time_point t0 = Clock::now();
  for (int it = 0; it < 2000; ++it) {
    double o[12];
    for (int r = 0; r < 12; ++r) {
      double t = 0.0;
      for (int c = 0; c < 12; ++c) t += w[r * 12 + c] * v[c];
      o[r] = t > 0.0 ? t : 0.01 * t;
    }
    for (int r = 0; r < 12; ++r) v[r] = 0.5 * v[r] + 0.5 * o[r] + 1e-3;
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  sink += v[0];
  return ns;
}

/// One program's recording, kept for the latency slices.
struct Recording {
  std::string name;
  std::string bytes;
  ssm::engine::EpochTrace decoded;
  std::unique_ptr<ssm::GovernorFactory> policy;
};

/// What one record pass over every program measured.
struct Pass {
  double sim_epochs = 0.0;
  double sim_s = 0.0;
  double cf_epochs = 0.0;
  double cf_s = 0.0;
  /// Time of the sections a traced pass repeats with spans (everything but
  /// the checks and the traced-only layer calls), for the tracing overhead.
  double core_s = 0.0;
  double edp_ratio_sum = 0.0;
  double latency_ratio_sum = 0.0;
  std::string outputs;  ///< everything simulated, for the digest
  std::vector<Recording> recordings;
  // Traced-pass layer figures.
  double trace_bytes = 0.0;
  double snapshot_bytes = 0.0;
  double keyframes = 0.0;
  double divergent_windows = 0.0;
  double resim_epochs = 0.0;
  std::vector<double> nn_decision_ns;
  std::vector<double> nn_calibrator_ns;
};

std::uint64_t programSeed(std::uint64_t seed, std::size_t program) {
  return ssm::Rng(seed).fork(0x5EC0).fork(program).nextU64();
}

void appendRun(std::string& out, const ssm::RunResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s %s %lld %.17g %.17g %lld %d\n",
                r.workload.c_str(), r.mechanism.c_str(),
                static_cast<long long>(r.exec_time_ns), r.energy_j, r.edp,
                static_cast<long long>(r.instructions), r.epochs);
  out += buf;
}

/// Open-loop replay of `trace` under `policy`; traced, the loop is an
/// "engine.loop" span whose epochs are "engine.replay_epoch" spans.
ssm::RunResult replay(Tracer* tracer, const ssm::engine::EpochTrace& trace,
                      const ssm::GovernorFactory& policy, double* agreement) {
  ssm::engine::ReplayBackend backend(trace);
  ssm::RunResult out;
  if (tracer == nullptr) {
    out = ssm::engine::EpochLoop().run(backend, backend, policy, "ssmdvfs");
  } else {
    TracedStream stream(backend, backend, *tracer, "engine.replay_epoch");
    const TracedFactory traced(policy, *tracer);
    const Scope s(tracer, "engine.loop");
    out = ssm::engine::EpochLoop().run(stream, stream, traced, "ssmdvfs");
  }
  *agreement = backend.agreement();
  return out;
}

/// Times the SsmModel entry points governors call, on the recorded counter
/// blocks: the Decision-maker decode and the batched Calibrator query.
void timeModel(const ssm::engine::EpochTrace& trace, const ssm::SsmModel& model,
               Pass& pass) {
  ssm::SsmModel::InferenceScratch scratch = model.makeScratch();
  std::vector<double> insts(static_cast<std::size_t>(model.config().num_levels));
  for (const ssm::GpuEpochReport& epoch : trace.epochs) {
    for (const ssm::EpochObservation& obs : epoch.clusters) {
      Clock::time_point t0 = Clock::now();
      (void)model.decideLevel(obs.counters, kPreset, scratch);
      Clock::time_point t1 = Clock::now();
      pass.nn_decision_ns.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
      t0 = Clock::now();
      model.predictInstsKAllLevels(obs.counters, kPreset, scratch, insts);
      t1 = Clock::now();
      pass.nn_calibrator_ns.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
  }
}

/// Steps 1, 2, 3 (once, checked) and 5 for one program; traced, also the
/// keyframe fork/snapshot layers and the model calls.
void recordProgram(const Env& env, std::size_t index, Tracer* tracer,
                   Pass& pass) {
  if (tracer != nullptr) tracer->setOp(static_cast<std::int64_t>(index));
  Recording rec;
  rec.name = kPrograms[index];
  const std::string where = "record-replay " + rec.name + ": ";
  const ssm::KernelProfile& kernel = ssm::workloadByName(rec.name);
  const ssm::GpuConfig gpu;
  const ssm::VfTable vf = ssm::VfTable::titanX();
  const std::uint64_t seed = programSeed(env.seed, index);
  const ssm::Gpu machine(gpu, vf, kernel, seed,
                         ssm::ChipPowerModel(gpu.num_clusters));
  rec.policy =
      ssm::fleet::makeGovernorFactory("ssmdvfs", vf, kPreset, env.model);
  const auto baseline_policy = ssm::fleet::makeGovernorFactory(
      "static-" + std::to_string(vf.defaultLevel()), vf, kPreset, env.model);

  // 1. Baseline and keyframed recording, closed loop.
  Clock::time_point t0 = Clock::now();
  ssm::RunResult base =
      loopRun(tracer, machine, *baseline_policy, "baseline", {});
  ssm::EpochTraceRecorder recorder;
  recorder.enableReplayCapture();
  std::vector<ssm::engine::TraceKeyframe> keyframes;
  ssm::engine::LoopConfig rec_cfg;
  rec_cfg.trace = &recorder;
  rec_cfg.keyframe_every = kKeyframeEvery;
  rec_cfg.keyframes = &keyframes;
  ssm::RunResult run =
      loopRun(tracer, machine, *rec.policy, "ssmdvfs", rec_cfg);
  double dt = secondsSince(t0);
  run.workload = kernel.name;
  base.workload = kernel.name;
  pass.sim_s += dt;
  pass.core_s += dt;
  pass.sim_epochs += base.epochs + run.epochs;
  pass.edp_ratio_sum += run.edp / base.edp;
  pass.latency_ratio_sum += static_cast<double>(run.exec_time_ns) /
                            static_cast<double>(base.exec_time_ns);
  appendRun(pass.outputs, base);
  appendRun(pass.outputs, run);
  ssm::engine::EpochTrace trace = ssm::engine::traceFromRecorder(
      recorder, kernel.name, "ssmdvfs", seed, vf, run);
  trace.keyframes = std::move(keyframes);

  // 2. Encode and decode; 3. open-loop replay under the recording policy.
  t0 = Clock::now();
  {
    const Scope s(tracer, "engine.trace_encode");
    rec.bytes = ssm::engine::serializeTrace(trace);
  }
  {
    const Scope s(tracer, "engine.trace_decode");
    rec.decoded = ssm::engine::deserializeTrace(rec.bytes);
  }
  double agreement = 0.0;
  const ssm::RunResult replayed =
      replay(tracer, rec.decoded, *rec.policy, &agreement);
  pass.core_s += secondsSince(t0);
  pass.trace_bytes += static_cast<double>(rec.bytes.size());
  pass.outputs += digestOf(rec.bytes) + "\n";
  {
    const Scope s(tracer, "bench.check");
    env.checks->op(ssm::engine::serializeTrace(rec.decoded) == rec.bytes,
                   where + "decoded trace does not re-encode to the same "
                           "bytes");
    env.checks->op(agreement == 1.0 && replayed.energy_j == run.energy_j &&
                       replayed.exec_time_ns == run.exec_time_ns &&
                       replayed.epochs == run.epochs,
                   where + "open-loop replay under the recording policy "
                           "does not reproduce the recording");
  }

  // 5. Counterfactual replay: the recording policy must not diverge; the
  // candidate forks and resimulates its divergent keyframe windows.
  ssm::engine::ReplayOptions cf;
  cf.counterfactual = true;
  t0 = Clock::now();
  ssm::engine::ReplayReport same;
  {
    const Scope s(tracer, "engine.counterfactual");
    same = ssm::engine::replayTrace(rec.decoded, *rec.policy, "ssmdvfs", cf);
  }
  pass.core_s += secondsSince(t0);
  env.checks->op(same.divergent_windows == 0 && same.resim_epochs == 0 &&
                     same.energy_delta_mj == 0.0 &&
                     same.latency_delta_ns == 0.0,
                 where + "same-policy counterfactual has nonzero deltas");
  const auto candidate =
      ssm::fleet::makeGovernorFactory("pcstall", vf, kPreset, env.model);
  t0 = Clock::now();
  ssm::engine::ReplayReport rep;
  {
    const Scope s(tracer, "engine.counterfactual");
    rep = ssm::engine::replayTrace(rec.decoded, *candidate, "pcstall", cf);
  }
  dt = secondsSince(t0);
  pass.cf_s += dt;
  pass.core_s += dt;
  pass.cf_epochs += static_cast<double>(rec.decoded.epochs.size()) +
                    static_cast<double>(rep.resim_epochs);
  pass.divergent_windows += static_cast<double>(rep.divergent_windows);
  pass.resim_epochs += static_cast<double>(rep.resim_epochs);
  char buf[200];
  std::snprintf(buf, sizeof buf, "cf %lld %lld %lld %.17g %.17g %.17g\n",
                static_cast<long long>(rep.divergent_windows),
                static_cast<long long>(rep.resim_epochs),
                static_cast<long long>(rep.unmatched_windows),
                rep.energy_delta_mj, rep.latency_delta_ns, rep.edp_delta_pct);
  pass.outputs += buf;

  if (tracer != nullptr) {
    // Layers reached by direct calls: restoring each keyframe (the fork)
    // and snapshotting the restored machine, which must give the same blob.
    for (const ssm::engine::TraceKeyframe& kf : rec.decoded.keyframes) {
      std::optional<ssm::Gpu> restored;
      {
        const Scope s(tracer, "engine.fork");
        restored.emplace(ssm::engine::keyframeGpu(kf));
      }
      std::string blob;
      {
        const Scope s(tracer, "gpusim.snapshot");
        blob = ssm::serializeGpu(*restored);
      }
      pass.snapshot_bytes += static_cast<double>(blob.size());
      pass.keyframes += 1.0;
      const Scope s(tracer, "bench.check");
      env.checks->op(blob == kf.gpu_blob,
                     where + "snapshot of a restored keyframe differs from "
                             "the keyframe at epoch " +
                         std::to_string(kf.epoch));
    }
    const Scope s(tracer, "nn.model_calls");
    timeModel(rec.decoded, *env.model, pass);
  }
  pass.recordings.push_back(std::move(rec));
}

Pass recordAll(const Env& env, Tracer* tracer) {
  Pass pass;
  for (std::size_t p = 0; p < std::size(kPrograms); ++p)
    recordProgram(env, p, tracer, pass);
  return pass;
}

}  // namespace

struct RecordReplayFlow::State {
  explicit State(const Env& e) : env(e) {}
  const Env& env;
  std::vector<double> sim;
  std::vector<double> cf;
  std::string reference;
  Metrics simulated;
  std::vector<Recording> recordings;
  std::vector<double> replay;
  /// decide() latencies: every call, and each chunk's median (one pass of
  /// fresh governors over one program, about a millisecond) over the time
  /// of referenceKernel() just before it.
  std::vector<double> decide_ns;
  std::vector<double> decide_chunk_p50_ns;
  std::vector<double> decide_chunk_rel;
  double sink = 0.0;
};

RecordReplayFlow::RecordReplayFlow(const Env& env)
    : s_(std::make_unique<State>(env)) {}
RecordReplayFlow::~RecordReplayFlow() = default;

void RecordReplayFlow::recordPass() {
  State& s = *s_;
  Pass pass = recordAll(s.env, nullptr);
  s.sim.push_back(pass.sim_epochs / pass.sim_s);
  s.cf.push_back(pass.cf_epochs / pass.cf_s);
  const std::string digest = digestOf(pass.outputs);
  if (s.reference.empty()) {
    s.reference = digest;
    (*s.env.digests)["record_replay"] = digest;
    const double n = std::size(kPrograms);
    s.simulated["edp_ratio"] = {pass.edp_ratio_sum / n, "ratio"};
    s.simulated["latency_ratio"] = {pass.latency_ratio_sum / n, "ratio"};
  }
  s.env.checks->op(digest == s.reference,
                   "record-replay pass " + std::to_string(s.sim.size() - 1) +
                       ": outputs differ from pass 0");
  s.recordings = std::move(pass.recordings);
}

void RecordReplayFlow::latencySlice(double seconds) {
  State& s = *s_;
  const Clock::time_point start = Clock::now();
  bool agree = true;
  std::int64_t mismatches = 0;
  do {
    // Decode + open-loop replay of every program, kReplayRepeats times.
    double epochs = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < kReplayRepeats; ++r) {
      for (const Recording& rec : s.recordings) {
        const ssm::engine::EpochTrace decoded =
            ssm::engine::deserializeTrace(rec.bytes);
        double agreement = 0.0;
        (void)replay(nullptr, decoded, *rec.policy, &agreement);
        agree = agree && agreement == 1.0;
        epochs += static_cast<double>(decoded.epochs.size());
      }
    }
    s.replay.push_back(epochs / secondsSince(t0));

    // Every decide() of fresh per-cluster governors fed each recording's
    // observations in loop order; each must be the level the recording
    // applied next.
    for (const Recording& rec : s.recordings) {
      const double reference_ns = referenceKernel(s.sink);
      const ssm::engine::EpochTrace& trace = rec.decoded;
      const int n = trace.numClusters();
      const auto governors = ssm::engine::makeGovernors(*rec.policy, n);
      const std::size_t first = s.decide_ns.size();
      for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
        for (int c = 0; c < n; ++c) {
          const auto ci = static_cast<std::size_t>(c);
          const Clock::time_point t1 = Clock::now();
          const ssm::VfLevel level =
              governors[ci]->decide(trace.epochs[e].clusters[ci]);
          s.decide_ns.push_back(
              std::chrono::duration<double, std::nano>(Clock::now() - t1)
                  .count());
          if (e + 1 < trace.epochs.size() &&
              trace.vf.clamp(level) != trace.epochs[e + 1].clusters[ci].level)
            ++mismatches;
        }
      }
      s.decide_chunk_p50_ns.push_back(quantile(
          std::vector<double>(
              s.decide_ns.begin() + static_cast<std::ptrdiff_t>(first),
              s.decide_ns.end()),
          0.5));
      s.decide_chunk_rel.push_back(s.decide_chunk_p50_ns.back() /
                                   reference_ns);
    }
  } while (secondsSince(start) < seconds);
  s.env.checks->op(agree && mismatches == 0,
                   "record-replay latency slice: " +
                       std::to_string(mismatches) +
                       " timed decisions or a replay differ from the "
                       "recording");
}

Metrics RecordReplayFlow::metrics() const {
  const State& s = *s_;
  Metrics m = s.simulated;
  m["sim_epochs_per_s"] = {median(s.sim), "1/s"};
  m["counterfactual_epochs_per_s"] = {median(s.cf), "1/s"};
  m["replay_epochs_per_s"] = {median(s.replay), "1/s"};
  m["decide_ns_p50"] = {median(s.decide_chunk_rel) * kReferenceKernelNs,
                        "ns"};
  m["decide_ns_p99"] = {quantile(s.decide_ns, 0.99), "ns"};
  std::fprintf(stderr,
               "perfbench: record passes %zu, replay chunks %zu; "
               "decide_ns_p50 is the median over %zu chunks of the chunk's "
               "median call relative to the reference kernel, times %.0f ns "
               "(as measured: %.1f ns); decide_ns_p99 is the p99 of %zu "
               "calls\n",
               s.sim.size(), s.replay.size(), s.decide_chunk_rel.size(),
               kReferenceKernelNs, median(s.decide_chunk_p50_ns),
               s.decide_ns.size());
  return m;
}

Metrics recordReplayPerLayer(const Env& env, bool focus) {
  Metrics m;
  // An untraced pass first: the reference outputs and, for this flow's
  // tracing overhead, the untraced time of the same sections.
  Pass plain;
  {
    const Scope s(env.tracer, "bench.reference");
    plain = recordAll(env, nullptr);
  }
  const Pass traced = recordAll(env, env.tracer);
  {
    const Scope s(env.tracer, "bench.check");
    env.checks->op(digestOf(plain.outputs) == digestOf(traced.outputs),
                   "record-replay: traced outputs differ from untraced");
  }
  const double programs = std::size(kPrograms);
  m["engine.trace_bytes"] = {traced.trace_bytes / programs, "bytes"};
  m["gpusim.snapshot_bytes"] = {traced.snapshot_bytes / traced.keyframes,
                                "bytes"};
  m["engine.resim_epochs"] = {traced.resim_epochs, "count"};
  m["engine.divergent_windows"] = {traced.divergent_windows, "count"};
  m["engine.divergent_window_frac"] = {
      traced.divergent_windows / traced.keyframes, "ratio"};
  m["nn.decision_ns"] = {median(traced.nn_decision_ns), "ns"};
  m["nn.calibrator_ns"] = {median(traced.nn_calibrator_ns), "ns"};
  if (focus)
    m["bench.tracing_overhead_pct"] = {
        100.0 * (traced.core_s - plain.core_s) / plain.core_s, "%"};
  return m;
}

}  // namespace perfbench
