// ssmdvfs — command-line driver for the library.
//
// Subcommands compose the same way the paper's Fig. 2 pipeline does:
//
//   ssmdvfs list-workloads
//   ssmdvfs datagen   --out corpus.csv [--workload NAME] [--runs N] [--seed S]
//   ssmdvfs train     --data corpus.csv --out model.txt [--compressed]
//                     [--epochs N] [--prune]
//   ssmdvfs eval      --model model.txt --data corpus.csv
//   ssmdvfs run       --workload NAME --mechanism M [--preset P]
//                     [--model model.txt] [--trace trace.csv] [--seed S]
//                     [--json out.json] [--faults SPEC] [--harden]
//                     [--thermal TSPEC]
//       M in {baseline, static-<L>, ssmdvfs, ssmdvfs-nocal, pcstall,
//             flemma, ondemand}
//       SPEC is the fault grammar of docs/faults.md, e.g.
//       "noise:p=0.3,sigma=0.25;dropout:p=0.1,mode=zero"; --harden wraps
//       the governor in the degraded-mode watchdog (src/core). A run is one
//       live sweep cell (fleet::runCell) whose simulator seed is --seed
//   ssmdvfs oracle    --workload NAME [--seed S]
//   ssmdvfs hw-cost   --model model.txt
//   ssmdvfs quantize  --model model.txt --data corpus.csv
//   ssmdvfs list-counters
//   ssmdvfs corpus-stats --data corpus.csv
//   ssmdvfs explain   --model model.txt --data corpus.csv --row N --preset P
//   ssmdvfs record    --workload NAME --mechanism M --out trace.ssmtrace
//                     [--preset P] [--seed S] [--max-ms N] [--clusters N]
//                     [--model model.txt] [--profile-file FILE]
//                     [--keyframe-every N]
//       simulates one governed run and writes every epoch (all 47 counters
//       per cluster) into the versioned, checksummed binary trace format of
//       src/engine/trace_io (docs/engine.md); --keyframe-every N snapshots
//       the full machine every N epochs into the trace (format v3),
//       enabling closed-loop counterfactual replay
//   ssmdvfs replay    --trace trace.ssmtrace [--mechanism M] [--preset P]
//                     [--model model.txt] [--harden] [--json out.json]
//                     [--counterfactual] [--max-extra-epochs N]
//       streams the recorded epochs through a governor OPEN-LOOP (decisions
//       are compared against the recorded policy, never fed back); with the
//       recording-time mechanism and config, agreement is exactly 100%.
//       --counterfactual (keyframed traces only) additionally forks the
//       machine from the nearest keyframe wherever the candidate diverges,
//       re-simulates the window CLOSED-LOOP and reports true
//       energy/latency/EDP deltas vs the recording
//   ssmdvfs sweep     --workloads A,B|train|eval|all --mechanisms M1,M2
//                     --out sweep.jsonl [--csv sweep.csv] [--jobs N]
//                     [--presets 0.10,0.20] [--seeds 777,778]
//                     [--model model.txt] [--max-ms 5] [--quiet]
//                     [--faults "SPEC1|SPEC2"] [--thermal "T1|T2"] [--harden]
//       --faults adds a fault-scenario axis ('|'-separated SPECs; the
//       literal "none" is the clean cell); rows then carry injected-fault
//       counts, and --harden adds fallback/recovery counts. --thermal adds
//       a thermal-scenario axis the same way (docs/thermal.md); rows then
//       carry peak_temp_c and throttle_epochs
//   ssmdvfs sweep     --replay DIR|t1.ssmtrace,t2.ssmtrace --mechanisms ...
//                     [--counterfactual]
//       replay mode: recorded traces replace the workload axis (a directory
//       takes every *.ssmtrace inside, sorted by name); rows carry
//       agreement/decisions/matches instead of fault columns. --faults is
//       rejected (the trace is immutable history; use a live sweep for new
//       fault scenarios). --counterfactual (keyframed traces only) adds
//       fork-resimulate delta columns per row (docs/engine.md).
//
// Every command also accepts --help, printing its options and exiting.
//
// `datagen`, `run`, `record` and `oracle` accept --profile-file FILE to
// resolve the workload from a kernel-profile text file (see
// src/workloads/profile_io.hpp) instead of the built-in registry.
//
// `datagen` and `sweep` accept --jobs N to run on the work-stealing pool
// (src/sched); output is byte-identical for every N.
//
// Numeric options parse strictly (std::from_chars, src/common/parse.hpp):
// junk, trailing junk, out-of-range values and negative seeds fail with
// "error: --<option>: ..." and exit 1 instead of reading as 0 or wrapping.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/oracle.hpp"
#include "compress/pruning.hpp"
#include "common/rng.hpp"
#include "core/hardened_governor.hpp"
#include "core/ssm_governor.hpp"
#include "common/json_writer.hpp"
#include "common/parse.hpp"
#include "core/ssm_io.hpp"
#include "faults/fault_injector.hpp"
#include "datagen/corpus_stats.hpp"
#include "datagen/generator.hpp"
#include "dc/dc_sweep.hpp"
#include "engine/epoch_loop.hpp"
#include "engine/replay_backend.hpp"
#include "engine/sim_backend.hpp"
#include "engine/trace_io.hpp"
#include "gpusim/runner.hpp"
#include "gpusim/trace.hpp"
#include "hw/asic_model.hpp"
#include "nn/quantize.hpp"
#include "sched/fleet.hpp"
#include "sched/thread_pool.hpp"
#include "thermal/thermal_spec.hpp"
#include "thermal/thermal_throttle.hpp"
#include "workloads/kernel_profile.hpp"
#include "workloads/profile_io.hpp"

namespace {

using namespace ssm;

/// Minimal --key value argument map.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
        std::exit(2);
      }
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // flag
      }
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    if (!has(key)) {
      std::fprintf(stderr, "missing required --%s\n", key.c_str());
      std::exit(2);
    }
    return values_.at(key);
  }
  /// Strict numeric option: the whole value must be one in-range number
  /// of type T (common/parse.hpp), else DataError naming the option.
  template <class T>
  [[nodiscard]] T number(const std::string& key, T fallback) const {
    return has(key) ? numberOf<T>(key, values_.at(key)) : fallback;
  }

  template <class T>
  [[nodiscard]] static T numberOf(const std::string& key,
                                  std::string_view text) {
    const auto v = parseNumber<T>(text);
    if (!v)
      throw DataError("--" + key + ": '" + std::string(text) +
                      "' is not a number in this option's range");
    return *v;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// --max-ms in nanoseconds; a bound whose nanoseconds overflow is refused.
TimeNs maxTimeNs(const Args& args) {
  const auto ms = args.number<TimeNs>("max-ms", 5);
  if (ms < 1 || ms > std::numeric_limits<TimeNs>::max() / kNsPerMs)
    throw DataError("--max-ms: " + std::to_string(ms) + " is out of range");
  return ms * kNsPerMs;
}

/// Resolves --workload (+ optional --profile-file) to a kernel profile.
KernelProfile resolveWorkload(const Args& args) {
  const std::string name = args.require("workload");
  if (!args.has("profile-file")) return workloadByName(name);
  const auto profiles = loadProfilesFromFile(args.get("profile-file"));
  for (const auto& k : profiles)
    if (k.name == name) return k;
  throw DataError("workload '" + name + "' not found in " +
                  args.get("profile-file"));
}

int cmdListWorkloads() {
  std::printf("%-14s %-10s %7s %6s %6s\n", "name", "suite", "phases",
              "warps", "loops");
  for (const auto& k : allWorkloads())
    std::printf("%-14s %-10s %7zu %6d %6d\n", k.name.c_str(),
                k.suite.c_str(), k.phases.size(), k.warps_per_cluster,
                k.phase_loops);
  return 0;
}

int cmdDatagen(const Args& args) {
  const std::string out = args.require("out");
  GenConfig gen;
  gen.runs_per_workload = args.number<int>("runs", 3);
  gen.epochs_per_breakpoint =
      args.number<int>("breakpoint-epochs", 6);
  gen.seed = args.number<std::uint64_t>("seed", 0xda7a);
  const DataGenerator dg(GpuConfig{}, VfTable::titanX(), gen);

  const int jobs = args.number<int>("jobs", 1);
  SSM_CHECK(jobs >= 1, "--jobs must be >= 1");
  ThreadPool pool(jobs);
  ThreadPool* pool_ptr = jobs > 1 ? &pool : nullptr;

  Dataset ds;
  if (args.has("workload")) {
    // Single workload: the per-V/f replays inside each breakpoint are the
    // parallel jobs.
    ds = dg.generateForWorkload(resolveWorkload(args), gen.seed, 0, pool_ptr);
  } else {
    std::puts("generating the full training corpus (this takes minutes)...");
    ds = dg.generate(trainingWorkloads(), pool_ptr);
  }
  ds.saveCsv(out);
  std::printf("wrote %zu data points to %s\n", ds.size(), out.c_str());
  return 0;
}

int cmdTrain(const Args& args) {
  const Dataset all = Dataset::loadCsv(args.require("data"));
  auto [train, holdout] = all.split(0.75, 0x5117);
  SsmModelConfig cfg;
  if (args.has("compressed")) {
    const auto arch = SsmModelConfig::compressedArch();
    cfg.decision_hidden = arch.decision_hidden;
    cfg.calibrator_hidden = arch.calibrator_hidden;
  }
  cfg.train.epochs = args.number<int>("epochs", 800);
  SsmModel model(cfg);
  std::printf("training on %zu points (%d epochs)...\n", train.size(),
              cfg.train.epochs);
  SsmTrainSummary s = model.train(train, holdout);
  if (args.has("prune")) {
    std::puts("pruning (x1=0.6, x2=0.9) + fine-tuning...");
    s = pruneAndFinetune(model, train, holdout, PruneParams{}).after_finetune;
  }
  saveModel(model, args.require("out"));
  std::printf("accuracy %.2f%%  MAPE %.2f%%  FLOPs %lld  -> %s\n",
              100.0 * s.decision_accuracy, s.calibrator_mape,
              static_cast<long long>(s.flops), args.get("out").c_str());
  return 0;
}

int cmdEval(const Args& args) {
  const SsmModel model = loadModel(args.require("model"));
  const Dataset ds = Dataset::loadCsv(args.require("data"));
  std::printf("points: %zu\naccuracy: %.2f%%\nMAPE: %.2f%%\nFLOPs: %lld\n",
              ds.size(), 100.0 * model.decisionAccuracy(ds),
              model.calibratorMape(ds),
              static_cast<long long>(model.flops()));
  return 0;
}

std::shared_ptr<const SsmModel> modelFor(const Args& args,
                                         const std::string& mech) {
  if (mech.rfind("ssmdvfs", 0) != 0) return nullptr;
  return std::make_shared<const SsmModel>(loadModel(args.require("model")));
}

int cmdRun(const Args& args) {
  // One live sweep cell (fleet::runCell), except that the simulator runs
  // --seed itself where a sweep forks a seed per workload; at fault index 0
  // the injector seed is faults::injectorSeed(--seed, 0). Absent/"none"
  // --faults and --thermal leave the output byte-identical to a build
  // without those subsystems.
  const std::string mech = args.get("mechanism", "baseline");
  fleet::SweepSpec spec;
  spec.workloads = {resolveWorkload(args)};
  spec.mechanisms = {mech};
  spec.presets = {args.number<double>("preset", 0.10)};
  spec.faults = {faults::FaultSpec::parse(args.get("faults"))};
  spec.thermal = {thermal::ThermalScenario::parse(args.get("thermal"))};
  spec.harden = args.has("harden");
  spec.model = modelFor(args, mech);
  fleet::SweepJob job;
  job.sim_seed = args.number<std::uint64_t>("seed", 777);

  EpochTraceRecorder trace;
  GovernorModeLog mode_log;
  const fleet::SweepResult cell = fleet::runCell(
      spec, job, args.has("trace") ? &trace : nullptr, &mode_log);
  const RunResult& base = cell.baseline;
  const RunResult& run = cell.governed;
  const double preset = spec.presets[0];
  const faults::FaultSpec& fault_spec = spec.faults[0];
  const thermal::ThermalScenario& scenario = spec.thermal[0];
  // The baseline cell runs no governor: no trace, no mode transitions.
  const bool governed = mech != "baseline";

  std::printf("%-14s time %.1f us  energy %.3f mJ  EDP %.4f uJ*s\n",
              "baseline", static_cast<double>(base.exec_time_ns) / 1e3,
              base.energy_j * 1e3, base.edp * 1e6);
  std::printf("%-14s time %.1f us  energy %.3f mJ  EDP %.4f uJ*s "
              "(EDP %+.2f%%, latency %+.2f%%)\n",
              mech.c_str(), static_cast<double>(run.exec_time_ns) / 1e3,
              run.energy_j * 1e3, run.edp * 1e6,
              100.0 * (run.edp / base.edp - 1.0),
              100.0 * (static_cast<double>(run.exec_time_ns) /
                           static_cast<double>(base.exec_time_ns) -
                       1.0));
  if (fault_spec.active()) {
    const faults::FaultCounts& c = cell.fault_counts;
    std::printf("faults '%s': injected %lld (noise %lld, dropout %lld, "
                "delay %lld, failed %lld, stuck %lld, jitter %lld, "
                "heatsoak %lld, tsensor %lld, tjolt %lld)\n",
                fault_spec.print().c_str(),
                static_cast<long long>(c.total()),
                static_cast<long long>(c.noise),
                static_cast<long long>(c.dropout),
                static_cast<long long>(c.delay),
                static_cast<long long>(c.failed),
                static_cast<long long>(c.stuck),
                static_cast<long long>(c.jitter),
                static_cast<long long>(c.heatsoak),
                static_cast<long long>(c.tsensor),
                static_cast<long long>(c.tjolt));
  }
  if (scenario.enabled)
    std::printf("thermal '%s': peak %.1f degC, %d throttle-limited epochs "
                "(baseline peak %.1f degC, %d limited)\n",
                scenario.print().c_str(), run.peak_temp_c,
                run.throttle_epochs, base.peak_temp_c, base.throttle_epochs);
  if (spec.harden && governed) {
    std::printf("hardened governor: %d fallbacks, %d recoveries\n",
                mode_log.fallbacks(), mode_log.recoveries());
    const auto& events = mode_log.events();
    const std::size_t shown = std::min<std::size_t>(events.size(), 20);
    for (std::size_t i = 0; i < shown; ++i)
      std::printf("  epoch %lld cluster %d -> %s (%s)\n",
                  static_cast<long long>(events[i].epoch), events[i].cluster,
                  std::string(governorModeName(events[i].to)).c_str(),
                  events[i].reason.c_str());
    if (events.size() > shown)
      std::printf("  ... %zu more transitions\n", events.size() - shown);
  }
  if (args.has("trace") && governed) {
    trace.saveCsv(args.get("trace"));
    std::printf("trace written to %s (%d epochs, %d transitions)\n",
                args.get("trace").c_str(), trace.epochCount(),
                trace.totalTransitions());
  }
  if (args.has("json")) {
    std::ofstream os(args.get("json"));
    JsonWriter w(os);
    const auto emit = [&](const char* name, const RunResult& r) {
      w.beginObject(name)
          .value("exec_time_us", static_cast<double>(r.exec_time_ns) / 1e3)
          .value("energy_mj", r.energy_j * 1e3)
          .value("edp_uj_s", r.edp * 1e6)
          .value("instructions", static_cast<std::int64_t>(r.instructions))
          .value("epochs", r.epochs);
      // Thermal fields only when the scenario opts in: clean runs keep the
      // exact pre-thermal JSON schema.
      if (scenario.enabled)
        w.value("peak_temp_c", r.peak_temp_c)
            .value("throttle_epochs", r.throttle_epochs);
      w.beginArray("level_histogram");
      for (double h : r.level_histogram) w.value(h);
      w.endArray().endObject();
    };
    w.beginObject()
        .value("workload", args.get("workload"))
        .value("mechanism", mech)
        .value("preset", preset);
    if (fault_spec.active()) {
      w.value("faults", fault_spec.print());
      cell.fault_counts.writeJson(w);
    }
    if (scenario.enabled) w.value("thermal", scenario.print());
    if (spec.harden)
      w.value("fallbacks", cell.fallbacks).value("recoveries", cell.recoveries);
    emit("baseline", base);
    emit("governed", run);
    w.endObject();
    std::printf("json written to %s\n", args.get("json").c_str());
  }
  return 0;
}

int cmdRecord(const Args& args) {
  const std::string out = args.require("out");
  const std::string mech = args.get("mechanism", "baseline");
  const double preset = args.number<double>("preset", 0.10);
  const auto seed = args.number<std::uint64_t>("seed", 777);
  const TimeNs max_time_ns = maxTimeNs(args);

  GpuConfig gpu;
  if (args.has("clusters")) {
    gpu.num_clusters = args.number<int>("clusters", 0);
    SSM_CHECK(gpu.num_clusters >= 1, "--clusters must be >= 1");
  }
  const VfTable vf = VfTable::titanX();
  const KernelProfile kernel = resolveWorkload(args);
  Gpu machine(gpu, vf, kernel, seed, ChipPowerModel(gpu.num_clusters));

  // An enabled --thermal scenario records temperature tracks per epoch; the
  // trace is then written in format v2 (thermal-free traces stay v1, so
  // committed goldens keep their bytes).
  const thermal::ThermalScenario scenario =
      thermal::ThermalScenario::parse(args.get("thermal"));
  std::optional<thermal::ThermalThrottle> throttle =
      scenario.makeThrottle(vf, gpu.num_clusters);
  if (scenario.enabled) machine.attachThermal(scenario.params);

  const auto factory =
      fleet::makeGovernorFactory(mech, vf, preset, modelFor(args, mech));

  // --keyframe-every N snapshots the full machine every N epochs into the
  // trace (format v3), enabling closed-loop counterfactual replay. Without
  // it (N = 0) no keyframe is captured and the trace bytes are exactly what
  // they always were (v1/v2).
  const auto keyframe_every =
      args.number<std::int64_t>("keyframe-every", 0);
  SSM_CHECK(keyframe_every >= 0, "--keyframe-every must be >= 0");

  EpochTraceRecorder recorder;
  recorder.enableReplayCapture();
  std::vector<engine::TraceKeyframe> keyframes;
  engine::SimBackend backend(std::move(machine));
  engine::LoopConfig lc;
  lc.max_time_ns = max_time_ns;
  lc.trace = &recorder;
  lc.throttle = throttle ? &*throttle : nullptr;
  lc.keyframe_every = keyframe_every;
  lc.keyframes = &keyframes;
  RunResult run = engine::EpochLoop(lc).run(backend, backend, *factory, mech);
  run.workload = kernel.name;

  engine::EpochTrace trace = engine::traceFromRecorder(
      recorder, kernel.name, mech, seed, vf, std::move(run));
  trace.keyframes = std::move(keyframes);
  engine::saveTrace(trace, out);

  const engine::TraceFileInfo info = engine::traceFileInfo(out);
  std::printf("recorded %s under %s: %d epochs x %d clusters -> %s\n",
              kernel.name.c_str(), mech.c_str(),
              static_cast<int>(trace.epochs.size()), trace.numClusters(),
              out.c_str());
  std::printf("trace format v%u, payload %llu bytes, checksum %016llx\n",
              info.version, static_cast<unsigned long long>(info.payload_size),
              static_cast<unsigned long long>(info.checksum));
  if (!trace.keyframes.empty())
    std::printf("keyframes: %d (every %lld epochs)\n",
                static_cast<int>(trace.keyframes.size()),
                static_cast<long long>(keyframe_every));
  return 0;
}

int cmdReplay(const Args& args) {
  const std::string path = args.require("trace");
  const engine::EpochTrace trace = engine::loadTrace(path);
  const engine::TraceFileInfo info = engine::traceFileInfo(path);
  const std::string mech = args.get("mechanism", trace.mechanism);
  const double preset = args.number<double>("preset", 0.10);

  const auto factory = fleet::makeGovernorFactory(mech, trace.vf, preset,
                                                  modelFor(args, mech));

  const bool harden = args.has("harden");
  GovernorModeLog mode_log;
  const HardenedGovernorFactory hardened(*factory, trace.vf, HardenedConfig{},
                                         &mode_log);
  engine::ReplayOptions opts;
  opts.counterfactual = args.has("counterfactual");
  if (args.has("max-extra-epochs"))
    opts.max_extra_epochs =
        args.number<std::int64_t>("max-extra-epochs", 64);
  const engine::ReplayReport rep = engine::replayTrace(
      trace, harden ? static_cast<const GovernorFactory&>(hardened) : *factory,
      mech, opts);

  std::printf("trace %s: format v%u, payload %llu bytes, checksum %016llx\n",
              path.c_str(), info.version,
              static_cast<unsigned long long>(info.payload_size),
              static_cast<unsigned long long>(info.checksum));
  std::printf("recorded: %s under %s, seed %llu, %d epochs x %d clusters\n",
              trace.workload.c_str(), trace.mechanism.c_str(),
              static_cast<unsigned long long>(trace.seed),
              static_cast<int>(trace.epochs.size()), trace.numClusters());
  std::printf("recorded result: time %.1f us  energy %.3f mJ  EDP %.4f uJ*s\n",
              static_cast<double>(trace.recorded.exec_time_ns) / 1e3,
              trace.recorded.energy_j * 1e3, trace.recorded.edp * 1e6);
  std::printf("replayed %s open-loop: agreement %.2f%% "
              "(%lld of %lld decisions with a recorded successor)\n",
              mech.c_str(), 100.0 * rep.agreement,
              static_cast<long long>(rep.matches),
              static_cast<long long>(rep.compared));
  std::printf("commanded levels:");
  for (std::size_t l = 0; l < rep.commanded_histogram.size(); ++l)
    std::printf(" %zu:%lld", l,
                static_cast<long long>(rep.commanded_histogram[l]));
  std::printf("\n");
  if (harden)
    std::printf("hardened governor: %d fallbacks, %d recoveries\n",
                mode_log.fallbacks(), mode_log.recoveries());
  if (opts.counterfactual) {
    std::printf(
        "counterfactual: %lld divergent epochs in %lld of %d keyframe "
        "windows; %lld branch epochs resimulated (%lld unmatched)\n",
        static_cast<long long>(rep.divergent_epochs),
        static_cast<long long>(rep.divergent_windows),
        static_cast<int>(trace.keyframes.size()),
        static_cast<long long>(rep.resim_epochs),
        static_cast<long long>(rep.unmatched_windows));
    std::printf(
        "counterfactual deltas (candidate - recorded): energy %+.4f mJ  "
        "latency %+.2f us  EDP %+.3f%%\n",
        rep.energy_delta_mj, rep.latency_delta_ns / 1e3, rep.edp_delta_pct);
  }

  if (args.has("json")) {
    std::ofstream os(args.get("json"));
    JsonWriter w(os);
    char checksum_hex[17];
    std::snprintf(checksum_hex, sizeof checksum_hex, "%016llx",
                  static_cast<unsigned long long>(info.checksum));
    w.beginObject()
        .value("workload", trace.workload)
        .value("recorded_mechanism", trace.mechanism)
        .value("mechanism", mech)
        .value("preset", preset)
        .value("epochs", static_cast<std::int64_t>(trace.epochs.size()))
        .value("clusters", trace.numClusters())
        .value("checksum", checksum_hex)
        .value("agreement", rep.agreement)
        .value("decisions", rep.decisions)
        .value("compared", rep.compared)
        .value("matches", rep.matches)
        .value("exec_time_us",
               static_cast<double>(rep.result.exec_time_ns) / 1e3)
        .value("energy_mj", rep.result.energy_j * 1e3)
        .value("edp_uj_s", rep.result.edp * 1e6);
    if (opts.counterfactual)
      w.value("divergent_epochs", rep.divergent_epochs)
          .value("divergent_windows", rep.divergent_windows)
          .value("resim_epochs", rep.resim_epochs)
          .value("unmatched_windows", rep.unmatched_windows)
          .value("energy_delta_mj", rep.energy_delta_mj)
          .value("latency_delta_us", rep.latency_delta_ns / 1e3)
          .value("edp_delta_pct", rep.edp_delta_pct);
    w.beginArray("commanded_histogram");
    for (std::int64_t c : rep.commanded_histogram) w.value(c);
    w.endArray().endObject();
    std::printf("json written to %s\n", args.get("json").c_str());
  }
  return 0;
}

int cmdOracle(const Args& args) {
  const GpuConfig gpu;
  Gpu machine(gpu, VfTable::titanX(), resolveWorkload(args),
              args.number<std::uint64_t>("seed", 777),
              ChipPowerModel(gpu.num_clusters));
  const OracleResult res =
      findBestStaticLevel(machine, OracleObjective::kMinEdp);
  std::printf("%-8s %12s %12s %12s\n", "level", "time (us)", "energy (mJ)",
              "EDP (uJ*s)");
  for (std::size_t l = 0; l < res.all.size(); ++l)
    std::printf("%-8zu %12.1f %12.3f %12.4f%s\n", l,
                static_cast<double>(res.all[l].exec_time_ns) / 1e3,
                res.all[l].energy_j * 1e3, res.all[l].edp * 1e6,
                static_cast<int>(l) == res.best_level ? "   <- best EDP"
                                                      : "");
  return 0;
}

int cmdHwCost(const Args& args) {
  const SsmModel model = loadModel(args.require("model"));
  const AsicReport r =
      estimateAsic(model.decisionNet(), model.calibratorNet());
  std::printf("MACs %lld, stored words %lld\n",
              static_cast<long long>(r.macs),
              static_cast<long long>(r.weight_words));
  std::printf("cycles/inference %lld (%.3f us @1165 MHz, %.2f%% of a 10 us "
              "epoch)\n",
              static_cast<long long>(r.cycles_per_inference), r.time_us,
              100.0 * r.dvfs_period_fraction);
  std::printf("area %.4f mm^2 @28 nm, power %.4f W, energy %.3f nJ/inf\n",
              r.area_mm2_28, r.power_w_28, r.energy_per_inference_nj_28);
  return 0;
}

/// Explains one decision: class distribution, per-level Calibrator loss
/// estimates, the min-frequency decode and the veto outcome.
int cmdExplain(const Args& args) {
  const SsmModel model = loadModel(args.require("model"));
  const Dataset ds = Dataset::loadCsv(args.require("data"));
  const auto row = args.number<std::size_t>("row", 0);
  const double preset = args.number<double>("preset", 0.10);
  if (row >= ds.size()) {
    std::fprintf(stderr, "row %zu out of range (%zu rows)\n", row, ds.size());
    return 2;
  }
  const DataPoint& p = ds.points()[row];
  CounterBlock cb;
  for (int c = 0; c < kNumCounters; ++c)
    cb.set(static_cast<CounterId>(c), p.counters[static_cast<std::size_t>(c)]);

  std::printf("row %zu: workload=%s recorded level=%d recorded loss=%.3f\n",
              row, p.workload.c_str(), p.level, p.perf_loss);
  std::printf("features:");
  for (CounterId id : model.config().features)
    std::printf("  %s=%.3g", std::string(counterName(id)).c_str(),
                cb.get(id));
  std::printf("\npreset fed to Decision-maker: %.3f\n\n", preset);

  const auto dist = model.decisionDistribution(cb, preset);
  const int default_level = model.config().num_levels - 1;
  const double i_ref = model.predictInstsK(cb, preset, default_level);
  std::printf("%-6s %12s %18s %14s\n", "level", "P(level)",
              "calibrator insts_k", "est. loss");
  for (int k = 0; k < model.config().num_levels; ++k) {
    const double i_k = model.predictInstsK(cb, preset, k);
    const double est = i_k > 1e-9 ? i_ref / i_k - 1.0 : 1.0;
    std::printf("%-6d %11.1f%% %18.2f %13.1f%%\n", k,
                100.0 * dist[static_cast<std::size_t>(k)], i_k,
                100.0 * std::max(0.0, est));
  }
  std::printf("\nmin-frequency decode -> level %d\n",
              model.decideLevel(cb, preset));
  return 0;
}

int cmdListCounters() {
  std::printf("%-24s %-16s %s\n", "counter", "category", "description");
  const auto cat_name = [](CounterCategory c) {
    switch (c) {
      case CounterCategory::kInstruction: return "instruction";
      case CounterCategory::kStall: return "execution stall";
      case CounterCategory::kPower: return "power";
      case CounterCategory::kClock: return "clock";
    }
    return "?";
  };
  for (int i = 0; i < kNumCounters; ++i) {
    const auto id = static_cast<CounterId>(i);
    std::printf("%-24s %-16s %s\n",
                std::string(counterName(id)).c_str(),
                cat_name(counterCategory(id)),
                std::string(counterDescription(id)).c_str());
  }
  return 0;
}

int cmdCorpusStats(const Args& args) {
  const Dataset ds = Dataset::loadCsv(args.require("data"));
  const CorpusStats stats = computeCorpusStats(ds);
  printCorpusStats(stats, std::cout);
  return 0;
}

int cmdQuantize(const Args& args) {
  const SsmModel model = loadModel(args.require("model"));
  const Dataset ds = Dataset::loadCsv(args.require("data"));

  // Calibration/probe matrices in the models' standardized input spaces.
  Matrix dec = ds.decisionInputs(model.config().features);
  model.standardizeDecision(dec);
  Matrix cal =
      ds.calibratorInputs(model.config().features, model.config().num_levels);
  model.standardizeCalibrator(cal);

  std::printf("%-6s %-10s %10s %12s\n", "bits", "net", "drift",
              "model bytes");
  for (const QuantBits bits : {QuantBits::kInt8, QuantBits::kInt16}) {
    QuantConfig qc;
    qc.weight_bits = bits;
    const QuantizedMlp qdec(model.decisionNet(), qc, dec);
    const QuantizedMlp qcal(model.calibratorNet(), qc, cal);
    std::printf("int%-3d %-10s %9.2f%% %12lld\n", static_cast<int>(bits),
                "decision",
                100.0 * quantizationDrift(model.decisionNet(), qdec, dec),
                static_cast<long long>(qdec.modelBytes()));
    std::printf("int%-3d %-10s %9.2f%% %12lld\n", static_cast<int>(bits),
                "calibrator",
                100.0 * quantizationDrift(model.calibratorNet(), qcal, cal),
                static_cast<long long>(qcal.modelBytes()));
  }
  std::puts("drift: changed argmax decisions (decision net) / output MAPE"
            " (calibrator)");
  return 0;
}

/// Splits "a,b,c" into tokens; empty tokens are dropped. '|' separates
/// lists of grammars that use ',' and ';' internally (--faults, --thermal,
/// --traffic).
std::vector<std::string> splitList(const std::string& s, char sep = ',') {
  std::vector<std::string> out;
  for (const std::string_view token : splitNonEmpty(s, sep))
    out.emplace_back(token);
  return out;
}

/// The strict numbers of the comma-list option `key`, in order.
template <class T>
std::vector<T> numberList(const Args& args, const std::string& key) {
  std::vector<T> out;
  for (const auto& token : splitList(args.get(key)))
    out.push_back(Args::numberOf<T>(key, token));
  return out;
}

/// Resolves --workloads: a comma list of registry names, or one of the
/// group aliases train / eval / all.
std::vector<KernelProfile> resolveSweepWorkloads(const std::string& spec) {
  if (spec == "train") return trainingWorkloads();
  if (spec == "eval") return evaluationWorkloads();
  if (spec == "all") return allWorkloads();
  std::vector<KernelProfile> out;
  for (const auto& name : splitList(spec)) out.push_back(workloadByName(name));
  if (out.empty()) throw DataError("--workloads resolved to an empty list");
  return out;
}

/// Resolves --replay: a directory (every *.ssmtrace inside, sorted by name
/// for determinism) or a comma list of trace files.
std::vector<std::shared_ptr<const engine::EpochTrace>> resolveReplayTraces(
    const std::string& spec) {
  std::vector<std::string> paths;
  if (std::filesystem::is_directory(spec)) {
    for (const auto& entry : std::filesystem::directory_iterator(spec))
      if (entry.is_regular_file() && entry.path().extension() == ".ssmtrace")
        paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
  } else {
    paths = splitList(spec);
  }
  if (paths.empty())
    throw DataError("--replay resolved to no trace files: " + spec);
  std::vector<std::shared_ptr<const engine::EpochTrace>> traces;
  traces.reserve(paths.size());
  for (const auto& p : paths)
    traces.push_back(
        std::make_shared<const engine::EpochTrace>(engine::loadTrace(p)));
  return traces;
}

int cmdSweep(const Args& args) {
  fleet::SweepSpec spec;
  if (args.has("replay")) {
    SSM_CHECK(!args.has("workloads"),
              "--replay and --workloads are mutually exclusive");
    SSM_CHECK(!args.has("faults"),
              "--faults cannot be combined with --replay: the recorded trace "
              "is immutable history, so new faults cannot be injected into "
              "it. Counterfactual branches (--counterfactual) already replay "
              "the RECORDED faults from each keyframe. To explore new fault "
              "scenarios, run a live sweep: --workloads ... --faults ...");
    SSM_CHECK(!args.has("thermal"),
              "thermal physics is closed-loop; unsupported with --replay");
    spec.replay = resolveReplayTraces(args.get("replay"));
    spec.counterfactual = args.has("counterfactual");
  } else {
    SSM_CHECK(!args.has("counterfactual"),
              "--counterfactual is a replay-sweep mode; pair it with "
              "--replay DIR|traces (recorded with --keyframe-every)");
    spec.workloads = resolveSweepWorkloads(args.require("workloads"));
  }
  spec.mechanisms = splitList(args.require("mechanisms"));
  if (args.has("presets")) spec.presets = numberList<double>(args, "presets");
  if (args.has("seeds")) spec.seeds = numberList<std::uint64_t>(args, "seeds");
  if (args.has("faults")) {
    // "none" is the clean cell.
    std::vector<faults::FaultSpec> cells;
    for (const auto& f : splitList(args.get("faults"), '|'))
      cells.push_back(faults::FaultSpec::parse(f));
    if (!cells.empty()) spec.faults = std::move(cells);
  }
  if (args.has("thermal")) {
    // The literal "none" is the cell without thermal physics.
    std::vector<thermal::ThermalScenario> cells;
    for (const auto& t : splitList(args.get("thermal"), '|'))
      cells.push_back(thermal::ThermalScenario::parse(t));
    if (!cells.empty()) spec.thermal = std::move(cells);
  }
  spec.harden = args.has("harden");
  spec.max_time_ns = maxTimeNs(args);
  bool needs_model = false;
  for (const auto& m : spec.mechanisms)
    if (m.rfind("ssmdvfs", 0) == 0) needs_model = true;
  if (needs_model)
    spec.model =
        std::make_shared<const SsmModel>(loadModel(args.require("model")));

  const int jobs = args.number<int>("jobs", 1);
  SSM_CHECK(jobs >= 1, "--jobs must be >= 1");
  ThreadPool pool(jobs);
  const fleet::FleetRunner runner(spec, pool);

  const bool quiet = args.has("quiet");
  const fleet::ProgressFn progress = [&](std::size_t done,
                                         std::size_t total) {
    if (quiet) return;
    std::fprintf(stderr, "\rsweep [%zu/%zu]", done, total);
    if (done == total) std::fputc('\n', stderr);
    std::fflush(stderr);
  };

  const std::string out = args.require("out");
  std::size_t lines = 0;
  if (args.has("csv")) {
    // CSV wants the full result set; write both files from it (the JSONL
    // bytes match the streaming path — same jobs, same order).
    const auto results = runner.run(progress);
    std::ofstream os(out);
    for (const auto& r : results) os << fleet::toJsonLine(spec, r) << '\n';
    std::ofstream cs(args.get("csv"));
    fleet::writeCsv(spec, results, cs);
    lines = results.size();
    std::printf("wrote %zu results to %s and %s\n", lines, out.c_str(),
                args.get("csv").c_str());
  } else {
    std::ofstream os(out);
    lines = runner.runJsonl(os, progress);
    std::printf("wrote %zu results to %s\n", lines, out.c_str());
  }
  return lines > 0 ? 0 : 1;
}

int cmdDc(const Args& args) {
  dc::DcSweepSpec spec;
  dc::RackSpec& base = spec.base;
  base.gpus = args.number<int>("gpus", 16);
  SSM_CHECK(base.gpus >= 1, "--gpus must be >= 1");
  base.mix = resolveSweepWorkloads(args.get("mix", "eval"));
  base.idle_power_w = args.number<double>("idle-power", 45.0);
  base.epochs_per_round =
      args.number<int>("epochs-per-round", 5);
  base.max_rounds = args.number<int>("max-rounds", 20000);
  base.warmup_rounds = args.number<int>("warmup-rounds", 10);
  base.preset = args.number<double>("preset", 0.10);
  base.seed = args.number<std::uint64_t>("seed", 777);
  // Default rack budget: a deliberately binding 120 W per chip (the chip
  // default cap is 180 W), so the hierarchical controller has work to do.
  base.power.rack_cap_w = 120.0 * base.gpus;

  if (args.has("faults"))
    base.fault = faults::FaultSpec::parse(args.get("faults"));
  if (args.has("degraded")) base.degraded = numberList<int>(args, "degraded");
  SSM_CHECK(base.degraded.empty() || base.fault.active(),
            "--degraded needs an active --faults scenario");
  if (args.has("thermal"))
    base.thermal = thermal::ThermalScenario::parse(args.get("thermal"));

  if (args.has("traffic")) {
    spec.traffic.clear();
    for (const auto& t : splitList(args.get("traffic"), '|'))
      spec.traffic.push_back(dc::TrafficSpec::parse(t));
    SSM_CHECK(!spec.traffic.empty(), "--traffic resolved to an empty list");
  }
  if (args.has("policies")) {
    spec.policies.clear();
    for (const auto& p : splitList(args.get("policies")))
      spec.policies.push_back(dc::parseDispatchPolicy(p));
  } else if (args.has("policy")) {
    spec.policies = {dc::parseDispatchPolicy(args.get("policy"))};
  }
  if (args.has("rack-caps")) {
    spec.rack_caps_w = numberList<double>(args, "rack-caps");
  } else if (args.has("rack-cap")) {
    spec.rack_caps_w = {args.number<double>("rack-cap", base.power.rack_cap_w)};
  }
  if (args.has("mechanisms")) {
    spec.mechanisms = splitList(args.get("mechanisms"));
  } else if (args.has("mechanism")) {
    spec.mechanisms = {args.get("mechanism")};
  }
  if (args.has("seeds")) spec.seeds = numberList<std::uint64_t>(args, "seeds");
  bool needs_model = base.mechanism.rfind("ssmdvfs", 0) == 0;
  for (const auto& m : spec.mechanisms)
    if (m.rfind("ssmdvfs", 0) == 0) needs_model = true;
  if (needs_model)
    base.model =
        std::make_shared<const SsmModel>(loadModel(args.require("model")));

  const int jobs = args.number<int>("jobs", 1);
  SSM_CHECK(jobs >= 1, "--jobs must be >= 1");
  ThreadPool pool(jobs);
  const dc::DcSweepRunner runner(spec, pool);

  if (args.has("out")) {
    const std::string out = args.get("out");
    std::size_t lines = 0;
    if (args.has("csv")) {
      const auto results = runner.run();
      std::ofstream os(out);
      for (const auto& r : results) os << dc::toJsonLine(spec, r) << '\n';
      std::ofstream cs(args.get("csv"));
      dc::writeCsv(spec, results, cs);
      lines = results.size();
      std::printf("wrote %zu results to %s and %s\n", lines, out.c_str(),
                  args.get("csv").c_str());
    } else {
      std::ofstream os(out);
      lines = runner.runJsonl(os);
      std::printf("wrote %zu results to %s\n", lines, out.c_str());
    }
    return lines > 0 ? 0 : 1;
  }

  // Single-run mode: exactly one cell, human-readable rack report.
  SSM_CHECK(runner.jobs().size() == 1,
            "multiple sweep cells need --out (JSONL mode)");
  const auto results = runner.run();
  const dc::RackResult& rack = results[0].rack;
  const dc::RackSpec cell = dc::cellSpec(spec, runner.jobs()[0]);
  const double cap_w = cell.power.rack_cap_w;
  std::printf("rack: %d GPUs under %.0f W (%s, %s policy, %s)\n", rack.gpus,
              cap_w, cell.mechanism.c_str(),
              dc::policyName(cell.policy).c_str(),
              cell.traffic.print().c_str());
  std::printf("jobs: %zu total, %d completed, %d unfinished\n",
              rack.jobs.size(), rack.completed, rack.unfinished);
  std::printf("deadline_miss_rate: %.4f   energy_per_job: %.3f mJ\n",
              rack.deadline_miss_rate, rack.energy_per_job_j * 1e3);
  std::printf("rack power: mean %.1f W, max %.1f W (cap %.0f W)\n",
              rack.mean_rack_power_w, rack.max_rack_power_w, cap_w);
  std::printf("cap violations: %.4f of rounds (%.4f after warmup)\n",
              rack.cap_violation_frac, rack.steady_violation_frac);
  std::printf("latency: p50 %.1f us, p99 %.1f us   makespan %.2f ms\n",
              static_cast<double>(rack.p50_latency_ns) / 1e3,
              static_cast<double>(rack.p99_latency_ns) / 1e3,
              static_cast<double>(rack.makespan_ns) / 1e6);
  std::printf("rounds: %d   busy gpu-epochs: %lld   idle energy: %.3f J\n",
              rack.rounds, static_cast<long long>(rack.busy_gpu_epochs),
              rack.idle_energy_j);
  if (rack.fault_counts.total() > 0)
    std::printf("injected faults: %lld across %zu degraded GPUs\n",
                static_cast<long long>(rack.fault_counts.total()),
                base.degraded.size());
  if (base.thermal.enabled)
    std::printf("thermal '%s': peak %.1f degC, %lld throttle-limited "
                "node-epochs\n",
                base.thermal.print().c_str(), rack.peak_temp_c,
                static_cast<long long>(rack.throttle_epochs));
  if (args.has("json")) {
    std::ofstream os(args.get("json"));
    os << dc::toJsonLine(spec, results[0]) << '\n';
  }
  return 0;
}

/// Per-command option summary, printed by `<command> --help`. Returns
/// nullptr for unknown commands.
const char* helpText(const std::string& cmd) {
  if (cmd == "list-workloads")
    return "ssmdvfs list-workloads\n"
           "  prints the built-in kernel-profile registry (name, suite, "
           "phases, warps, loops)";
  if (cmd == "datagen")
    return "ssmdvfs datagen --out corpus.csv [--workload NAME] [--runs N]\n"
           "                [--breakpoint-epochs N] [--seed S] [--jobs N]\n"
           "                [--profile-file FILE]\n"
           "  generates the supervised training corpus (per-level replay\n"
           "  windows, SIII.A); without --workload the full training set";
  if (cmd == "train")
    return "ssmdvfs train --data corpus.csv --out model.txt [--compressed]\n"
           "              [--epochs N] [--prune]\n"
           "  trains the Decision-maker + Calibrator pair on a datagen "
           "corpus";
  if (cmd == "eval")
    return "ssmdvfs eval --model model.txt --data corpus.csv\n"
           "  reports decision accuracy, calibrator MAPE and FLOPs";
  if (cmd == "run")
    return "ssmdvfs run --workload NAME --mechanism M [--preset P] [--seed "
           "S]\n"
           "            [--model model.txt] [--trace trace.csv] [--json "
           "out.json]\n"
           "            [--faults SPEC] [--thermal TSPEC] [--harden]\n"
           "            [--profile-file FILE]\n"
           "  one governed simulation vs the static-default baseline\n"
           "  M: baseline | static-<L> | ssmdvfs | ssmdvfs-nocal | pcstall "
           "|\n"
           "     flemma | ondemand\n"
           "  SPEC: fault grammar of docs/faults.md, e.g. "
           "\"noise:p=0.3,sigma=0.25\"\n"
           "  TSPEC: thermal grammar of docs/thermal.md, e.g. "
           "\"on\" or\n"
           "  \"amb=45,trip=70\" (RC physics + leakage feedback + throttle)";
  if (cmd == "record")
    return "ssmdvfs record --workload NAME --mechanism M --out "
           "trace.ssmtrace\n"
           "               [--preset P] [--seed S] [--max-ms N] [--clusters "
           "N]\n"
           "               [--model model.txt] [--profile-file FILE]\n"
           "               [--thermal TSPEC]\n"
           "  simulates one governed run and writes every epoch (all 47\n"
           "  counters per cluster) into the versioned, checksummed binary\n"
           "  trace format of src/engine/trace_io (docs/engine.md).\n"
           "  --thermal records per-epoch temperature tracks (format v2;\n"
           "  thermal-free traces stay v1)";
  if (cmd == "replay")
    return "ssmdvfs replay --trace trace.ssmtrace [--mechanism M] [--preset "
           "P]\n"
           "               [--model model.txt] [--harden] [--json out.json]\n"
           "  streams the recorded epochs through a governor OPEN-LOOP:\n"
           "  decisions are compared against the recorded policy's, never "
           "fed\n"
           "  back. Defaults to the recording mechanism (agreement 100% "
           "for\n"
           "  deterministic governors with recording-time config)";
  if (cmd == "oracle")
    return "ssmdvfs oracle --workload NAME [--seed S] [--profile-file FILE]\n"
           "  exhaustive static-level search: per-level time/energy/EDP";
  if (cmd == "hw-cost")
    return "ssmdvfs hw-cost --model model.txt\n"
           "  ASIC cost model: MACs, cycles/inference, area, power, energy";
  if (cmd == "quantize")
    return "ssmdvfs quantize --model model.txt --data corpus.csv\n"
           "  int8/int16 post-training quantization drift and model bytes";
  if (cmd == "list-counters")
    return "ssmdvfs list-counters\n"
           "  prints the 47-counter vector (SIII.B) with categories";
  if (cmd == "corpus-stats")
    return "ssmdvfs corpus-stats --data corpus.csv\n"
           "  per-workload/per-level corpus composition and label stats";
  if (cmd == "explain")
    return "ssmdvfs explain --model model.txt --data corpus.csv --row N\n"
           "                [--preset P]\n"
           "  explains one decision: class distribution, per-level "
           "calibrator\n"
           "  estimates, min-frequency decode";
  if (cmd == "sweep")
    return "ssmdvfs sweep --workloads A,B|train|eval|all --mechanisms "
           "M1,M2\n"
           "              --out sweep.jsonl [--csv sweep.csv] [--jobs N]\n"
           "              [--presets 0.10,0.20] [--seeds 777,778]\n"
           "              [--model model.txt] [--max-ms 5] [--quiet]\n"
           "              [--faults \"SPEC1|SPEC2\"] [--thermal "
           "\"T1|T2\"]\n"
           "              [--harden]\n"
           "ssmdvfs sweep --replay DIR|t1.ssmtrace,t2.ssmtrace --mechanisms "
           "...\n"
           "  cartesian sweep on the work-stealing pool; byte-identical "
           "for\n"
           "  every --jobs value. --thermal adds a thermal-scenario axis\n"
           "  ('|'-separated specs, docs/thermal.md; \"none\" is the cell\n"
           "  without physics); rows then carry peak_temp_c and\n"
           "  throttle_epochs. --replay substitutes recorded traces "
           "for\n"
           "  the workload axis (open-loop, agreement columns; --faults "
           "and\n"
           "  --thermal are rejected). A --replay directory takes every\n"
           "  *.ssmtrace inside, sorted by name.";
  if (cmd == "dc")
    return "ssmdvfs dc [--gpus 16] [--traffic \"SPEC1|SPEC2\"] [--seed S]\n"
           "           [--policy P | --policies P1,P2] [--mechanism M |\n"
           "           --mechanisms M1,M2] [--rack-cap W | --rack-caps "
           "W1,W2]\n"
           "           [--seeds S1,S2] [--mix eval|train|all|A,B] [--jobs "
           "N]\n"
           "           [--model model.txt] [--preset P] [--idle-power W]\n"
           "           [--epochs-per-round N] [--max-rounds N] "
           "[--warmup-rounds N]\n"
           "           [--faults SPEC --degraded 0,3] [--thermal TSPEC]\n"
           "           [--out dc.jsonl] [--csv dc.csv] [--json out.json]\n"
           "  a rack of GPUs under a hierarchical power cap serving\n"
           "  deadline-tagged traffic (docs/datacenter.md). Without --out,\n"
           "  runs the single cell and prints deadline_miss_rate,\n"
           "  energy_per_job and cap compliance; with --out, sweeps the\n"
           "  traffic x policy x cap x mechanism x seed product to JSONL\n"
           "  (byte-identical for every --jobs value). --thermal gives "
           "every\n"
           "  node RC physics: heat carries across jobs, cools during "
           "idle,\n"
           "  and a persistent per-node throttle backstops the cap.\n"
           "  SPEC: traffic grammar, e.g. "
           "\"shape=bursty;jobs=64;rate=2;burst=6\"\n"
           "  P: round-robin | least-loaded | deadline-aware";
  return nullptr;
}

void usage() {
  std::puts(
      "usage: ssmdvfs <command> [--key value ...]\n"
      "commands: list-workloads | datagen | train | eval | run | record |\n"
      "          replay | oracle | hw-cost | quantize | list-counters |\n"
      "          corpus-stats | explain | sweep | dc\n"
      "run `ssmdvfs <command> --help` for that command's options");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") {
    usage();
    return 0;
  }
  const Args args(argc, argv, 2);
  try {
    if (args.has("help")) {
      const char* text = helpText(cmd);
      if (text == nullptr) {
        usage();
        return 2;
      }
      std::puts(text);
      return 0;
    }
    if (cmd == "list-workloads") return cmdListWorkloads();
    if (cmd == "datagen") return cmdDatagen(args);
    if (cmd == "train") return cmdTrain(args);
    if (cmd == "eval") return cmdEval(args);
    if (cmd == "run") return cmdRun(args);
    if (cmd == "record") return cmdRecord(args);
    if (cmd == "replay") return cmdReplay(args);
    if (cmd == "oracle") return cmdOracle(args);
    if (cmd == "hw-cost") return cmdHwCost(args);
    if (cmd == "quantize") return cmdQuantize(args);
    if (cmd == "list-counters") return cmdListCounters();
    if (cmd == "explain") return cmdExplain(args);
    if (cmd == "corpus-stats") return cmdCorpusStats(args);
    if (cmd == "sweep") return cmdSweep(args);
    if (cmd == "dc") return cmdDc(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
