// Engine-layer tests: EpochLoop numeric equivalence, the versioned trace
// format, and open-loop replay.
//
// The equivalence tests pin the engine's headline contract: EpochLoop
// driving a SimBackend produces RunResults EXACTLY equal — every double
// bitwise — to the pre-engine epoch loops. The three reference functions
// below are verbatim transcriptions of the original
// src/gpusim/runner.cpp (runWithGovernor / runWithChipGovernor /
// runSequence) as they existed before the refactor; any divergence in
// accumulator order or histogram math in the engine shows up here as a
// failed exact comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/ondemand.hpp"
#include "baselines/pcstall.hpp"
#include "common/check.hpp"
#include "core/hardened_governor.hpp"
#include "engine/epoch_loop.hpp"
#include "engine/fork.hpp"
#include "engine/replay_backend.hpp"
#include "engine/sim_backend.hpp"
#include "engine/trace_io.hpp"
#include "faults/fault_injector.hpp"
#include "gpusim/fault_hook.hpp"
#include "gpusim/gpu_snapshot.hpp"
#include "gpusim/runner.hpp"
#include "gpusim/trace.hpp"
#include "workloads/kernel_profile.hpp"

namespace ssm {
namespace {

// --- reference loops: the pre-engine runner.cpp, transcribed verbatim ----

RunResult refRunWithGovernor(Gpu gpu, const GovernorFactory& factory,
                             std::string mechanism_name, TimeNs max_time_ns,
                             EpochTraceRecorder* trace,
                             EpochFaultHook* faults) {
  const int n = gpu.numClusters();
  std::vector<std::unique_ptr<DvfsGovernor>> governors;
  governors.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) governors.push_back(factory.create(i));

  std::vector<VfLevel> levels(static_cast<std::size_t>(n),
                              gpu.vfTable().defaultLevel());
  std::vector<double> level_epochs(gpu.vfTable().size(), 0.0);

  RunResult result;
  result.mechanism = std::move(mechanism_name);
  double power_time_sum = 0.0;

  while (!gpu.allDone() && gpu.nowNs() < max_time_ns) {
    GpuEpochReport report = gpu.runEpoch(levels);
    if (faults != nullptr) faults->onTelemetry(report);
    if (trace != nullptr) trace->record(report);
    ++result.epochs;
    power_time_sum += report.chip_power_w;
    for (int i = 0; i < n; ++i) {
      const auto& obs = report.clusters[static_cast<std::size_t>(i)];
      level_epochs[static_cast<std::size_t>(obs.level)] += 1.0;
      const VfLevel requested = gpu.vfTable().clamp(
          governors[static_cast<std::size_t>(i)]->decide(obs));
      levels[static_cast<std::size_t>(i)] =
          faults != nullptr ? faults->onActuate(i, requested, obs.level)
                            : requested;
    }
    if (report.all_done) break;
  }

  SSM_CHECK(gpu.allDone(),
            "program did not retire before max_time_ns; raise the limit");

  result.exec_time_ns = gpu.finishTimeNs();
  result.energy_j = gpu.totalEnergyJ();
  result.edp = gpu.edp();
  result.instructions = gpu.totalInstructions();
  result.mean_power_w =
      result.epochs > 0 ? power_time_sum / result.epochs : 0.0;

  const double total_cluster_epochs =
      static_cast<double>(result.epochs) * static_cast<double>(n);
  result.level_histogram.resize(level_epochs.size());
  for (std::size_t l = 0; l < level_epochs.size(); ++l)
    result.level_histogram[l] = total_cluster_epochs > 0
                                    ? level_epochs[l] / total_cluster_epochs
                                    : 0.0;
  return result;
}

RunResult refRunWithChipGovernor(Gpu gpu, const GovernorFactory& factory,
                                 std::string mechanism_name,
                                 TimeNs max_time_ns,
                                 EpochTraceRecorder* trace) {
  const int n = gpu.numClusters();
  const std::unique_ptr<DvfsGovernor> governor = factory.create(0);

  std::vector<VfLevel> levels(static_cast<std::size_t>(n),
                              gpu.vfTable().defaultLevel());
  std::vector<double> level_epochs(gpu.vfTable().size(), 0.0);

  RunResult result;
  result.mechanism = std::move(mechanism_name);
  double power_sum = 0.0;

  while (!gpu.allDone() && gpu.nowNs() < max_time_ns) {
    const GpuEpochReport report = gpu.runEpoch(levels);
    if (trace != nullptr) trace->record(report);
    ++result.epochs;
    power_sum += report.chip_power_w;

    EpochObservation agg;
    agg.epoch_start_ns = report.epoch_start_ns;
    agg.epoch_len_ns = report.epoch_len_ns;
    int live = 0;
    for (const auto& obs : report.clusters) {
      level_epochs[static_cast<std::size_t>(obs.level)] += 1.0;
      if (obs.cluster_done) continue;
      ++live;
      agg.instructions += obs.instructions;
      agg.power_w += obs.power_w;
      for (int c = 0; c < kNumCounters; ++c) {
        const auto id = static_cast<CounterId>(c);
        agg.counters.add(id, obs.counters.get(id));
      }
      agg.level = obs.level;
    }
    if (live > 0) {
      const double inv = 1.0 / static_cast<double>(live);
      agg.instructions = static_cast<std::int64_t>(
          static_cast<double>(agg.instructions) * inv);
      agg.power_w *= inv;
      for (int c = 0; c < kNumCounters; ++c) {
        const auto id = static_cast<CounterId>(c);
        agg.counters.set(id, agg.counters.get(id) * inv);
      }
    } else {
      agg.cluster_done = true;
    }
    const VfLevel next = gpu.vfTable().clamp(governor->decide(agg));
    levels.assign(static_cast<std::size_t>(n), next);
    if (report.all_done) break;
  }

  SSM_CHECK(gpu.allDone(),
            "program did not retire before max_time_ns; raise the limit");
  result.exec_time_ns = gpu.finishTimeNs();
  result.energy_j = gpu.totalEnergyJ();
  result.edp = gpu.edp();
  result.instructions = gpu.totalInstructions();
  result.mean_power_w = result.epochs > 0 ? power_sum / result.epochs : 0.0;
  const double total = static_cast<double>(result.epochs) * n;
  result.level_histogram.resize(level_epochs.size());
  for (std::size_t l = 0; l < level_epochs.size(); ++l)
    result.level_histogram[l] = total > 0 ? level_epochs[l] / total : 0.0;
  return result;
}

std::vector<RunResult> refRunSequence(
    const std::vector<KernelProfile>& programs, const GovernorFactory& factory,
    std::string mechanism_name, const SequenceConfig& cfg) {
  SSM_CHECK(!programs.empty(), "empty program sequence");

  std::vector<std::unique_ptr<DvfsGovernor>> governors;
  governors.reserve(static_cast<std::size_t>(cfg.gpu.num_clusters));
  for (int i = 0; i < cfg.gpu.num_clusters; ++i)
    governors.push_back(factory.create(i));

  std::vector<RunResult> results;
  results.reserve(programs.size());
  std::vector<VfLevel> levels;
  std::vector<double> level_epochs;
  for (std::size_t p = 0; p < programs.size(); ++p) {
    Gpu gpu(cfg.gpu, cfg.vf, programs[p], cfg.seed + p,
            ChipPowerModel(cfg.gpu.num_clusters));
    for (auto& gov : governors) gov->reset();

    levels.assign(static_cast<std::size_t>(cfg.gpu.num_clusters),
                  gpu.vfTable().defaultLevel());
    level_epochs.assign(gpu.vfTable().size(), 0.0);

    RunResult result;
    result.workload = programs[p].name;
    result.mechanism = mechanism_name;
    double power_sum = 0.0;
    while (!gpu.allDone() && gpu.nowNs() < cfg.max_time_ns_per_program) {
      const GpuEpochReport report = gpu.runEpoch(levels);
      ++result.epochs;
      power_sum += report.chip_power_w;
      for (int i = 0; i < cfg.gpu.num_clusters; ++i) {
        const auto& obs = report.clusters[static_cast<std::size_t>(i)];
        level_epochs[static_cast<std::size_t>(obs.level)] += 1.0;
        levels[static_cast<std::size_t>(i)] = gpu.vfTable().clamp(
            governors[static_cast<std::size_t>(i)]->decide(obs));
      }
      if (report.all_done) break;
    }
    SSM_CHECK(gpu.allDone(), "sequence program did not retire in time");

    result.exec_time_ns = gpu.finishTimeNs();
    result.energy_j = gpu.totalEnergyJ();
    result.edp = gpu.edp();
    result.instructions = gpu.totalInstructions();
    result.mean_power_w =
        result.epochs > 0 ? power_sum / result.epochs : 0.0;
    const double total =
        static_cast<double>(result.epochs) * cfg.gpu.num_clusters;
    result.level_histogram.resize(level_epochs.size());
    for (std::size_t l = 0; l < level_epochs.size(); ++l)
      result.level_histogram[l] = total > 0 ? level_epochs[l] / total : 0.0;
    results.push_back(std::move(result));
  }
  return results;
}

// --- exact-equality helpers ----------------------------------------------

/// Every field, doubles compared exactly: the contract is byte identity,
/// not tolerance.
void expectExactlyEqual(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.mechanism, b.mechanism);
  EXPECT_EQ(a.exec_time_ns, b.exec_time_ns);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.edp, b.edp);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.mean_power_w, b.mean_power_w);
  ASSERT_EQ(a.level_histogram.size(), b.level_histogram.size());
  for (std::size_t l = 0; l < a.level_histogram.size(); ++l)
    EXPECT_EQ(a.level_histogram[l], b.level_histogram[l]) << "level " << l;
  EXPECT_EQ(a.peak_temp_c, b.peak_temp_c);
  EXPECT_EQ(a.throttle_epochs, b.throttle_epochs);
}

void expectExactlyEqual(const EpochObservation& a, const EpochObservation& b) {
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.power_w, b.power_w);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.epoch_start_ns, b.epoch_start_ns);
  EXPECT_EQ(a.epoch_len_ns, b.epoch_len_ns);
  EXPECT_EQ(a.cluster_id, b.cluster_id);
  EXPECT_EQ(a.cluster_done, b.cluster_done);
  for (int c = 0; c < kNumCounters; ++c) {
    const auto id = static_cast<CounterId>(c);
    EXPECT_EQ(a.counters.get(id), b.counters.get(id)) << "counter " << c;
  }
}

void expectExactlyEqual(const engine::EpochTrace& a,
                        const engine::EpochTrace& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.mechanism, b.mechanism);
  EXPECT_EQ(a.seed, b.seed);
  ASSERT_EQ(a.vf.size(), b.vf.size());
  for (VfLevel l = 0; static_cast<std::size_t>(l) < a.vf.size(); ++l)
    EXPECT_EQ(a.vf.at(l), b.vf.at(l));
  expectExactlyEqual(a.recorded, b.recorded);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    const GpuEpochReport& ra = a.epochs[e];
    const GpuEpochReport& rb = b.epochs[e];
    EXPECT_EQ(ra.chip_power_w, rb.chip_power_w);
    EXPECT_EQ(ra.dram_util, rb.dram_util);
    EXPECT_EQ(ra.epoch_start_ns, rb.epoch_start_ns);
    EXPECT_EQ(ra.epoch_len_ns, rb.epoch_len_ns);
    EXPECT_EQ(ra.all_done, rb.all_done);
    EXPECT_EQ(ra.package_temp_c, rb.package_temp_c);
    ASSERT_EQ(ra.cluster_temps_c.size(), rb.cluster_temps_c.size());
    for (std::size_t i = 0; i < ra.cluster_temps_c.size(); ++i)
      EXPECT_EQ(ra.cluster_temps_c[i], rb.cluster_temps_c[i]);
    ASSERT_EQ(ra.clusters.size(), rb.clusters.size());
    for (std::size_t i = 0; i < ra.clusters.size(); ++i)
      expectExactlyEqual(ra.clusters[i], rb.clusters[i]);
  }
}

Gpu makeGpu(const std::string& workload, std::uint64_t seed = 777) {
  const GpuConfig cfg;
  return Gpu(cfg, VfTable::titanX(), workloadByName(workload), seed,
             ChipPowerModel(cfg.num_clusters));
}

/// Records `workload` under pcstall with full replay capture: the shared
/// trace fixture for the round-trip and replay tests.
engine::EpochTrace recordTrace(const std::string& workload,
                               std::uint64_t seed = 777) {
  const VfTable vf = VfTable::titanX();
  const PcstallFactory factory(vf, PcstallConfig{});
  EpochTraceRecorder rec;
  rec.enableReplayCapture();
  const RunResult recorded = runWithGovernor(makeGpu(workload, seed), factory,
                                             "pcstall", kNsPerMs, &rec);
  return engine::traceFromRecorder(rec, workload, "pcstall", seed, vf,
                                   recorded);
}

// --- EpochLoop vs the pre-engine reference loops -------------------------

TEST(EngineLoop, PerClusterMatchesPreEngineReference) {
  const PcstallFactory factory(VfTable::titanX(), PcstallConfig{});
  const RunResult ref = refRunWithGovernor(makeGpu("spmv"), factory, "pcstall",
                                           kNsPerMs, nullptr, nullptr);
  const RunResult now =
      runWithGovernor(makeGpu("spmv"), factory, "pcstall", kNsPerMs);
  expectExactlyEqual(ref, now);
  EXPECT_GT(now.epochs, 0);
}

TEST(EngineLoop, PerClusterWithTraceAndFaultsMatchesReference) {
  const OndemandFactory factory(VfTable::titanX());
  const auto spec = faults::FaultSpec::parse("dropout:p=0.3,mode=zero");

  faults::FaultInjector ref_inj(spec, 42);
  EpochTraceRecorder ref_rec;
  const RunResult ref = refRunWithGovernor(makeGpu("bfs"), factory, "ondemand",
                                           kNsPerMs, &ref_rec, &ref_inj);

  faults::FaultInjector inj(spec, 42);  // identical injector stream
  EpochTraceRecorder rec;
  const RunResult now = runWithGovernor(makeGpu("bfs"), factory, "ondemand",
                                        kNsPerMs, &rec, &inj);

  expectExactlyEqual(ref, now);
  EXPECT_EQ(ref_inj.counts().dropout, inj.counts().dropout);
  EXPECT_EQ(ref_rec.epochCount(), rec.epochCount());
}

TEST(EngineLoop, ChipWideMatchesPreEngineReference) {
  const OndemandFactory factory(VfTable::titanX());
  const RunResult ref = refRunWithChipGovernor(makeGpu("bfs"), factory,
                                               "ondemand", kNsPerMs, nullptr);
  const RunResult now =
      runWithChipGovernor(makeGpu("bfs"), factory, "ondemand", kNsPerMs);
  expectExactlyEqual(ref, now);
}

TEST(EngineLoop, ChipWideHonoursMaxEpochs) {
  // The epoch bound is a normal exit in chip-wide mode too: five epochs,
  // no timeout error, and the program is left unfinished.
  const OndemandFactory factory(VfTable::titanX());
  engine::SimBackend backend(makeGpu("bfs"));
  engine::LoopConfig cfg;
  cfg.max_time_ns = kNsPerMs;
  cfg.chip_wide = true;
  cfg.max_epochs = 5;
  RunResult r;
  ASSERT_NO_THROW(
      r = engine::EpochLoop(cfg).run(backend, backend, factory, "ondemand"));
  EXPECT_EQ(r.epochs, 5);
  EXPECT_FALSE(backend.done());
}

TEST(EngineLoop, SequenceMatchesPreEngineReference) {
  const PcstallFactory factory(VfTable::titanX(), PcstallConfig{});
  const std::vector<KernelProfile> programs = {workloadByName("spmv"),
                                               workloadByName("bfs")};
  SequenceConfig cfg;
  cfg.max_time_ns_per_program = kNsPerMs;
  const auto ref = refRunSequence(programs, factory, "pcstall", cfg);
  const auto now = runSequence(programs, factory, "pcstall", cfg);
  ASSERT_EQ(ref.size(), now.size());
  for (std::size_t p = 0; p < ref.size(); ++p)
    expectExactlyEqual(ref[p], now[p]);
}

TEST(EngineLoop, SimBackendDrivesTheSameNumbersAsTheAdapter) {
  const PcstallFactory factory(VfTable::titanX(), PcstallConfig{});
  engine::SimBackend backend(makeGpu("spmv"));
  engine::LoopConfig cfg;
  cfg.max_time_ns = kNsPerMs;
  const RunResult direct =
      engine::EpochLoop(cfg).run(backend, backend, factory, "pcstall");
  const RunResult adapter =
      runWithGovernor(makeGpu("spmv"), factory, "pcstall", kNsPerMs);
  expectExactlyEqual(direct, adapter);
}

TEST(EngineLoop, MakeGovernorsHonorsCount) {
  const OndemandFactory factory(VfTable::titanX());
  EXPECT_EQ(engine::makeGovernors(factory, 5).size(), 5u);
  EXPECT_THROW(static_cast<void>(engine::makeGovernors(factory, 0)),
               ContractError);
}

// --- trace format ---------------------------------------------------------

TEST(TraceIo, RoundTripIsExact) {
  const engine::EpochTrace trace = recordTrace("spmv");
  ASSERT_GT(trace.epochs.size(), 0u);
  const engine::EpochTrace back =
      engine::deserializeTrace(engine::serializeTrace(trace));
  expectExactlyEqual(trace, back);
  EXPECT_EQ(back.numClusters(), trace.numClusters());
}

TEST(TraceIo, FileRoundTripAndHeaderInfo) {
  const engine::EpochTrace trace = recordTrace("bfs");
  const std::string path = testing::TempDir() + "test_engine_bfs.ssmtrace";
  engine::saveTrace(trace, path);

  const engine::TraceFileInfo info = engine::traceFileInfo(path);
  // No thermal tracks were recorded, so the writer must choose v1: the
  // committed golden traces depend on thermal-free traces staying v1 bytes.
  EXPECT_EQ(info.version, engine::kTraceVersionV1);
  const std::string bytes = engine::serializeTrace(trace);
  EXPECT_EQ(info.payload_size, bytes.size() - 28);  // header is 28 bytes
  EXPECT_EQ(info.checksum, engine::fnv1a64(std::string_view(bytes).substr(28)));

  expectExactlyEqual(trace, engine::loadTrace(path));
}

TEST(TraceIo, RejectsTamperedAndMalformedImages) {
  const engine::EpochTrace trace = recordTrace("spmv");
  const std::string good = engine::serializeTrace(trace);

  // A single flipped payload byte is caught by the checksum.
  std::string corrupted = good;
  corrupted[40] = static_cast<char>(corrupted[40] ^ 0x01);
  EXPECT_THROW(static_cast<void>(engine::deserializeTrace(corrupted)),
               DataError);

  // Truncation, trailing bytes, wrong magic, unsupported version.
  EXPECT_THROW(static_cast<void>(engine::deserializeTrace(
                   std::string_view(good).substr(0, good.size() - 3))),
               DataError);
  EXPECT_THROW(
      static_cast<void>(engine::deserializeTrace(good + std::string("xx"))),
      DataError);
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_THROW(static_cast<void>(engine::deserializeTrace(bad_magic)),
               DataError);
  std::string bad_version = good;
  bad_version[8] = static_cast<char>(bad_version[8] + 1);
  EXPECT_THROW(static_cast<void>(engine::deserializeTrace(bad_version)),
               DataError);
  EXPECT_THROW(static_cast<void>(engine::deserializeTrace(std::string_view{})),
               DataError);
}

TEST(TraceIo, RecorderWithoutReplayCaptureIsADataError) {
  const PcstallFactory factory(VfTable::titanX(), PcstallConfig{});
  EpochTraceRecorder rec;  // capture NOT enabled: summaries only
  const RunResult recorded = runWithGovernor(makeGpu("spmv"), factory,
                                             "pcstall", kNsPerMs, &rec);
  EXPECT_THROW(
      static_cast<void>(engine::traceFromRecorder(
          rec, "spmv", "pcstall", 777, VfTable::titanX(), recorded)),
      DataError);
}

// --- open-loop replay -----------------------------------------------------

TEST(Replay, SameConfigurationAgreesOnEveryDecision) {
  const engine::EpochTrace trace = recordTrace("spmv");
  const PcstallFactory factory(VfTable::titanX(), PcstallConfig{});
  const engine::ReplayReport rep =
      engine::replayTrace(trace, factory, "pcstall");

  // Identical deterministic governor, identical observation stream: every
  // compared decision matches.
  EXPECT_GT(rep.compared, 0);
  EXPECT_EQ(rep.matches, rep.compared);
  EXPECT_EQ(rep.agreement, 1.0);
  // Decisions are one per cluster per epoch; the final epoch's have no
  // recorded successor and are excluded from the comparison denominator.
  const auto n = static_cast<std::int64_t>(trace.numClusters());
  EXPECT_EQ(rep.decisions, static_cast<std::int64_t>(trace.epochs.size()) * n);
  EXPECT_EQ(rep.decisions - rep.compared, n);
  RunResult expected = trace.recorded;
  expected.workload = trace.workload;  // replay stamps the trace's workload
  expectExactlyEqual(rep.result, expected);
}

TEST(Replay, ReproducesRecordedNumbersForAnyGovernor) {
  const engine::EpochTrace trace = recordTrace("spmv");
  const OndemandFactory other(VfTable::titanX());
  const engine::ReplayReport rep =
      engine::replayTrace(trace, other, "ondemand");

  // Open loop: a different policy cannot move the recorded numbers, only
  // the agreement statistics.
  RunResult expected = trace.recorded;
  expected.workload = trace.workload;
  expected.mechanism = "ondemand";
  expectExactlyEqual(rep.result, expected);
  EXPECT_LT(rep.agreement, 1.0);
  EXPECT_GT(rep.decisions, 0);

  // The commanded histogram tallies every decision the replayed governor
  // made, one bucket per V/f level.
  ASSERT_EQ(rep.commanded_histogram.size(), trace.vf.size());
  std::int64_t tallied = 0;
  for (const std::int64_t c : rep.commanded_histogram) tallied += c;
  EXPECT_EQ(tallied, rep.decisions);
}

TEST(Replay, HardenedReplayKeepsRecordedNumbers) {
  const engine::EpochTrace trace = recordTrace("bfs");
  const OndemandFactory other(VfTable::titanX());
  GovernorModeLog log;
  const HardenedGovernorFactory hardened(other, trace.vf, HardenedConfig{},
                                         &log);
  const engine::ReplayReport rep =
      engine::replayTrace(trace, hardened, "ondemand");
  RunResult expected = trace.recorded;
  expected.workload = trace.workload;
  expected.mechanism = "ondemand";
  expectExactlyEqual(rep.result, expected);
}

TEST(Replay, BackendStreamsTheTraceVerbatim) {
  const engine::EpochTrace trace = recordTrace("spmv");
  engine::ReplayBackend backend(trace);
  EXPECT_EQ(backend.numClusters(), trace.numClusters());
  EXPECT_FALSE(backend.done());

  const std::vector<VfLevel> ignored(
      static_cast<std::size_t>(backend.numClusters()),
      trace.vf.defaultLevel());
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    const GpuEpochReport report = backend.nextEpoch(ignored);
    EXPECT_EQ(report.epoch_start_ns, trace.epochs[e].epoch_start_ns);
    EXPECT_EQ(report.chip_power_w, trace.epochs[e].chip_power_w);
  }
  EXPECT_TRUE(backend.done());
  EXPECT_EQ(backend.nowNs(), trace.recorded.exec_time_ns);
  // Exhausting the stream again is a contract violation.
  EXPECT_THROW(static_cast<void>(backend.nextEpoch(ignored)), ContractError);

  const engine::StreamStats st = backend.stats();
  EXPECT_EQ(st.exec_time_ns, trace.recorded.exec_time_ns);
  EXPECT_EQ(st.energy_j, trace.recorded.energy_j);
  EXPECT_EQ(st.edp, trace.recorded.edp);
  EXPECT_EQ(st.instructions, trace.recorded.instructions);
}

// --- keyframed traces (format v3) and the fork engine ---------------------

/// Records `workload` under pcstall with keyframe capture every `every`
/// epochs — the same loop configuration `ssmdvfs record --keyframe-every`
/// assembles.
engine::EpochTrace recordKeyframedTrace(const std::string& workload,
                                        std::int64_t every,
                                        std::uint64_t seed = 777) {
  const VfTable vf = VfTable::titanX();
  const PcstallFactory factory(vf, PcstallConfig{});
  EpochTraceRecorder rec;
  rec.enableReplayCapture();
  std::vector<engine::TraceKeyframe> keyframes;
  engine::SimBackend backend(makeGpu(workload, seed));
  engine::LoopConfig cfg;
  cfg.max_time_ns = kNsPerMs;
  cfg.trace = &rec;
  cfg.keyframe_every = every;
  cfg.keyframes = &keyframes;
  const RunResult recorded =
      engine::EpochLoop(cfg).run(backend, backend, factory, "pcstall");
  engine::EpochTrace trace = engine::traceFromRecorder(rec, workload,
                                                       "pcstall", seed, vf,
                                                       recorded);
  trace.keyframes = std::move(keyframes);
  return trace;
}

std::uint32_t headerVersion(const std::string& bytes) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes[8 + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

void putU64At(std::string& bytes, std::size_t offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
}

/// Recomputes the header's payload_size and checksum fields after the test
/// tampered with the payload, so the outer integrity check passes and the
/// inner (per-section) validation is what rejects the bytes.
void patchHeader(std::string& bytes) {
  const std::string_view payload = std::string_view(bytes).substr(28);
  putU64At(bytes, 12, payload.size());
  putU64At(bytes, 20, engine::fnv1a64(payload));
}

/// Byte offset of the keyframe block (it is the last payload section).
std::size_t keyframeBlockOffset(const std::string& bytes,
                                const engine::EpochTrace& trace) {
  std::size_t block = 4;  // u32 keyframe count
  for (const auto& kf : trace.keyframes)
    block += 8 + 8 + 4 + kf.gpu_blob.size();  // epoch, checksum, str blob
  return bytes.size() - block;
}

/// Swaps the encodings of the first two V/f points of the titanX table in
/// `bytes`, found by their raw bit patterns: the decoded table is then not
/// ascending, which the VfTable constructor rejects.
void swapFirstVfPoints(std::string& bytes) {
  const VfTable vf = VfTable::titanX();
  const std::string_view first(
      reinterpret_cast<const char*>(vf.points().data()), sizeof(VfPoint));
  const std::size_t at = bytes.find(first);
  ASSERT_NE(at, std::string::npos);
  const auto point = bytes.begin() + static_cast<std::ptrdiff_t>(at);
  const auto next = point + static_cast<std::ptrdiff_t>(sizeof(VfPoint));
  std::swap_ranges(point, next, next);
}

TEST(TraceIo, SwappedVfPointsAreADataError) {
  std::string bytes = engine::serializeTrace(recordTrace("spmv"));
  swapFirstVfPoints(bytes);
  patchHeader(bytes);
  EXPECT_THROW(static_cast<void>(engine::deserializeTrace(bytes)), DataError);
}

TEST(ForkResim, SwappedSnapshotVfPointsAreADataError) {
  std::string blob = serializeGpu(makeGpu("spmv"));
  swapFirstVfPoints(blob);
  EXPECT_THROW(static_cast<void>(deserializeGpu(blob)), DataError);
}

TEST(TraceV3, KeyframedTraceRoundTripsAsV3) {
  const engine::EpochTrace trace = recordKeyframedTrace("spmv", 16);
  ASSERT_GE(trace.keyframes.size(), 2u);
  EXPECT_EQ(trace.keyframes.front().epoch, 0);

  const std::string bytes = engine::serializeTrace(trace);
  EXPECT_EQ(headerVersion(bytes), engine::kTraceVersionV3);

  const engine::EpochTrace back = engine::deserializeTrace(bytes);
  expectExactlyEqual(trace, back);
  ASSERT_EQ(back.keyframes.size(), trace.keyframes.size());
  for (std::size_t k = 0; k < trace.keyframes.size(); ++k) {
    EXPECT_EQ(back.keyframes[k].epoch, trace.keyframes[k].epoch);
    EXPECT_EQ(back.keyframes[k].gpu_blob, trace.keyframes[k].gpu_blob);
  }
}

TEST(TraceV3, KeyframeFreeTracesKeepTheirBytesThroughTheV3Reader) {
  // v1: a thermal-free, keyframe-free trace must stay v1 bit-for-bit (the
  // committed goldens depend on it), and re-serializing the parsed trace
  // must reproduce the input exactly.
  const std::string v1 = engine::serializeTrace(recordTrace("spmv"));
  EXPECT_EQ(headerVersion(v1), engine::kTraceVersionV1);
  EXPECT_EQ(engine::serializeTrace(engine::deserializeTrace(v1)), v1);

  // v2: thermal tracks without keyframes stay v2 and round-trip unchanged.
  const VfTable vf = VfTable::titanX();
  const PcstallFactory factory(vf, PcstallConfig{});
  Gpu machine = makeGpu("spmv");
  machine.attachThermal(thermal::ThermalParams{});
  EpochTraceRecorder rec;
  rec.enableReplayCapture();
  const RunResult recorded = runWithGovernor(std::move(machine), factory,
                                             "pcstall", kNsPerMs, &rec);
  const engine::EpochTrace thermal_trace = engine::traceFromRecorder(
      rec, "spmv", "pcstall", 777, vf, recorded);
  const std::string v2 = engine::serializeTrace(thermal_trace);
  EXPECT_EQ(headerVersion(v2), engine::kTraceVersionV2);
  EXPECT_EQ(engine::serializeTrace(engine::deserializeTrace(v2)), v2);
}

TEST(TraceV3, WriterRejectsMalformedKeyframeSets) {
  engine::EpochTrace trace = recordKeyframedTrace("spmv", 16);
  ASSERT_GE(trace.keyframes.size(), 2u);

  engine::EpochTrace out_of_order = trace;
  std::swap(out_of_order.keyframes[0], out_of_order.keyframes[1]);
  EXPECT_THROW(static_cast<void>(engine::serializeTrace(out_of_order)),
               ContractError);

  engine::EpochTrace out_of_range = trace;
  out_of_range.keyframes.back().epoch =
      static_cast<std::int64_t>(trace.epochs.size());
  EXPECT_THROW(static_cast<void>(engine::serializeTrace(out_of_range)),
               ContractError);
}

TEST(TraceV3, CorruptedKeyframeBlobIsADataError) {
  const engine::EpochTrace trace = recordKeyframedTrace("spmv", 16);
  std::string bytes = engine::serializeTrace(trace);
  // First keyframe's first blob byte: block offset + count(4) + epoch(8) +
  // blob checksum(8) + blob length(4). The outer payload checksum is
  // patched, so the per-keyframe checksum is what must catch the flip.
  const std::size_t blob0 = keyframeBlockOffset(bytes, trace) + 4 + 8 + 8 + 4;
  bytes[blob0] = static_cast<char>(bytes[blob0] ^ 0x01);
  patchHeader(bytes);
  EXPECT_THROW(static_cast<void>(engine::deserializeTrace(bytes)), DataError);
}

TEST(TraceV3, TruncatedKeyframeBlockIsADataError) {
  const engine::EpochTrace trace = recordKeyframedTrace("spmv", 16);
  std::string bytes = engine::serializeTrace(trace);
  bytes.resize(bytes.size() - 4);  // cut into the last keyframe's blob
  patchHeader(bytes);
  EXPECT_THROW(static_cast<void>(engine::deserializeTrace(bytes)), DataError);
}

TEST(TraceV3, TrailingBytesAfterKeyframeBlockIsADataError) {
  const engine::EpochTrace trace = recordKeyframedTrace("spmv", 16);
  std::string bytes = engine::serializeTrace(trace);
  bytes += "xx";
  patchHeader(bytes);
  EXPECT_THROW(static_cast<void>(engine::deserializeTrace(bytes)), DataError);
}

TEST(TraceV3, OutOfRangeKeyframeEpochIsADataError) {
  const engine::EpochTrace trace = recordKeyframedTrace("spmv", 16);
  std::string bytes = engine::serializeTrace(trace);
  // Overwrite the first keyframe's epoch field with one past the last epoch.
  putU64At(bytes, keyframeBlockOffset(bytes, trace) + 4,
           static_cast<std::uint64_t>(trace.epochs.size()));
  patchHeader(bytes);
  EXPECT_THROW(static_cast<void>(engine::deserializeTrace(bytes)), DataError);
}

void expectReportsExactlyEqual(const GpuEpochReport& a,
                               const GpuEpochReport& b) {
  EXPECT_EQ(a.chip_power_w, b.chip_power_w);
  EXPECT_EQ(a.dram_util, b.dram_util);
  EXPECT_EQ(a.epoch_start_ns, b.epoch_start_ns);
  EXPECT_EQ(a.epoch_len_ns, b.epoch_len_ns);
  EXPECT_EQ(a.all_done, b.all_done);
  EXPECT_EQ(a.package_temp_c, b.package_temp_c);
  ASSERT_EQ(a.cluster_temps_c.size(), b.cluster_temps_c.size());
  for (std::size_t i = 0; i < a.cluster_temps_c.size(); ++i)
    EXPECT_EQ(a.cluster_temps_c[i], b.cluster_temps_c[i]);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t i = 0; i < a.clusters.size(); ++i)
    expectExactlyEqual(a.clusters[i], b.clusters[i]);
}

// The tentpole's acceptance pin: a branch restored from a trace keyframe and
// driven with the recorded levels reproduces every subsequent epoch — every
// counter, every power figure, every temperature — byte-identically to the
// recording (scratch) run, all the way to retirement.
TEST(ForkResim, BranchFromKeyframeMatchesScratchRunByteIdentically) {
  const engine::EpochTrace trace = recordKeyframedTrace("spmv", 16);
  ASSERT_GE(trace.keyframes.size(), 2u);

  for (const engine::TraceKeyframe& kf : trace.keyframes) {
    engine::GpuFork fork(engine::keyframeGpu(kf));
    std::vector<VfLevel> levels(
        static_cast<std::size_t>(trace.numClusters()));
    for (std::size_t e = static_cast<std::size_t>(kf.epoch);
         e < trace.epochs.size(); ++e) {
      for (std::size_t c = 0; c < levels.size(); ++c)
        levels[c] = trace.epochs[e].clusters[c].level;
      const GpuEpochReport report = fork.step(levels);
      expectReportsExactlyEqual(report, trace.epochs[e]);
    }
    EXPECT_TRUE(fork.allDone());
    EXPECT_EQ(fork.totalInstructions(), trace.recorded.instructions);
    EXPECT_EQ(fork.totalEnergyJ(), trace.recorded.energy_j);
    EXPECT_EQ(fork.gpu().finishTimeNs(), trace.recorded.exec_time_ns);
  }
}

TEST(ForkResim, SnapshotRoundTripIsByteExactAndResumesIdentically) {
  engine::GpuFork warm(makeGpu("bfs"));
  for (int e = 0; e < 7; ++e) warm.stepUniform(3);

  const std::string blob = serializeGpu(warm.gpu());
  Gpu restored = deserializeGpu(blob);
  EXPECT_EQ(serializeGpu(restored), blob);

  // The restored machine and the original produce identical futures.
  engine::GpuFork a(warm.gpu());
  engine::GpuFork b(std::move(restored));
  while (!a.allDone()) {
    const GpuEpochReport ra = a.stepUniform(4);
    const GpuEpochReport rb = b.stepUniform(4);
    expectReportsExactlyEqual(ra, rb);
  }
  EXPECT_TRUE(b.allDone());
  EXPECT_EQ(serializeGpu(a.gpu()), serializeGpu(b.gpu()));
}

TEST(ForkResim, MalformedSnapshotBlobsAreDataErrors) {
  const std::string blob = serializeGpu(makeGpu("spmv"));
  EXPECT_THROW(static_cast<void>(deserializeGpu(std::string_view{})),
               DataError);
  EXPECT_THROW(static_cast<void>(deserializeGpu(
                   std::string_view(blob).substr(0, blob.size() / 2))),
               DataError);
  EXPECT_THROW(static_cast<void>(deserializeGpu(blob + "x")), DataError);
}

TEST(ForkResim, WindowedAdvanceEqualsOneLongRun) {
  const PcstallFactory factory(VfTable::titanX(), PcstallConfig{});
  const Gpu start = makeGpu("hotspot");
  const std::vector<VfLevel> initial(
      static_cast<std::size_t>(start.numClusters()),
      start.vfTable().defaultLevel());

  engine::GpuBranch windowed(start, factory, initial);
  engine::GpuBranch straight(start, factory, initial);

  while (!windowed.done()) windowed.advance(3);
  const RunResult one = straight.advance(1 << 20);

  // Same governors, same seed levels: advancing in windows of 3 lands on
  // the exact machine one unbounded run produces.
  EXPECT_TRUE(straight.done());
  EXPECT_GT(one.epochs, 0);
  EXPECT_EQ(serializeGpu(windowed.gpu()), serializeGpu(straight.gpu()));
}

TEST(ForkResim, KeyframeCaptureContractsAreEnforced) {
  const PcstallFactory factory(VfTable::titanX(), PcstallConfig{});
  std::vector<engine::TraceKeyframe> keyframes;

  // Capture without a destination vector.
  {
    engine::SimBackend backend(makeGpu("spmv"));
    engine::LoopConfig cfg;
    cfg.max_time_ns = kNsPerMs;
    cfg.keyframe_every = 8;
    EXPECT_THROW(static_cast<void>(engine::EpochLoop(cfg).run(
                     backend, backend, factory, "pcstall")),
                 ContractError);
  }
  // Capture from a machine-less source (replay has no live Gpu).
  {
    const engine::EpochTrace trace = recordTrace("spmv");
    engine::ReplayBackend backend(trace);
    engine::LoopConfig cfg;
    cfg.max_time_ns = kNsPerMs;
    cfg.keyframe_every = 8;
    cfg.keyframes = &keyframes;
    EXPECT_THROW(static_cast<void>(engine::EpochLoop(cfg).run(
                     backend, backend, factory, "pcstall")),
                 ContractError);
  }
  // Chip-wide mode supports neither keyframes nor shared level state.
  {
    engine::SimBackend backend(makeGpu("spmv"));
    engine::LoopConfig cfg;
    cfg.max_time_ns = kNsPerMs;
    cfg.chip_wide = true;
    cfg.keyframe_every = 8;
    cfg.keyframes = &keyframes;
    EXPECT_THROW(static_cast<void>(engine::EpochLoop(cfg).run(
                     backend, backend, factory, "pcstall")),
                 ContractError);
  }
  // levels_io must carry one level per cluster.
  {
    engine::SimBackend backend(makeGpu("spmv"));
    std::vector<VfLevel> too_short(1, 0);
    engine::LoopConfig cfg;
    cfg.max_time_ns = kNsPerMs;
    cfg.levels_io = &too_short;
    EXPECT_THROW(static_cast<void>(engine::EpochLoop(cfg).run(
                     backend, backend, factory, "pcstall")),
                 ContractError);
  }
}

}  // namespace
}  // namespace ssm
