// Determinism tests for the fleet-execution subsystem (src/sched/fleet) and
// the parallel datagen path: results and serialized output must be
// byte-identical for any --jobs value, and job expansion must follow the
// documented workload-major order with coordinate-keyed seeds.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/ondemand.hpp"
#include "baselines/pcstall.hpp"
#include "common/check.hpp"
#include "compress/pruning.hpp"
#include "datagen/generator.hpp"
#include "engine/epoch_loop.hpp"
#include "engine/replay_backend.hpp"
#include "engine/sim_backend.hpp"
#include "engine/trace_io.hpp"
#include "gpusim/trace.hpp"
#include "sched/fleet.hpp"
#include "sched/thread_pool.hpp"
#include "workloads/kernel_profile.hpp"

namespace ssm {
namespace {

/// A cheap sweep: two real workloads, three mechanisms, short horizon.
fleet::SweepSpec smallSpec() {
  fleet::SweepSpec spec;
  spec.workloads = {workloadByName("spmv"), workloadByName("bfs")};
  spec.mechanisms = {"baseline", "static-2", "ondemand"};
  spec.presets = {0.10};
  spec.seeds = {777, 1234};
  spec.max_time_ns = kNsPerMs;  // 100 epochs per job
  return spec;
}

TEST(FleetExpand, WorkloadMajorOrderAndCoordinateKeyedSeeds) {
  const auto spec = smallSpec();
  const auto jobs = fleet::expandJobs(spec);
  ASSERT_EQ(jobs.size(), 2u * 3u * 1u * 2u);
  // Expansion is workload-major, then mechanism, preset, seed.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(jobs[j].index, j);
    const std::size_t expect_w = j / 6;  // 3 mech × 1 preset × 2 seeds
    EXPECT_EQ(jobs[j].workload, expect_w);
  }
  // sim_seed depends only on (workload, sweep seed): every mechanism and
  // preset sees the identical simulation, so baselines line up.
  for (const auto& a : jobs) {
    for (const auto& b : jobs) {
      if (a.workload == b.workload && a.seed == b.seed) {
        EXPECT_EQ(a.sim_seed, b.sim_seed);
      }
    }
  }
  // ...and distinct coordinates get distinct streams.
  EXPECT_NE(jobs[0].sim_seed, jobs[6].sim_seed);   // other workload
  EXPECT_NE(jobs[0].sim_seed, jobs[1].sim_seed);   // other sweep seed
}

TEST(FleetExpand, EmptyAxisIsAContractViolation) {
  auto spec = smallSpec();
  spec.mechanisms.clear();
  EXPECT_THROW(static_cast<void>(fleet::expandJobs(spec)), ContractError);
}

TEST(FleetFactory, MechanismVocabulary) {
  const VfTable vf = VfTable::titanX();
  // "baseline" is the static-default policy, a factory like any other.
  const auto baseline =
      fleet::makeGovernorFactory("baseline", vf, 0.1, nullptr);
  ASSERT_NE(baseline, nullptr);
  for (int cluster : {0, 5}) {
    const auto gov = baseline->create(cluster);
    EXPECT_EQ(gov->decide(EpochObservation{}), vf.defaultLevel());
  }
  EXPECT_NE(fleet::makeGovernorFactory("static-2", vf, 0.1, nullptr), nullptr);
  EXPECT_NE(fleet::makeGovernorFactory("pcstall", vf, 0.1, nullptr), nullptr);
  EXPECT_NE(fleet::makeGovernorFactory("flemma", vf, 0.1, nullptr), nullptr);
  EXPECT_NE(fleet::makeGovernorFactory("ondemand", vf, 0.1, nullptr), nullptr);
  EXPECT_THROW(static_cast<void>(
                   fleet::makeGovernorFactory("warp-drive", vf, 0.1, nullptr)),
               DataError);
  // The ML mechanisms need a model.
  EXPECT_THROW(static_cast<void>(
                   fleet::makeGovernorFactory("ssmdvfs", vf, 0.1, nullptr)),
               DataError);
}

TEST(FleetRunner, JsonlByteIdenticalAcrossJobCounts) {
  const auto spec = smallSpec();
  std::string serial, parallel;
  {
    ThreadPool pool(1);
    std::ostringstream os;
    const std::size_t n = fleet::FleetRunner(spec, pool).runJsonl(os);
    EXPECT_EQ(n, 12u);
    serial = os.str();
  }
  {
    ThreadPool pool(8);
    std::ostringstream os;
    const std::size_t n = fleet::FleetRunner(spec, pool).runJsonl(os);
    EXPECT_EQ(n, 12u);
    parallel = os.str();
  }
  EXPECT_EQ(serial, parallel);
  // Sanity: the stream really is one JSON object per job line.
  EXPECT_NE(serial.find("\"mechanism\":\"ondemand\""), std::string::npos);
}

TEST(FleetRunner, PackedSweepByteIdenticalAcrossJobCounts) {
  // The ML mechanisms decide through the compiled PackedMlp engines
  // (src/nn/packed_mlp.hpp). Train a quick compressed model, prune it so
  // the Decision-maker lowers to CSR, and sweep ssmdvfs + ssmdvfs-nocal
  // with 1 and 8 workers: the JSONL streams must be byte-identical,
  // proving every per-cluster packed decision is reproducible regardless
  // of scheduling.
  GpuConfig gpu;
  gpu.num_clusters = 4;
  GenConfig gen;
  gen.runs_per_workload = 1;
  gen.clusters_sampled = 4;
  gen.epochs_per_breakpoint = 6;
  const DataGenerator dg(gpu, VfTable::titanX(), gen);
  Dataset corpus = dg.generateForWorkload(workloadByName("sgemm"), 31, 0);
  corpus.append(dg.generateForWorkload(workloadByName("spmv"), 32, 1));

  SsmModelConfig cfg = SsmModelConfig::compressedArch();
  cfg.train.epochs = 120;
  const auto model = std::make_shared<SsmModel>(cfg);
  static_cast<void>(model->train(corpus, corpus));
  magnitudePruneTo(model->decisionNet(), 0.6);
  model->recompilePacked();
  ASSERT_TRUE(model->packedDecision().compiled());
  ASSERT_GT(model->packedDecision().sparseLayerCount(), 0u);

  fleet::SweepSpec spec;
  spec.workloads = {workloadByName("spmv"), workloadByName("bfs")};
  spec.mechanisms = {"ssmdvfs", "ssmdvfs-nocal"};
  spec.presets = {0.10};
  spec.seeds = {777};
  spec.max_time_ns = kNsPerMs;
  spec.gpu = gpu;
  spec.model = model;

  std::string serial, parallel;
  {
    ThreadPool pool(1);
    std::ostringstream os;
    const std::size_t n = fleet::FleetRunner(spec, pool).runJsonl(os);
    EXPECT_EQ(n, 4u);
    serial = os.str();
  }
  {
    ThreadPool pool(8);
    std::ostringstream os;
    const std::size_t n = fleet::FleetRunner(spec, pool).runJsonl(os);
    EXPECT_EQ(n, 4u);
    parallel = os.str();
  }
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"mechanism\":\"ssmdvfs\""), std::string::npos);
}

TEST(FleetRunner, RunMatchesJsonlAndReportsProgress) {
  const auto spec = smallSpec();
  ThreadPool pool(4);
  const fleet::FleetRunner runner(spec, pool);
  std::size_t calls = 0, last_done = 0;
  const auto results = runner.run([&](std::size_t done, std::size_t total) {
    ++calls;
    EXPECT_EQ(total, 12u);
    EXPECT_GT(done, last_done);  // done is monotonic under the collector lock
    last_done = done;
  });
  ASSERT_EQ(results.size(), 12u);
  EXPECT_EQ(calls, 12u);
  for (std::size_t j = 0; j < results.size(); ++j)
    EXPECT_EQ(results[j].job.index, j);  // returned in job-index order
  // run() and runJsonl() serialize identically.
  std::ostringstream direct;
  for (const auto& r : results) direct << fleet::toJsonLine(spec, r) << '\n';
  std::ostringstream streamed;
  static_cast<void>(runner.runJsonl(streamed));
  EXPECT_EQ(direct.str(), streamed.str());
}

TEST(FleetRunner, UnknownMechanismFailsFastAtConstruction) {
  auto spec = smallSpec();
  spec.mechanisms = {"baseline", "warp-drive"};
  ThreadPool pool(2);
  EXPECT_THROW(fleet::FleetRunner(spec, pool), DataError);
}

TEST(FleetCsv, HeaderAndRowCount) {
  const auto spec = smallSpec();
  ThreadPool pool(4);
  const auto results = fleet::FleetRunner(spec, pool).run();
  std::ostringstream os;
  fleet::writeCsv(spec, results, os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "workload,mechanism,preset,seed,exec_time_us,energy_mj,edp_uj_s,"
            "epochs,edp_ratio,latency_ratio");
  std::size_t lines = 0;
  for (char c : csv)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 1u + results.size());
}

/// Records one workload under pcstall, full capture, for the replay sweeps.
std::shared_ptr<const engine::EpochTrace> recordReplayTrace(
    const std::string& workload) {
  const GpuConfig cfg;
  const VfTable vf = VfTable::titanX();
  const PcstallFactory factory(vf, PcstallConfig{});
  EpochTraceRecorder rec;
  rec.enableReplayCapture();
  Gpu gpu(cfg, vf, workloadByName(workload), 777,
          ChipPowerModel(cfg.num_clusters));
  const RunResult recorded =
      runWithGovernor(std::move(gpu), factory, "pcstall", kNsPerMs, &rec);
  return std::make_shared<const engine::EpochTrace>(engine::traceFromRecorder(
      rec, workload, "pcstall", 777, vf, recorded));
}

TEST(FleetReplay, JsonlByteIdenticalAcrossJobCounts) {
  fleet::SweepSpec spec;
  spec.replay = {recordReplayTrace("spmv"), recordReplayTrace("bfs")};
  spec.mechanisms = {"baseline", "pcstall", "ondemand"};
  spec.seeds = {777};

  std::string serial, parallel;
  {
    ThreadPool pool(1);
    std::ostringstream os;
    const std::size_t n = fleet::FleetRunner(spec, pool).runJsonl(os);
    EXPECT_EQ(n, 6u);
    serial = os.str();
  }
  {
    ThreadPool pool(8);
    std::ostringstream os;
    const std::size_t n = fleet::FleetRunner(spec, pool).runJsonl(os);
    EXPECT_EQ(n, 6u);
    parallel = os.str();
  }
  EXPECT_EQ(serial, parallel);
  // Replay rows carry the provenance and agreement columns; the same-policy
  // cell agrees with its own recording on every decision.
  EXPECT_NE(serial.find("\"replay_of\":\"pcstall\""), std::string::npos);
  EXPECT_NE(serial.find("\"agreement\":1"), std::string::npos);
}

TEST(FleetReplay, WorkloadAndFaultAxesAreRejected) {
  fleet::SweepSpec spec;
  spec.replay = {recordReplayTrace("spmv")};
  spec.mechanisms = {"ondemand"};
  // Both stream sources at once is a contract violation...
  spec.workloads = {workloadByName("bfs")};
  EXPECT_THROW(static_cast<void>(fleet::expandJobs(spec)), ContractError);
  spec.workloads.clear();
  // ...and fault injection is closed-loop, so replay refuses it.
  spec.faults = {faults::FaultSpec::parse("dropout:p=0.5,mode=zero")};
  EXPECT_THROW(static_cast<void>(fleet::expandJobs(spec)), ContractError);
}

/// The §III.A corpus must not depend on how many lanes generated it.
TEST(DatagenParallel, CorpusMatchesSerialExactly) {
  GenConfig cfg;
  cfg.runs_per_workload = 2;
  cfg.max_program_ns = kNsPerMs;  // keep the protocol short
  const DataGenerator gen(GpuConfig{}, VfTable::titanX(), cfg);
  const std::vector<KernelProfile> workloads = {workloadByName("spmv"),
                                                workloadByName("bfs")};

  const Dataset serial = gen.generate(workloads, nullptr);
  ThreadPool pool(8);
  const Dataset parallel = gen.generate(workloads, &pool);

  ASSERT_GT(serial.size(), 0u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const DataPoint& a = serial.points()[i];
    const DataPoint& b = parallel.points()[i];
    EXPECT_EQ(a.workload, b.workload) << i;
    EXPECT_EQ(a.level, b.level) << i;
    EXPECT_EQ(a.perf_loss, b.perf_loss) << i;    // bitwise, not approximate
    EXPECT_EQ(a.insts_k, b.insts_k) << i;
    EXPECT_EQ(a.counters, b.counters) << i;
  }
}

/// Single-workload path: per-breakpoint replay parallelism is also exact.
TEST(DatagenParallel, SingleWorkloadReplaysMatchSerial) {
  GenConfig cfg;
  cfg.max_program_ns = kNsPerMs;
  const DataGenerator gen(GpuConfig{}, VfTable::titanX(), cfg);
  const KernelProfile& kernel = workloadByName("hotspot");

  const Dataset serial = gen.generateForWorkload(kernel, 42, 0, nullptr);
  ThreadPool pool(8);
  const Dataset parallel = gen.generateForWorkload(kernel, 42, 0, &pool);

  ASSERT_GT(serial.size(), 0u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const DataPoint& a = serial.points()[i];
    const DataPoint& b = parallel.points()[i];
    EXPECT_EQ(a.level, b.level) << i;
    EXPECT_EQ(a.perf_loss, b.perf_loss) << i;
    EXPECT_EQ(a.insts_k, b.insts_k) << i;
    EXPECT_EQ(a.counters, b.counters) << i;
  }
}

// --- counterfactual replay (closed-loop fork-resimulate) ------------------
// These suites run under tsan in CI (ctest regex ^(...|Counterfactual)), so
// any data race in the fork engine or the counterfactual fleet path shows up
// here.

/// Like recordReplayTrace, but with a Gpu keyframe every `every` epochs —
/// what `ssmdvfs record --keyframe-every` produces.
std::shared_ptr<const engine::EpochTrace> recordKeyframedReplayTrace(
    const std::string& workload, std::int64_t every) {
  const GpuConfig cfg;
  const VfTable vf = VfTable::titanX();
  const PcstallFactory factory(vf, PcstallConfig{});
  EpochTraceRecorder rec;
  rec.enableReplayCapture();
  std::vector<engine::TraceKeyframe> keyframes;
  engine::SimBackend backend(Gpu(cfg, vf, workloadByName(workload), 777,
                                 ChipPowerModel(cfg.num_clusters)));
  engine::LoopConfig lc;
  lc.max_time_ns = kNsPerMs;
  lc.trace = &rec;
  lc.keyframe_every = every;
  lc.keyframes = &keyframes;
  const RunResult recorded =
      engine::EpochLoop(lc).run(backend, backend, factory, "pcstall");
  engine::EpochTrace trace =
      engine::traceFromRecorder(rec, workload, "pcstall", 777, vf, recorded);
  trace.keyframes = std::move(keyframes);
  return std::make_shared<const engine::EpochTrace>(std::move(trace));
}

TEST(CounterfactualReplay, SamePolicyHasZeroDeltas) {
  const auto trace = recordKeyframedReplayTrace("spmv", 16);
  const PcstallFactory factory(trace->vf, PcstallConfig{});
  engine::ReplayOptions opts;
  opts.counterfactual = true;
  const engine::ReplayReport rep =
      engine::replayTrace(*trace, factory, "pcstall", opts);
  EXPECT_EQ(rep.agreement, 1.0);
  EXPECT_EQ(rep.divergent_epochs, 0);
  EXPECT_EQ(rep.divergent_windows, 0);
  EXPECT_EQ(rep.resim_epochs, 0);
  EXPECT_EQ(rep.unmatched_windows, 0);
  EXPECT_EQ(rep.energy_delta_mj, 0.0);
  EXPECT_EQ(rep.latency_delta_ns, 0.0);
  EXPECT_EQ(rep.edp_delta_pct, 0.0);
}

TEST(CounterfactualReplay, DivergentPolicyMeasuresDeterministicDeltas) {
  const auto trace = recordKeyframedReplayTrace("spmv", 16);
  const OndemandFactory factory(trace->vf);
  engine::ReplayOptions opts;
  opts.counterfactual = true;
  const engine::ReplayReport a =
      engine::replayTrace(*trace, factory, "ondemand", opts);
  EXPECT_GT(a.divergent_epochs, 0);
  EXPECT_GT(a.divergent_windows, 0);
  EXPECT_GT(a.resim_epochs, 0);
  EXPECT_NE(a.edp_delta_pct, 0.0);
  // A what-if is only useful if it is reproducible: a second resimulation
  // of the same trace lands on bit-identical deltas.
  const engine::ReplayReport b =
      engine::replayTrace(*trace, factory, "ondemand", opts);
  EXPECT_EQ(a.divergent_epochs, b.divergent_epochs);
  EXPECT_EQ(a.divergent_windows, b.divergent_windows);
  EXPECT_EQ(a.resim_epochs, b.resim_epochs);
  EXPECT_EQ(a.unmatched_windows, b.unmatched_windows);
  EXPECT_EQ(a.energy_delta_mj, b.energy_delta_mj);
  EXPECT_EQ(a.latency_delta_ns, b.latency_delta_ns);
  EXPECT_EQ(a.edp_delta_pct, b.edp_delta_pct);
}

TEST(CounterfactualReplay, RejectsUnkeyframedTraces) {
  const auto trace = recordReplayTrace("spmv");
  const PcstallFactory factory(trace->vf, PcstallConfig{});
  engine::ReplayOptions opts;
  opts.counterfactual = true;
  EXPECT_THROW(
      static_cast<void>(engine::replayTrace(*trace, factory, "pcstall", opts)),
      DataError);
}

TEST(CounterfactualSweep, JsonlByteIdenticalAcrossJobCounts) {
  fleet::SweepSpec spec;
  spec.replay = {recordKeyframedReplayTrace("spmv", 16),
                 recordKeyframedReplayTrace("bfs", 16)};
  spec.mechanisms = {"baseline", "pcstall", "ondemand"};
  spec.seeds = {777};
  spec.counterfactual = true;

  std::string serial, parallel;
  {
    ThreadPool pool(1);
    std::ostringstream os;
    const std::size_t n = fleet::FleetRunner(spec, pool).runJsonl(os);
    EXPECT_EQ(n, 6u);
    serial = os.str();
  }
  {
    ThreadPool pool(8);
    std::ostringstream os;
    const std::size_t n = fleet::FleetRunner(spec, pool).runJsonl(os);
    EXPECT_EQ(n, 6u);
    parallel = os.str();
  }
  EXPECT_EQ(serial, parallel);
  // Counterfactual rows carry the delta columns; the divergent ondemand
  // cells report resimulated windows.
  EXPECT_NE(serial.find("\"divergent_windows\":"), std::string::npos);
  EXPECT_NE(serial.find("\"edp_delta_pct\":"), std::string::npos);
}

TEST(CounterfactualSweep, RequiresReplayModeAndKeyframedTraces) {
  // Counterfactual without --replay is an API misuse...
  {
    auto spec = smallSpec();
    spec.counterfactual = true;
    EXPECT_THROW(static_cast<void>(fleet::expandJobs(spec)), ContractError);
  }
  // ...and an unkeyframed trace is a data problem caught at expansion, not
  // halfway through the sweep.
  {
    fleet::SweepSpec spec;
    spec.replay = {recordReplayTrace("spmv")};
    spec.mechanisms = {"ondemand"};
    spec.seeds = {777};
    spec.counterfactual = true;
    EXPECT_THROW(static_cast<void>(fleet::expandJobs(spec)), DataError);
  }
}

}  // namespace
}  // namespace ssm
