// Tests for the second wave of extensions: the power-cap preset scheduler,
// dataset augmentation utilities, and the JSON writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/json_writer.hpp"
#include "core/power_cap.hpp"
#include "datagen/augment.hpp"
#include "datagen/generator.hpp"
#include "workloads/kernel_profile.hpp"

namespace ssm {
namespace {

// ---- JSON writer -----------------------------------------------------------

TEST(Json, EscapesSpecials) {
  EXPECT_EQ(jsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(jsonEscape("plain"), "plain");
}

TEST(Json, WritesNestedDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject()
      .value("name", "ssmdvfs")
      .value("edp", 0.9125)
      .value("epochs", 42)
      .value("ok", true)
      .beginArray("levels");
  w.value(1.0).value(2.0);
  w.endArray().beginObject("nested").value("k", "v").endObject().endObject();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(),
            "{\"name\":\"ssmdvfs\",\"edp\":0.91249999999999998,"
            "\"epochs\":42,\"ok\":true,\"levels\":[1,2],"
            "\"nested\":{\"k\":\"v\"}}");
}

TEST(Json, ArrayOfObjects) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginArray();
  w.beginObject().value("a", 1).endObject();
  w.beginObject().value("a", 2).endObject();
  w.endArray();
  EXPECT_EQ(os.str(), "[{\"a\":1},{\"a\":2}]");
  EXPECT_TRUE(w.complete());
}

TEST(Json, NestingViolationsThrow) {
  std::ostringstream os;
  JsonWriter w(os);
  EXPECT_THROW(w.endObject(), ContractError);          // nothing open
  w.beginObject();
  EXPECT_THROW(w.endArray(), ContractError);           // wrong kind
  EXPECT_THROW(w.value(std::string("x")), ContractError);  // unkeyed in object
  EXPECT_THROW(w.beginArray(), ContractError);         // unkeyed in object
  w.endObject();
  EXPECT_THROW(w.beginObject(), ContractError);        // root already closed
}

// ---- dataset augmentation ----------------------------------------------------

DataPoint mkPoint(const std::string& wl, int level, double loss = 0.1) {
  DataPoint p;
  for (int c = 0; c < kNumCounters; ++c)
    p.counters[static_cast<std::size_t>(c)] = 1.0 + c;
  p.level = level;
  p.perf_loss = loss;
  p.insts_k = 10.0;
  p.workload = wl;
  return p;
}

TEST(Augment, FilterByWorkload) {
  Dataset ds;
  ds.add(mkPoint("a", 0));
  ds.add(mkPoint("b", 1));
  ds.add(mkPoint("a", 2));
  const Dataset kept = filterByWorkload(ds, {"a"}, /*keep=*/true);
  EXPECT_EQ(kept.size(), 2u);
  const Dataset dropped = filterByWorkload(ds, {"a"}, /*keep=*/false);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped.points()[0].workload, "b");
}

TEST(Augment, LeaveWorkloadFoldOutPartitions) {
  Dataset ds;
  for (const char* wl : {"a", "b", "c", "d", "e", "f"})
    for (int i = 0; i < 4; ++i) ds.add(mkPoint(wl, i % 6));
  std::size_t total_held = 0;
  for (int fold = 0; fold < 3; ++fold) {
    const auto [train, held] = leaveWorkloadFoldOut(ds, fold, 3);
    EXPECT_EQ(train.size() + held.size(), ds.size());
    total_held += held.size();
    // A workload is entirely in one side.
    for (const auto& p : held.points())
      for (const auto& q : train.points()) EXPECT_NE(p.workload, q.workload);
  }
  EXPECT_EQ(total_held, ds.size());  // folds cover everything exactly once
  EXPECT_THROW(static_cast<void>(leaveWorkloadFoldOut(ds, 3, 3)),
               ContractError);
}

TEST(Augment, BalanceLabelsEqualizesCounts) {
  Dataset ds;
  for (int i = 0; i < 30; ++i) ds.add(mkPoint("w", 0));
  for (int i = 0; i < 10; ++i) ds.add(mkPoint("w", 1));
  for (int i = 0; i < 20; ++i) ds.add(mkPoint("w", 5));
  const Dataset balanced = balanceLabels(ds, 7);
  const auto counts = labelCounts(balanced, 6);
  EXPECT_EQ(counts[0], 10);
  EXPECT_EQ(counts[1], 10);
  EXPECT_EQ(counts[5], 10);
  // Deterministic.
  const Dataset again = balanceLabels(ds, 7);
  ASSERT_EQ(again.size(), balanced.size());
}

TEST(Augment, NoiseChangesCountersNotLabels) {
  Dataset ds;
  ds.add(mkPoint("w", 3, 0.25));
  const Dataset noisy = injectCounterNoise(ds, 0.05, 11);
  ASSERT_EQ(noisy.size(), 1u);
  EXPECT_EQ(noisy.points()[0].level, 3);
  EXPECT_DOUBLE_EQ(noisy.points()[0].perf_loss, 0.25);
  bool any_changed = false;
  for (int c = 0; c < kNumCounters; ++c)
    any_changed |= noisy.points()[0].counters[static_cast<std::size_t>(c)] !=
                   ds.points()[0].counters[static_cast<std::size_t>(c)];
  EXPECT_TRUE(any_changed);
  // Zero sigma is the identity.
  const Dataset same = injectCounterNoise(ds, 0.0, 11);
  for (int c = 0; c < kNumCounters; ++c)
    EXPECT_DOUBLE_EQ(same.points()[0].counters[static_cast<std::size_t>(c)],
                     ds.points()[0].counters[static_cast<std::size_t>(c)]);
}

TEST(Augment, LabelCountsValidates) {
  Dataset ds;
  ds.add(mkPoint("w", 7));
  EXPECT_THROW(static_cast<void>(labelCounts(ds, 6)), ContractError);
}

// ---- power-cap controller ----------------------------------------------------

TEST(PowerCap, ValidatesConfig) {
  PowerCapConfig bad;
  bad.cap_w = 0.0;
  EXPECT_THROW(PowerCapController{bad}, ContractError);
  bad = PowerCapConfig{};
  bad.preset_min = 0.5;
  bad.preset_max = 0.1;
  EXPECT_THROW(PowerCapController{bad}, ContractError);
}

TEST(PowerCap, RaisesPresetUnderViolationRelaxesUnderCap) {
  PowerCapConfig cfg;
  cfg.cap_w = 100.0;
  PowerCapController ctl(cfg);
  EXPECT_DOUBLE_EQ(ctl.preset(), 0.0);
  const double p1 = ctl.onEpoch(150.0);  // 50 W over
  EXPECT_GT(p1, 0.0);
  const double p2 = ctl.onEpoch(150.0);
  EXPECT_GT(p2, p1);
  const double p3 = ctl.onEpoch(50.0);  // under the cap: relax
  EXPECT_LT(p3, p2);
  EXPECT_EQ(ctl.violations(), 2);
  EXPECT_EQ(ctl.epochs(), 3);
  ctl.reset();
  EXPECT_DOUBLE_EQ(ctl.preset(), 0.0);
  EXPECT_EQ(ctl.violations(), 0);
}

TEST(PowerCap, PresetStaysWithinBounds) {
  PowerCapConfig cfg;
  cfg.cap_w = 100.0;
  cfg.preset_max = 0.30;
  PowerCapController ctl(cfg);
  for (int i = 0; i < 1000; ++i) ctl.onEpoch(500.0);
  EXPECT_DOUBLE_EQ(ctl.preset(), 0.30);
  for (int i = 0; i < 10000; ++i) ctl.onEpoch(10.0);
  EXPECT_GE(ctl.preset(), 0.0);
}

/// End-to-end: capping a compute-heavy program must reduce mean power
/// toward the cap at some latency cost. Uses a quickly-trained model.
TEST(PowerCap, CappedRunReducesMeanPower) {
  GpuConfig gpu;
  gpu.num_clusters = 8;
  GenConfig gen;
  gen.runs_per_workload = 1;
  gen.clusters_sampled = 8;
  gen.epochs_per_breakpoint = 6;
  const DataGenerator dg(gpu, VfTable::titanX(), gen);
  Dataset corpus = dg.generateForWorkload(workloadByName("sgemm"), 5, 0);
  corpus.append(dg.generateForWorkload(workloadByName("spmv"), 5, 1));
  auto [train, hold] = corpus.split(0.8, 3);
  SsmModelConfig mcfg;
  mcfg.train.epochs = 200;
  auto model = std::make_shared<SsmModel>(mcfg);
  model->train(train, hold);

  Gpu machine(gpu, VfTable::titanX(), workloadByName("sgemm"), 21,
              ChipPowerModel(gpu.num_clusters));
  const RunResult base = runBaseline(machine);
  const double base_power =
      base.energy_j / secondsOf(base.exec_time_ns);

  PowerCapConfig cap;
  cap.cap_w = base_power * 0.85;  // force a meaningful cap
  cap.ki = 0.004;
  const PowerCapRunResult capped =
      runWithPowerCap(machine, model, cap);

  EXPECT_LT(capped.mean_power_w, base_power);
  EXPECT_GT(capped.final_preset, 0.0);
  EXPECT_GT(capped.run.exec_time_ns, base.exec_time_ns);  // paid in latency
}

/// The pre-engine runWithPowerCap loop, transcribed verbatim from
/// src/core/power_cap.cpp as it stood before the capped run moved onto
/// engine::EpochLoop. Any divergence in accumulator order, preset timing or
/// histogram math shows up as a failed exact comparison.
PowerCapRunResult refRunWithPowerCap(Gpu gpu,
                                     std::shared_ptr<const SsmModel> model,
                                     const PowerCapConfig& cap_cfg,
                                     SsmGovernorConfig governor_cfg = {},
                                     TimeNs max_time_ns = 5 * kNsPerMs) {
  PowerCapController controller(cap_cfg);
  governor_cfg.loss_preset = std::max(controller.preset(), 1e-6);

  const int n = gpu.numClusters();
  std::vector<std::unique_ptr<SsmdvfsGovernor>> governors;
  governors.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    governors.push_back(
        std::make_unique<SsmdvfsGovernor>(model, governor_cfg));

  std::vector<VfLevel> levels(static_cast<std::size_t>(n),
                              gpu.vfTable().defaultLevel());
  std::vector<double> level_epochs(gpu.vfTable().size(), 0.0);

  PowerCapRunResult out;
  out.run.mechanism = "ssmdvfs+powercap";
  double power_sum = 0.0;
  int over_cap = 0;

  while (!gpu.allDone() && gpu.nowNs() < max_time_ns) {
    const GpuEpochReport report = gpu.runEpoch(levels);
    ++out.run.epochs;
    power_sum += report.chip_power_w;
    out.max_power_w = std::max(out.max_power_w, report.chip_power_w);
    over_cap += report.chip_power_w > cap_cfg.cap_w;

    const double preset =
        std::max(controller.onEpoch(report.chip_power_w), 1e-6);
    for (int i = 0; i < n; ++i) {
      auto& gov = governors[static_cast<std::size_t>(i)];
      gov->setLossPreset(preset);
      const auto& obs = report.clusters[static_cast<std::size_t>(i)];
      level_epochs[static_cast<std::size_t>(obs.level)] += 1.0;
      levels[static_cast<std::size_t>(i)] =
          gpu.vfTable().clamp(gov->decide(obs));
    }
    if (report.all_done) break;
  }
  SSM_CHECK(gpu.allDone(), "capped run did not retire; raise max_time_ns");

  out.run.exec_time_ns = gpu.finishTimeNs();
  out.run.energy_j = gpu.totalEnergyJ();
  out.run.edp = gpu.edp();
  out.run.instructions = gpu.totalInstructions();
  out.mean_power_w =
      out.run.epochs > 0 ? power_sum / out.run.epochs : 0.0;
  out.run.mean_power_w = out.mean_power_w;
  out.violation_frac =
      out.run.epochs > 0
          ? static_cast<double>(over_cap) / out.run.epochs
          : 0.0;
  out.final_preset = controller.preset();
  const double total = static_cast<double>(out.run.epochs) * n;
  out.run.level_histogram.resize(level_epochs.size());
  for (std::size_t l = 0; l < level_epochs.size(); ++l)
    out.run.level_histogram[l] =
        total > 0 ? level_epochs[l] / total : 0.0;
  return out;
}

/// The capped run on EpochLoop reproduces the pre-engine loop bit for bit:
/// two workloads, each under a tight and a loose cap.
TEST(PowerCap, EpochLoopMatchesPreEngineReference) {
  GpuConfig gpu;
  gpu.num_clusters = 4;
  GenConfig gen;
  gen.runs_per_workload = 1;
  gen.clusters_sampled = 4;
  gen.epochs_per_breakpoint = 6;
  const DataGenerator dg(gpu, VfTable::titanX(), gen);
  Dataset corpus = dg.generateForWorkload(workloadByName("sgemm"), 5, 0);
  corpus.append(dg.generateForWorkload(workloadByName("spmv"), 5, 1));
  auto [train, hold] = corpus.split(0.8, 3);
  SsmModelConfig mcfg;
  mcfg.train.epochs = 60;
  auto model = std::make_shared<SsmModel>(mcfg);
  model->train(train, hold);

  for (const char* workload : {"sgemm", "spmv"}) {
    const Gpu machine(gpu, VfTable::titanX(), workloadByName(workload), 21,
                      ChipPowerModel(gpu.num_clusters));
    const RunResult base = runBaseline(machine);
    const double base_power = base.energy_j / secondsOf(base.exec_time_ns);
    for (const double frac : {0.8, 0.95}) {
      PowerCapConfig cap;
      cap.cap_w = base_power * frac;
      cap.ki = 0.004;
      const PowerCapRunResult want = refRunWithPowerCap(machine, model, cap);
      const PowerCapRunResult got = runWithPowerCap(machine, model, cap);
      SCOPED_TRACE(std::string(workload) + " cap fraction " +
                   std::to_string(frac));
      EXPECT_GT(want.violation_frac, 0.0);
      EXPECT_EQ(got.run.workload, want.run.workload);
      EXPECT_EQ(got.run.mechanism, want.run.mechanism);
      EXPECT_EQ(got.run.exec_time_ns, want.run.exec_time_ns);
      EXPECT_EQ(got.run.energy_j, want.run.energy_j);
      EXPECT_EQ(got.run.edp, want.run.edp);
      EXPECT_EQ(got.run.instructions, want.run.instructions);
      EXPECT_EQ(got.run.epochs, want.run.epochs);
      EXPECT_EQ(got.run.mean_power_w, want.run.mean_power_w);
      EXPECT_EQ(got.run.level_histogram, want.run.level_histogram);
      EXPECT_EQ(got.run.peak_temp_c, want.run.peak_temp_c);
      EXPECT_EQ(got.run.throttle_epochs, want.run.throttle_epochs);
      EXPECT_EQ(got.mean_power_w, want.mean_power_w);
      EXPECT_EQ(got.max_power_w, want.max_power_w);
      EXPECT_EQ(got.violation_frac, want.violation_frac);
      EXPECT_EQ(got.final_preset, want.final_preset);
    }
  }
}

TEST(PowerCap, RequiresTrainedModel) {
  GpuConfig gpu;
  gpu.num_clusters = 2;
  Gpu machine(gpu, VfTable::titanX(), workloadByName("spmv"), 1,
              ChipPowerModel(2));
  EXPECT_THROW(static_cast<void>(runWithPowerCap(
                   machine, std::make_shared<SsmModel>(), PowerCapConfig{})),
               ContractError);
}

}  // namespace
}  // namespace ssm
