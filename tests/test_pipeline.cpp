// Integration tests for the end-to-end build-up pipeline (Fig. 2):
// data generation -> training -> compression -> pruning, plus the artifact
// caches (dataset CSV + model fingerprinting).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "compress/pipeline.hpp"
#include "core/ssm_governor.hpp"
#include "gpusim/runner.hpp"

namespace ssm {
namespace {

PipelineConfig tinyPipeline(const std::string& cache_dir) {
  PipelineConfig cfg;
  cfg.gpu.num_clusters = 4;
  cfg.gen.runs_per_workload = 1;
  cfg.gen.clusters_sampled = 4;
  cfg.gen.epochs_per_breakpoint = 6;
  cfg.workloads = {workloadByName("sgemm"), workloadByName("spmv"),
                   workloadByName("hotspot"), workloadByName("kmeans")};
  cfg.model.train.epochs = 150;
  cfg.dataset_cache_path = cache_dir + "/corpus.csv";
  cfg.model_cache_dir = cache_dir;
  return cfg;
}

class PipelineTest : public ::testing::Test {
 protected:
  // Each test owns its cache directory, named after the test and the
  // process, so tests running in parallel never share or delete each
  // other's artifacts.
  void SetUp() override {
    dir_ = ::testing::TempDir() + "ssm_pipeline_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(PipelineTest, BuildsTrainsCompressesAndCaches) {
  const PipelineConfig cfg = tinyPipeline(dir_);
  const FullSystem sys = buildFullSystem(cfg);

  ASSERT_NE(sys.uncompressed, nullptr);
  ASSERT_NE(sys.compressed, nullptr);
  EXPECT_TRUE(sys.uncompressed->trained());
  EXPECT_TRUE(sys.compressed->trained());
  EXPECT_FALSE(sys.train.empty());
  EXPECT_FALSE(sys.holdout.empty());

  // Architecture + compression invariants.
  EXPECT_NEAR(static_cast<double>(sys.uncompressed_summary.flops), 6960.0,
              30.0);
  EXPECT_LT(sys.prune_report.after_finetune.flops, 550);
  EXPECT_GT(sys.prune_report.decision.weight_sparsity, 0.5);

  // Artifacts exist.
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/corpus.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/model_uncompressed.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/model_compressed.txt"));
  EXPECT_TRUE(
      std::filesystem::exists(dir_ + "/model_corpus_fingerprint.txt"));

  // Second build must hit the caches and reproduce identical models.
  const FullSystem again = buildFullSystem(cfg);
  EXPECT_EQ(again.uncompressed->flops(), sys.uncompressed->flops());
  EXPECT_NEAR(again.uncompressed_summary.decision_accuracy,
              sys.uncompressed_summary.decision_accuracy, 1e-12);
  EXPECT_NEAR(again.prune_report.after_finetune.calibrator_mape,
              sys.prune_report.after_finetune.calibrator_mape, 1e-12);

  // The cached system must drive a governor end to end.
  Gpu gpu(cfg.gpu, VfTable::titanX(), workloadByName("stencil"), 5,
          ChipPowerModel(cfg.gpu.num_clusters));
  SsmGovernorConfig gcfg;
  gcfg.loss_preset = 0.10;
  const SsmGovernorFactory factory(again.compressed, gcfg);
  const RunResult run = runWithGovernor(gpu, factory, "ssmdvfs-comp");
  EXPECT_GT(run.instructions, 0);
}

TEST_F(PipelineTest, FingerprintInvalidatesStaleModels) {
  PipelineConfig cfg = tinyPipeline(dir_);
  const FullSystem first = buildFullSystem(cfg);
  const auto first_acc = first.uncompressed_summary.decision_accuracy;

  // Change the corpus (different workload mix) but keep the model cache:
  // the fingerprint must force a retrain rather than load stale weights.
  std::filesystem::remove(dir_ + "/corpus.csv");
  cfg.workloads = {workloadByName("bfs"), workloadByName("gemm"),
                   workloadByName("stencil"), workloadByName("mvt")};
  const FullSystem second = buildFullSystem(cfg);
  EXPECT_TRUE(second.uncompressed->trained());
  // Different corpus, so holdout metrics almost surely differ.
  EXPECT_NE(first_acc, second.uncompressed_summary.decision_accuracy);
}

}  // namespace
}  // namespace ssm
