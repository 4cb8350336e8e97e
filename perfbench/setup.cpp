// Set-up: the benchmark's own SSMDVFS model, built from scratch every run
// (no ssm_artifacts cache) on a reduced, fixed corpus, so set-up time is one
// cold build and never a cache hit.
#include <sstream>

#include "compress/pruning.hpp"
#include "datagen/generator.hpp"
#include "flows.hpp"
#include "sched/thread_pool.hpp"
#include "tracer.hpp"
#include "workloads/kernel_profile.hpp"

namespace perfbench {
namespace {

/// FNV-1a 64 of serializeModel() for the model below. Every run governs
/// with this exact model; a build that yields another one is a failed
/// operation (a numerics change in datagen, nn or compress shows here).
constexpr const char* kExpectedModelDigest = "54851981c2e2ecec";

/// Four of the training programs, one seeded execution each, with sparser
/// breakpoints and a shorter collection horizon than the §V pipeline.
ssm::Dataset generateCorpus(ssm::ThreadPool* pool) {
  ssm::GenConfig gen;
  gen.epochs_per_breakpoint = 16;
  gen.horizon_epochs = 4;
  gen.runs_per_workload = 1;
  std::vector<ssm::KernelProfile> corpus;
  for (const ssm::KernelProfile& k : ssm::trainingWorkloads())
    if (k.name == "bfs" || k.name == "atax" || k.name == "gesummv" ||
        k.name == "histo")
      corpus.push_back(k);
  const ssm::DataGenerator generator(ssm::GpuConfig{}, ssm::VfTable::titanX(),
                                     gen);
  return generator.generate(corpus, pool);
}

struct Build {
  std::shared_ptr<ssm::SsmModel> model;
  std::size_t rows = 0;
  double generate_s = 0.0;
  double train_s = 0.0;
  double prune_s = 0.0;
};

Build buildModel(const Env& env) {
  Build b;
  Clock::time_point t = Clock::now();
  ssm::Dataset all = [&] {
    const Scope s(env.tracer, "datagen.generate");
    ssm::ThreadPool pool(env.workers);
    return generateCorpus(&pool);
  }();
  b.generate_s = secondsSince(t);
  b.rows = all.size();
  auto [train, holdout] = all.split(0.75, 0x5117ULL);

  ssm::SsmModelConfig cfg = ssm::SsmModelConfig::compressedArch();
  cfg.train.epochs = 150;
  b.model = std::make_shared<ssm::SsmModel>(cfg);
  t = Clock::now();
  {
    const Scope s(env.tracer, "nn.train");
    (void)b.model->train(train, holdout);
  }
  b.train_s = secondsSince(t);
  t = Clock::now();
  {
    const Scope s(env.tracer, "compress.prune");
    (void)ssm::pruneAndFinetune(*b.model, train, holdout, ssm::PruneParams{},
                                150);
  }
  b.prune_s = secondsSince(t);
  return b;
}

}  // namespace

SetupResult runSetup(const Env& env, int repeats) {
  SetupResult out;
  std::vector<double> totals;
  Build last;
  for (int r = 0; r < repeats; ++r) {
    if (env.tracer != nullptr) env.tracer->setOp(r);
    const Clock::time_point t0 = Clock::now();
    last = buildModel(env);
    totals.push_back(secondsSince(t0));
    std::ostringstream os;
    ssm::serializeModel(*last.model, os);
    const std::string digest = digestOf(os.str());
    (*env.digests)["model"] = digest;
    env.checks->op(digest == kExpectedModelDigest,
                   "setup: model digest " + digest + ", expected " +
                       kExpectedModelDigest);
  }
  out.model = last.model;
  if (env.tracer == nullptr) {
    out.metrics["setup_s"] = {median(totals), "s"};
  } else {
    out.metrics["datagen.generate_s"] = {last.generate_s, "s"};
    out.metrics["datagen.rows"] = {static_cast<double>(last.rows), "count"};
    out.metrics["nn.train_s"] = {last.train_s, "s"};
    out.metrics["compress.prune_s"] = {last.prune_s, "s"};
  }
  return out;
}

}  // namespace perfbench
