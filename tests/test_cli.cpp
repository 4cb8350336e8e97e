// Integration tests for the ssmdvfs CLI (spawned as a subprocess).
//
// The binary path is injected by CMake as SSM_CLI_PATH. Tests exercise the
// cheap subcommands end-to-end: listing, single-workload data generation,
// training on a small corpus, evaluation, hardware costing and a governed
// run, chained through temporary files exactly as a user would chain them.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace ssm {
namespace {

#ifndef SSM_CLI_PATH
#error "SSM_CLI_PATH must be defined by the build system"
#endif
#ifndef SSM_GOLDEN_DIR
#error "SSM_GOLDEN_DIR must be defined by the build system"
#endif

/// Runs the CLI with `args`, captures stdout(+stderr), returns exit code.
int runCli(const std::string& args, std::string* output) {
  const std::string cmd = std::string(SSM_CLI_PATH) + " " + args + " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  std::array<char, 4096> buf{};
  output->clear();
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr)
    *output += buf.data();
  return pclose(pipe);
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest -j runs CliTest cases concurrently, and a
    // shared dir would let one test's SetUp delete another's files mid-run.
    dir_ = std::string("ssm_test_cli_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CliTest, NoArgsPrintsUsageAndFails) {
  std::string out;
  EXPECT_NE(runCli("", &out), 0);
  EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  std::string out;
  EXPECT_NE(runCli("frobnicate", &out), 0);
}

TEST_F(CliTest, ListWorkloadsShowsRegistry) {
  std::string out;
  ASSERT_EQ(runCli("list-workloads", &out), 0);
  EXPECT_NE(out.find("sgemm"), std::string::npos);
  EXPECT_NE(out.find("polybench"), std::string::npos);
}

TEST_F(CliTest, MissingRequiredArgFails) {
  std::string out;
  EXPECT_NE(runCli("datagen", &out), 0);
  EXPECT_NE(out.find("--out"), std::string::npos);
}

TEST_F(CliTest, FullPipelineChain) {
  std::string out;
  const std::string corpus = dir_ + "/c.csv";
  const std::string model = dir_ + "/m.txt";

  // datagen for one workload.
  ASSERT_EQ(runCli("datagen --out " + corpus + " --workload spmv --seed 3",
                   &out),
            0)
      << out;
  EXPECT_TRUE(std::filesystem::exists(corpus));

  // train a compressed model quickly.
  ASSERT_EQ(runCli("train --data " + corpus + " --out " + model +
                       " --compressed --epochs 120",
                   &out),
            0)
      << out;
  EXPECT_TRUE(std::filesystem::exists(model));
  EXPECT_NE(out.find("accuracy"), std::string::npos);

  // eval round trip.
  ASSERT_EQ(runCli("eval --model " + model + " --data " + corpus, &out), 0)
      << out;
  EXPECT_NE(out.find("MAPE"), std::string::npos);

  // hardware costing.
  ASSERT_EQ(runCli("hw-cost --model " + model, &out), 0) << out;
  EXPECT_NE(out.find("cycles/inference"), std::string::npos);

  // a governed run with a trace.
  const std::string trace = dir_ + "/t.csv";
  ASSERT_EQ(runCli("run --workload spmv --mechanism ssmdvfs --model " +
                       model + " --preset 0.10 --trace " + trace,
                   &out),
            0)
      << out;
  EXPECT_NE(out.find("EDP"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(trace));
}

TEST_F(CliTest, RunBaselineAndStatic) {
  std::string out;
  ASSERT_EQ(runCli("run --workload bfs --mechanism baseline", &out), 0)
      << out;
  ASSERT_EQ(runCli("run --workload bfs --mechanism static-2", &out), 0)
      << out;
  EXPECT_NE(out.find("static-2"), std::string::npos);
  EXPECT_NE(runCli("run --workload bfs --mechanism warp-drive", &out), 0);
}

TEST_F(CliTest, QuantizeReportsDrift) {
  std::string out;
  const std::string corpus = dir_ + "/c.csv";
  const std::string model = dir_ + "/m.txt";
  ASSERT_EQ(runCli("datagen --out " + corpus + " --workload bfs --seed 9",
                   &out),
            0)
      << out;
  ASSERT_EQ(runCli("train --data " + corpus + " --out " + model +
                       " --compressed --epochs 100",
                   &out),
            0)
      << out;
  ASSERT_EQ(runCli("quantize --model " + model + " --data " + corpus, &out),
            0)
      << out;
  EXPECT_NE(out.find("int8"), std::string::npos);
  EXPECT_NE(out.find("int16"), std::string::npos);
  EXPECT_NE(out.find("drift"), std::string::npos);
}

TEST_F(CliTest, ProfileFileWorkloadRuns) {
  std::string out;
  const std::string prof = dir_ + "/custom.prof";
  {
    std::FILE* f = std::fopen(prof.c_str(), "w");
    std::fputs(
        "kernel mykernel demo\n"
        "warps_per_cluster 12\n"
        "phase_loops 2\n"
        "phase ialu=0.3 falu=0.3 sfu=0.0 load=0.2 store=0.05 shared=0.1 "
        "branch=0.05 l1=0.8 l2=0.5 ilp=4 div=0.1 dep=0.25 insts=2000\n"
        "end\n",
        f);
    std::fclose(f);
  }
  ASSERT_EQ(runCli("run --workload mykernel --profile-file " + prof +
                       " --mechanism pcstall --preset 0.10",
                   &out),
            0)
      << out;
  EXPECT_NE(out.find("pcstall"), std::string::npos);
  // Unknown name inside the file must fail cleanly.
  EXPECT_NE(runCli("run --workload nope --profile-file " + prof +
                       " --mechanism baseline",
                   &out),
            0);
}

TEST_F(CliTest, ExplainShowsDecisionBreakdown) {
  std::string out;
  const std::string corpus = dir_ + "/c2.csv";
  const std::string model = dir_ + "/m2.txt";
  ASSERT_EQ(runCli("datagen --out " + corpus + " --workload hotspot --seed 4",
                   &out),
            0)
      << out;
  ASSERT_EQ(runCli("train --data " + corpus + " --out " + model +
                       " --compressed --epochs 80",
                   &out),
            0)
      << out;
  ASSERT_EQ(runCli("explain --model " + model + " --data " + corpus +
                       " --row 3 --preset 0.15",
                   &out),
            0)
      << out;
  EXPECT_NE(out.find("min-frequency decode"), std::string::npos);
  EXPECT_NE(out.find("P(level)"), std::string::npos);
  EXPECT_NE(out.find("est. loss"), std::string::npos);
  // Out-of-range row fails cleanly.
  EXPECT_NE(runCli("explain --model " + model + " --data " + corpus +
                       " --row 999999",
                   &out),
            0);
}

TEST_F(CliTest, RunJsonExport) {
  std::string out;
  const std::string json = dir_ + "/r.json";
  ASSERT_EQ(runCli("run --workload bfs --mechanism pcstall --json " + json,
                   &out),
            0)
      << out;
  ASSERT_TRUE(std::filesystem::exists(json));
  std::ifstream is(json);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"mechanism\":\"pcstall\""), std::string::npos);
  EXPECT_NE(content.find("\"baseline\""), std::string::npos);
  EXPECT_NE(content.find("\"level_histogram\""), std::string::npos);
}

TEST_F(CliTest, OracleEnumeratesLevels) {
  std::string out;
  ASSERT_EQ(runCli("oracle --workload spmv", &out), 0) << out;
  EXPECT_NE(out.find("best EDP"), std::string::npos);
}

/// Reads a whole file; empty string when the file is missing.
std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

TEST_F(CliTest, SweepJsonlIsByteIdenticalAcrossJobCounts) {
  std::string out;
  const std::string serial = dir_ + "/serial.jsonl";
  const std::string parallel = dir_ + "/parallel.jsonl";
  const std::string common =
      "sweep --workloads spmv,bfs --mechanisms baseline,static-2,ondemand "
      "--seeds 777,1234 --max-ms 1 --quiet --out ";
  ASSERT_EQ(runCli(common + serial + " --jobs 1", &out), 0) << out;
  ASSERT_EQ(runCli(common + parallel + " --jobs 8", &out), 0) << out;
  const std::string a = slurp(serial);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(parallel));
  // 2 workloads × 3 mechanisms × 2 seeds = 12 JSONL lines.
  EXPECT_EQ(static_cast<int>(std::count(a.begin(), a.end(), '\n')), 12);
  EXPECT_NE(a.find("\"edp_ratio\""), std::string::npos);
}

TEST_F(CliTest, SweepCsvExportAndBadInputsFail) {
  std::string out;
  const std::string jsonl = dir_ + "/s.jsonl";
  const std::string csv = dir_ + "/s.csv";
  ASSERT_EQ(runCli("sweep --workloads spmv --mechanisms baseline,pcstall "
                   "--max-ms 1 --quiet --out " +
                       jsonl + " --csv " + csv,
                   &out),
            0)
      << out;
  const std::string body = slurp(csv);
  EXPECT_EQ(body.substr(0, body.find(',')), "workload");
  EXPECT_NE(body.find("pcstall"), std::string::npos);
  // Unknown mechanism and unknown workload must fail fast.
  EXPECT_NE(runCli("sweep --workloads spmv --mechanisms warp-drive --out " +
                       jsonl,
                   &out),
            0);
  EXPECT_NE(runCli("sweep --workloads no-such --mechanisms baseline --out " +
                       jsonl,
                   &out),
            0);
  // --out is required.
  EXPECT_NE(runCli("sweep --workloads spmv --mechanisms baseline", &out), 0);
}

TEST_F(CliTest, DcSweepByteIdenticalAndSingleRunReportsHeadlines) {
  std::string out;
  const std::string serial = dir_ + "/dc1.jsonl";
  const std::string parallel = dir_ + "/dc8.jsonl";
  const std::string common =
      "dc --gpus 4 --mix spmv,bfs --traffic \"shape=steady;jobs=4;rate=4\" "
      "--policies least-loaded,deadline-aware --out ";
  ASSERT_EQ(runCli(common + serial + " --jobs 1", &out), 0) << out;
  ASSERT_EQ(runCli(common + parallel + " --jobs 8", &out), 0) << out;
  const std::string a = slurp(serial);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(parallel));
  // 1 traffic × 2 policies × 1 cap × 1 mechanism × 1 seed = 2 JSONL lines.
  EXPECT_EQ(static_cast<int>(std::count(a.begin(), a.end(), '\n')), 2);
  EXPECT_NE(a.find("\"deadline_miss_rate\""), std::string::npos);
  EXPECT_NE(a.find("\"energy_per_job_mj\""), std::string::npos);
  EXPECT_NE(a.find("\"steady_violation_frac\""), std::string::npos);

  // Single-run mode prints the headline metrics for the operator.
  ASSERT_EQ(runCli("dc --gpus 4 --mix spmv "
                   "--traffic \"shape=steady;jobs=4;rate=4\"",
                   &out),
            0)
      << out;
  EXPECT_NE(out.find("deadline_miss_rate"), std::string::npos) << out;
  EXPECT_NE(out.find("energy_per_job"), std::string::npos) << out;
  EXPECT_NE(out.find("rack power"), std::string::npos) << out;

  // Bad inputs fail fast with a diagnostic.
  EXPECT_NE(runCli("dc --mix spmv --policy fastest", &out), 0);
  EXPECT_NE(out.find("error"), std::string::npos) << out;
  EXPECT_NE(runCli("dc --mix spmv --traffic \"shape=lumpy\"", &out), 0);
  EXPECT_NE(out.find("error"), std::string::npos) << out;
  // Multiple cells without --out must refuse (JSONL mode is explicit).
  EXPECT_NE(runCli("dc --mix spmv --policies least-loaded,round-robin", &out),
            0);
}

// Failure paths must exit non-zero with a diagnostic on stderr (runCli
// merges the streams) — never crash, never silently succeed.
TEST_F(CliTest, BadInputsFailWithDiagnostics) {
  std::string out;
  // Unknown mechanism.
  EXPECT_NE(runCli("run --workload bfs --mechanism warp-drive", &out), 0);
  EXPECT_NE(out.find("error"), std::string::npos) << out;
  EXPECT_NE(out.find("warp-drive"), std::string::npos) << out;

  // Empty preset list: the axis parses to zero cells and the sweep must
  // refuse, not run nothing.
  EXPECT_NE(runCli("sweep --workloads spmv --mechanisms baseline "
                   "--presets \"\" --out " +
                       dir_ + "/x.jsonl",
                   &out),
            0);
  EXPECT_NE(out.find("error"), std::string::npos) << out;
  EXPECT_NE(out.find("preset"), std::string::npos) << out;

  // Nonsense --faults specs: unknown clause, out-of-range probability,
  // missing key=value shape.
  for (const std::string bad : {"gremlins:p=1", "noise:p=2", "noise:p"}) {
    EXPECT_NE(runCli("run --workload bfs --mechanism static-2 --faults \"" +
                         bad + "\"",
                     &out),
              0)
        << bad;
    EXPECT_NE(out.find("error"), std::string::npos) << out;
    EXPECT_NE(out.find("bad --faults spec"), std::string::npos) << out;
  }

  // Numeric options parse strictly: junk, trailing junk, out-of-range
  // values and negative seeds are errors, never a silent 0 or a wrap.
  for (const std::string bad :
       {"run --workload bfs --seed -1", "run --workload bfs --seed 12abc",
        "run --workload bfs --preset zero", "run --workload bfs --preset nan",
        "record --workload spmv --out x --clusters 4294967298",
        "dc --mix spmv --seeds 1,-1 --out x.jsonl",
        "dc --mix spmv --gpus 2x", "dc --mix spmv --rack-caps 100,abc",
        "sweep --workloads spmv --mechanisms baseline --seeds 7,x "
        "--out x.jsonl",
        "sweep --workloads spmv --mechanisms baseline --max-ms 1.5 "
        "--out x.jsonl",
        "sweep --workloads spmv --mechanisms baseline "
        "--max-ms 9223372036854775807 --out x.jsonl"}) {
    EXPECT_NE(runCli(bad, &out), 0) << bad;
    EXPECT_NE(out.find("error: --"), std::string::npos) << bad << ": " << out;
  }

  // Grammar values that used to slip through: NaN noise and thermal
  // parameters, and a job count that wrapped to 2.
  for (const std::string bad :
       {"run --workload bfs --mechanism static-2 --faults "
        "\"noise:p=0.5,sigma=nan\"",
        "run --workload bfs --mechanism static-2 --faults "
        "\"jitter:p=0.5,frac=nan\"",
        "run --workload bfs --thermal trip=nan",
        "run --workload bfs --thermal trip=40,hyst=nan",
        "dc --mix spmv --traffic \"shape=steady;jobs=4294967298\""}) {
    EXPECT_NE(runCli(bad, &out), 0) << bad;
    EXPECT_NE(out.find("error: bad --"), std::string::npos)
        << bad << ": " << out;
  }

  // A throttle floor above the V/f table's top level is bad input, not a
  // broken invariant: the run path, the recorder and the rack refuse it.
  for (const std::string& bad :
       {std::string("run --workload bfs --mechanism pcstall --thermal "
                    "floor=20"),
        "record --workload spmv --thermal floor=20 --out " + dir_ +
            "/floor.ssmtrace",
        std::string("dc --gpus 2 --mix spmv --traffic \"shape=steady;jobs=2\" "
                    "--thermal floor=20")}) {
    EXPECT_NE(runCli(bad, &out), 0) << bad;
    EXPECT_NE(out.find("error: bad --thermal spec: floor=20"),
              std::string::npos)
        << bad << ": " << out;
  }
}

// The record/replay goldens of CI, plus a live `run` cell with faults,
// thermal and hardening: every byte must match the committed files.
TEST_F(CliTest, GoldensAreByteIdentical) {
  const std::string golden = SSM_GOLDEN_DIR;
  std::string out;
  const std::string rec = dir_ + "/replay_spmv.ssmtrace";
  ASSERT_EQ(runCli("record --workload spmv --mechanism pcstall --clusters 2 "
                   "--max-ms 1 --seed 777 --out " + rec,
                   &out),
            0)
      << out;
  EXPECT_EQ(slurp(rec), slurp(golden + "/replay_spmv.ssmtrace"));

  const std::string rep = dir_ + "/replay_spmv.json";
  ASSERT_EQ(runCli("replay --trace " + golden +
                       "/replay_spmv.ssmtrace --json " + rep,
                   &out),
            0)
      << out;
  EXPECT_EQ(slurp(rep), slurp(golden + "/replay_spmv.json"));

  const std::string kf = dir_ + "/counterfactual_spmv.ssmtrace";
  ASSERT_EQ(runCli("record --workload spmv --mechanism pcstall --clusters 2 "
                   "--max-ms 1 --seed 777 --keyframe-every 16 --out " + kf,
                   &out),
            0)
      << out;
  EXPECT_EQ(slurp(kf), slurp(golden + "/counterfactual_spmv.ssmtrace"));

  const std::string cf = dir_ + "/counterfactual_spmv.json";
  ASSERT_EQ(runCli("replay --trace " + golden +
                       "/counterfactual_spmv.ssmtrace --mechanism ondemand "
                       "--counterfactual --json " + cf,
                   &out),
            0)
      << out;
  EXPECT_EQ(slurp(cf), slurp(golden + "/counterfactual_spmv.json"));

  const std::string run = dir_ + "/run_bfs_pcstall.json";
  ASSERT_EQ(runCli("run --workload bfs --mechanism pcstall --faults "
                   "\"noise:p=0.3,sigma=0.25;fail:p=0.2\" --thermal "
                   "\"trip=36.5,ptrip=35.5,hyst=1\" --harden --json " + run,
                   &out),
            0)
      << out;
  EXPECT_EQ(slurp(run), slurp(golden + "/run_bfs_pcstall.json"));

  // Two small capped racks: one thermal, one with degraded GPUs running
  // actuator faults. Each arbitration order the rack has had gives the same
  // bytes on these; only a rack both thermal and degraded may differ.
  const std::string rack =
      "dc --gpus 3 --mix spmv --traffic \"shape=bursty;jobs=5;rate=4;"
      "burst=3\" --rack-cap 200 --mechanism pcstall ";
  const std::string thermal = dir_ + "/dc_thermal.jsonl";
  ASSERT_EQ(runCli(rack + "--thermal \"trip=36.5,ptrip=35.5,hyst=1\" --out " +
                       thermal,
                   &out),
            0)
      << out;
  EXPECT_EQ(slurp(thermal), slurp(golden + "/dc_thermal.jsonl"));
  const std::string degraded = dir_ + "/dc_degraded.jsonl";
  ASSERT_EQ(runCli(rack +
                       "--faults \"noise:p=0.3,sigma=0.25;fail:p=0.2;"
                       "stuck:p=0.05,epochs=6\" --degraded 0,2 --out " +
                       degraded,
                   &out),
            0)
      << out;
  EXPECT_EQ(slurp(degraded), slurp(golden + "/dc_degraded.jsonl"));
}

// A valid scenario reaches the simulator: the run reports injection counts
// and, with --harden, the governor's fallback/recovery tally.
TEST_F(CliTest, RunWithFaultsReportsCounts) {
  std::string out;
  ASSERT_EQ(
      runCli("run --workload bfs --mechanism static-2 --harden --faults "
             "\"dropout:p=1,mode=zero;window:start=12,end=20\"",
             &out),
      0)
      << out;
  EXPECT_NE(out.find("injected"), std::string::npos) << out;
  EXPECT_NE(out.find("fallbacks"), std::string::npos) << out;
}

TEST_F(CliTest, DatagenJobsMatchesSerialCorpus) {
  std::string out;
  const std::string serial = dir_ + "/serial.csv";
  const std::string parallel = dir_ + "/parallel.csv";
  ASSERT_EQ(runCli("datagen --out " + serial + " --workload spmv --seed 3",
                   &out),
            0)
      << out;
  ASSERT_EQ(runCli("datagen --out " + parallel +
                       " --workload spmv --seed 3 --jobs 4",
                   &out),
            0)
      << out;
  const std::string a = slurp(serial);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(parallel));
}

TEST_F(CliTest, HelpIsGlobalAndPerSubcommand) {
  std::string out;
  // `--help` and `help` print the global usage and succeed.
  ASSERT_EQ(runCli("--help", &out), 0);
  EXPECT_NE(out.find("usage"), std::string::npos);
  ASSERT_EQ(runCli("help", &out), 0);
  EXPECT_NE(out.find("record"), std::string::npos);
  EXPECT_NE(out.find("replay"), std::string::npos);
  // Every subcommand answers --help with its own options.
  for (const std::string cmd :
       {"run", "sweep", "record", "replay", "datagen", "train", "eval"}) {
    ASSERT_EQ(runCli(cmd + " --help", &out), 0) << cmd;
    EXPECT_NE(out.find("ssmdvfs " + cmd), std::string::npos) << cmd << out;
  }
  EXPECT_NE(runCli("frobnicate --help", &out), 0);
}

TEST_F(CliTest, RecordReplayChain) {
  std::string out;
  const std::string trace = dir_ + "/run.ssmtrace";
  ASSERT_EQ(runCli("record --workload spmv --mechanism pcstall --max-ms 1 "
                   "--clusters 6 --out " +
                       trace,
                   &out),
            0)
      << out;
  EXPECT_NE(out.find("trace format v1"), std::string::npos) << out;
  ASSERT_TRUE(std::filesystem::exists(trace));

  // Same policy, same config: open-loop agreement is exactly 100%.
  const std::string json = dir_ + "/rep.json";
  ASSERT_EQ(runCli("replay --trace " + trace + " --json " + json, &out), 0)
      << out;
  EXPECT_NE(out.find("agreement 100.00%"), std::string::npos) << out;
  const std::string body = slurp(json);
  EXPECT_NE(body.find("\"recorded_mechanism\":\"pcstall\""),
            std::string::npos);
  EXPECT_NE(body.find("\"agreement\":1"), std::string::npos);

  // A different policy diverges but still reports cleanly.
  ASSERT_EQ(runCli("replay --trace " + trace + " --mechanism ondemand", &out),
            0)
      << out;
  EXPECT_NE(out.find("replayed ondemand"), std::string::npos) << out;

  // A corrupted file is rejected with a diagnostic, not a crash.
  std::string bytes = slurp(trace);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  const std::string bad = dir_ + "/bad.ssmtrace";
  std::ofstream(bad, std::ios::binary) << bytes;
  EXPECT_NE(runCli("replay --trace " + bad, &out), 0);
  EXPECT_NE(out.find("error"), std::string::npos) << out;
}

TEST_F(CliTest, SweepReplayIsByteIdenticalAcrossJobCounts) {
  std::string out;
  // Record two traces into a directory; `sweep --replay DIR` picks up both.
  for (const std::string w : {"spmv", "bfs"})
    ASSERT_EQ(runCli("record --workload " + w +
                         " --mechanism pcstall --max-ms 1 --clusters 6 "
                         "--out " +
                         dir_ + "/" + w + ".ssmtrace",
                     &out),
              0)
        << out;

  const std::string serial = dir_ + "/serial.jsonl";
  const std::string parallel = dir_ + "/parallel.jsonl";
  const std::string common = "sweep --replay " + dir_ +
                             " --mechanisms baseline,pcstall,ondemand "
                             "--quiet --out ";
  ASSERT_EQ(runCli(common + serial + " --jobs 1", &out), 0) << out;
  ASSERT_EQ(runCli(common + parallel + " --jobs 8", &out), 0) << out;
  const std::string a = slurp(serial);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(parallel));
  // 2 traces × 3 mechanisms = 6 lines, all carrying replay columns.
  EXPECT_EQ(static_cast<int>(std::count(a.begin(), a.end(), '\n')), 6);
  EXPECT_NE(a.find("\"replay_of\":\"pcstall\""), std::string::npos);
  EXPECT_NE(a.find("\"agreement\""), std::string::npos);

  // Replay and live workloads are mutually exclusive; faults are rejected.
  EXPECT_NE(runCli("sweep --replay " + dir_ +
                       " --workloads spmv --mechanisms baseline --out " +
                       dir_ + "/x.jsonl",
                   &out),
            0);
  EXPECT_NE(runCli("sweep --replay " + dir_ +
                       " --mechanisms baseline --faults \"noise:p=1\" "
                       "--out " +
                       dir_ + "/x.jsonl",
                   &out),
            0);
}

TEST_F(CliTest, CounterfactualReplayChain) {
  std::string out;
  const std::string trace = dir_ + "/kf.ssmtrace";
  ASSERT_EQ(runCli("record --workload spmv --mechanism pcstall --max-ms 1 "
                   "--clusters 6 --keyframe-every 16 --out " +
                       trace,
                   &out),
            0)
      << out;
  EXPECT_NE(out.find("trace format v3"), std::string::npos) << out;
  EXPECT_NE(out.find("keyframes:"), std::string::npos) << out;

  // A divergent policy resimulated closed-loop reports measured deltas.
  const std::string json = dir_ + "/cf.json";
  ASSERT_EQ(runCli("replay --trace " + trace +
                       " --mechanism ondemand --counterfactual --json " + json,
                   &out),
            0)
      << out;
  EXPECT_NE(out.find("counterfactual:"), std::string::npos) << out;
  const std::string body = slurp(json);
  EXPECT_NE(body.find("\"divergent_windows\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"edp_delta_pct\":"), std::string::npos) << body;
}

TEST_F(CliTest, CounterfactualBadInputsFailWithActionableDiagnostics) {
  std::string out;
  const std::string trace = dir_ + "/plain.ssmtrace";
  ASSERT_EQ(runCli("record --workload spmv --mechanism pcstall --max-ms 1 "
                   "--clusters 6 --out " +
                       trace,
                   &out),
            0)
      << out;

  // Counterfactual replay of an unkeyframed trace tells the user how to
  // re-record, instead of failing cryptically.
  EXPECT_NE(runCli("replay --trace " + trace +
                       " --mechanism ondemand --counterfactual",
                   &out),
            0);
  EXPECT_NE(out.find("--keyframe-every"), std::string::npos) << out;

  // The --faults + --replay rejection explains WHY (the trace is immutable
  // history) and points at both escape hatches.
  EXPECT_NE(runCli("sweep --replay " + dir_ +
                       " --mechanisms baseline --faults \"noise:p=1\" "
                       "--out " +
                       dir_ + "/x.jsonl",
                   &out),
            0);
  EXPECT_NE(out.find("immutable history"), std::string::npos) << out;
  EXPECT_NE(out.find("live sweep"), std::string::npos) << out;

  // Counterfactual is a replay-sweep mode; a live sweep refuses it.
  EXPECT_NE(runCli("sweep --workloads spmv --mechanisms baseline "
                   "--counterfactual --out " +
                       dir_ + "/y.jsonl",
                   &out),
            0);
  EXPECT_NE(out.find("--replay"), std::string::npos) << out;
}

}  // namespace
}  // namespace ssm
