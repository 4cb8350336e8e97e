// Unit tests for the ssm_lint engine (tools/ssm_lint): one positive and one
// negative case per rule, suppression-comment handling, allowlist
// parsing/matching, the repo-level graph and hygiene passes, the stale-entry
// fixers, and the SARIF serializer.
//
// Rule registration is catalog-driven: kRuleFixtures maps every rule id to a
// minimal repo snapshot that triggers it, and LintCatalog.EveryRuleHasAFixture
// walks ruleCatalog() against that table — so a rule added to the engine
// without a fixture here (or vice versa) fails loudly instead of silently
// going untested.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "ssm_lint/include_graph.hpp"
#include "ssm_lint/lint.hpp"
#include "ssm_lint/sarif.hpp"

namespace ssm::lint {
namespace {

bool hasRule(const std::vector<Finding>& fs, std::string_view rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

/// A flat one-layer map: every scan dir in one layer, so graph passes run
/// but impose no ordering. Fixtures that test layering supply their own.
constexpr std::string_view kFlatLayers =
    "layer all\nsrc/\ntools/\nbench/\ntests/\nexamples/\n";

/// Minimal repo snapshot that triggers exactly the named rule.
struct RuleFixture {
  RuleFixture(std::vector<SourceFile> f, std::string_view l = kFlatLayers,
              std::string_view a = {})
      : files(std::move(f)), layers(l), allowlist(a) {}
  std::vector<SourceFile> files;
  std::string_view layers;
  std::string_view allowlist;
};

const std::map<std::string_view, RuleFixture>& ruleFixtures() {
  static const std::map<std::string_view, RuleFixture> fixtures = {
      {"pragma-once", {{{"src/a.hpp", "int f();\n"}}}},
      {"using-namespace-header",
       {{{"src/a.hpp", "#pragma once\nusing namespace std;\n"}}}},
      {"raw-assert", {{{"src/a.cpp", "void f() { abort(); }\n"}}}},
      {"nondeterminism", {{{"src/a.cpp", "int x = rand();\n"}}}},
      {"hot-path-io", {{{"src/core/a.cpp", "#include <iostream>\n"}}}},
      {"c-style-float-cast",
       {{{"src/a.cpp", "double g(long n) { return (double)n; }\n"}}}},
      {"raw-thread", {{{"src/a.cpp", "std::thread t;\n"}}}},
      {"fault-hook-guard",
       {{{"src/gpusim/a.cpp", "void f() { faults->onTelemetry(r); }\n"}}}},
      {"hot-path-alloc",
       {{{"src/core/ssm_governor.cpp", "void f() { buf_.resize(n); }\n"}}}},
      {"gpu-stepping",
       {{{"src/core/a.cpp", "auto r = gpu.runEpoch(l);\n"}}}},
      {"layer-order",
       {{{"src/common/a.hpp", "#pragma once\n#include \"core/b.hpp\"\n"},
         {"src/core/b.hpp", "#pragma once\n"}},
        "layer foundation\nsrc/common/\nlayer control\nsrc/core/\n"}},
      {"include-cycle",
       {{{"src/common/a.hpp", "#pragma once\n#include \"common/b.hpp\"\n"},
         {"src/common/b.hpp", "#pragma once\n#include \"common/a.hpp\"\n"}}}},
      {"unordered-iteration",
       {{{"src/a.cpp",
          "#include <unordered_map>\n"
          "void f(std::ostream& os) {\n"
          "  std::unordered_map<int, double> acc;\n"
          "  for (const auto& kv : acc) os << kv.second;\n"
          "}\n"}}}},
      {"float-equality",
       {{{"src/a.cpp", "bool b(double x) { return x == 0.25; }\n"}}}},
      {"simd-intrinsics",
       {{{"src/a.cpp", "__m256d v = _mm256_setzero_pd();\n"}}}},
      {"stale-allowlist",
       {{{"src/a.cpp", "int x = 0;\n"}},
        kFlatLayers,
        "gpu-stepping src/nothing/\n"}},
      {"stale-waiver",
       {{{"src/a.cpp", "int x = 0;  // ssm-lint: allow(raw-assert)\n"}}}},
  };
  return fixtures;
}

RepoLintResult lintFixture(const RuleFixture& fx) {
  RepoLintOptions opts;
  opts.allowlist_text = std::string(fx.allowlist);
  opts.layers_text = std::string(fx.layers);
  return lintRepo(fx.files, opts);
}

TEST(LintCatalog, EveryRuleHasAFixtureAndEveryFixtureARule) {
  const auto rules = ruleCatalog();
  EXPECT_EQ(rules.size(), ruleFixtures().size());
  for (const auto& r : rules) {
    EXPECT_TRUE(isKnownRule(r.id)) << r.id;
    EXPECT_FALSE(r.summary.empty()) << r.id;
    const auto it = ruleFixtures().find(r.id);
    ASSERT_NE(it, ruleFixtures().end())
        << "rule '" << r.id << "' has no fixture in kRuleFixtures";
    EXPECT_TRUE(hasRule(lintFixture(it->second).findings, r.id))
        << "fixture for '" << r.id << "' does not trigger it";
  }
  for (const auto& [id, fx] : ruleFixtures())
    EXPECT_TRUE(isKnownRule(id)) << "fixture for unregistered rule " << id;
  EXPECT_TRUE(isKnownRule("*"));
  EXPECT_FALSE(isKnownRule("no-such-rule"));
}

// --- gpu-stepping ----------------------------------------------------------

TEST(LintGpuStepping, FlagsDirectSteppingOutsideTheSteppingSites) {
  for (const char* call : {"runEpoch(levels)", "runEpochUniform(5)",
                           "runUntil(t)"}) {
    EXPECT_TRUE(hasRule(lintSource("src/core/x.cpp",
                                   std::string("auto r = gpu.") + call + ";\n"),
                        "gpu-stepping"))
        << call;
  }
  EXPECT_TRUE(hasRule(
      lintSource("src/sched/x.cpp", "auto r = gpu->runEpoch(levels);\n"),
      "gpu-stepping"));
  // The rest of src/engine/ is NOT a stepping site: the loop drives streams
  // via EpochSource::nextEpoch, so raw stepping there is as suspect as
  // anywhere else. Only sim_backend.* and fork.* touch the Gpu directly.
  for (const char* path : {"src/engine/epoch_loop.cpp",
                           "src/engine/replay_backend.cpp",
                           "src/engine/runner_adapter.cpp",
                           "src/datagen/generator.cpp"}) {
    EXPECT_TRUE(hasRule(
        lintSource(path, "auto r = gpu.runEpoch(levels);\n"), "gpu-stepping"))
        << path;
  }
  // Outside src/engine/, stepping an epoch stream by hand is a second epoch
  // loop: the rack's nodes run their jobs through engine::EpochLoop.
  for (const char* path : {"src/dc/gpu_node.cpp", "src/sched/x.cpp",
                           "src/gpusim/gpu.cpp"}) {
    EXPECT_TRUE(hasRule(
        lintSource(path, "auto r = sim_->nextEpoch(levels_);\n"),
        "gpu-stepping"))
        << path;
  }
}

TEST(LintGpuStepping, AllowsTheSteppingSitesTestsAndUnrelatedNames) {
  // The simulator, the SimBackend adapter and the fork engine own the raw
  // stepping calls; tests/tools/bench are exempt.
  for (const char* path :
       {"src/gpusim/gpu.cpp", "src/engine/sim_backend.hpp",
        "src/engine/fork.cpp", "src/engine/fork.hpp", "tests/t.cpp",
        "bench/b.cpp", "tools/t.cpp"}) {
    EXPECT_FALSE(hasRule(
        lintSource(path, "auto r = gpu.runEpoch(levels);\n"), "gpu-stepping"))
        << path;
  }
  // Every engine file may step an EpochSource; the loop and its sources do.
  for (const char* path : {"src/engine/epoch_loop.cpp",
                           "src/engine/power_capped_source.hpp"}) {
    EXPECT_FALSE(hasRule(
        lintSource(path, "auto r = inner.nextEpoch(levels);\n"),
        "gpu-stepping"))
        << path;
  }
  // A free function or an unrelated member does not trip the rule.
  EXPECT_FALSE(hasRule(lintSource("src/core/x.cpp", "runEpoch(gpu);\n"),
                       "gpu-stepping"));
  EXPECT_FALSE(hasRule(
      lintSource("src/core/x.cpp", "auto r = gpu.runEpochs(levels);\n"),
      "gpu-stepping"));
  // A checked-in allowlist entry still sanctions a file (the oracle's
  // exhaustive search keeps one; datagen no longer needs its old entry — it
  // branches through engine::GpuFork now).
  EXPECT_FALSE(
      hasRule(lintSource("src/baselines/oracle.cpp",
                         "auto r = gpu.runEpochUniform(l);\n",
                         parseAllowlist("gpu-stepping src/baselines/oracle.\n")),
              "gpu-stepping"));
  // An inline suppression works like for every other rule.
  EXPECT_FALSE(
      hasRule(lintSource(
                  "src/core/x.cpp",
                  "auto r = gpu.runEpoch(l);  // ssm-lint: allow(gpu-stepping)\n"),
              "gpu-stepping"));
}

// --- hot-path-alloc --------------------------------------------------------

TEST(LintHotPathAlloc, FlagsAllocatingConstructsInDesignatedFiles) {
  for (const char* path :
       {"src/nn/packed_mlp.hpp", "src/core/ssm_governor.cpp"}) {
    EXPECT_TRUE(hasRule(lintSource(path, "auto* p = new double[8];\n"),
                        "hot-path-alloc"))
        << path;
    EXPECT_TRUE(hasRule(
        lintSource(path, "auto g = std::make_unique<Governor>(m);\n"),
        "hot-path-alloc"))
        << path;
    EXPECT_TRUE(hasRule(lintSource(path, "void* p = malloc(64);\n"),
                        "hot-path-alloc"))
        << path;
    EXPECT_TRUE(
        hasRule(lintSource(path, "buf_.resize(n);\n"), "hot-path-alloc"))
        << path;
    EXPECT_TRUE(hasRule(lintSource(path, "s->push_back(1.0);\n"),
                        "hot-path-alloc"))
        << path;
    EXPECT_TRUE(hasRule(lintSource(path, "ewma_loss_.assign(n, -1.0);\n"),
                        "hot-path-alloc"))
        << path;
  }
}

TEST(LintHotPathAlloc, IgnoresNonDesignatedFilesAndNonAllocatingTokens) {
  // The same constructs are fine anywhere else — including the compile-side
  // packed_mlp.cpp, which is deliberately not designated.
  for (const char* path :
       {"src/nn/packed_mlp.cpp", "src/core/ssm_model.cpp", "src/nn/mlp.cpp"}) {
    EXPECT_FALSE(hasRule(
        lintSource(path, "buf_.resize(n);\nauto* p = new double[8];\n"),
        "hot-path-alloc"))
        << path;
  }
  // Free functions named like growth calls, declarations, and non-growth
  // members are not allocation sites.
  EXPECT_FALSE(hasRule(
      lintSource("src/nn/packed_mlp.hpp",
                 "void reserveBatchScratch(Scratch& s, std::size_t n) "
                 "const;\nstd::vector<double> ping;\nresize(x);\n"
                 "s.size();\n"),
      "hot-path-alloc"));
}

TEST(LintHotPathAlloc, SuppressionAndAllowlistEscapeHatchesWork) {
  EXPECT_FALSE(hasRule(
      lintSource("src/core/ssm_governor.cpp",
                 "ewma_loss_.assign(n, -1.0);  // ssm-lint: "
                 "allow(hot-path-alloc)\n"),
      "hot-path-alloc"));
  const std::vector<AllowEntry> allow = {
      {"hot-path-alloc", "src/core/ssm_governor.cpp"}};
  EXPECT_FALSE(hasRule(lintSource("src/core/ssm_governor.cpp",
                                  "buf_.resize(n);\n", allow),
                       "hot-path-alloc"));
}

// --- simd-intrinsics -------------------------------------------------------

TEST(LintSimdIntrinsics, FlagsIntrinsicHeadersOpsAndVectorTypes) {
  EXPECT_TRUE(hasRule(lintSource("src/core/a.cpp", "#include <immintrin.h>\n"),
                      "simd-intrinsics"));
  EXPECT_TRUE(hasRule(lintSource("bench/b.cpp", "#include <arm_neon.h>\n"),
                      "simd-intrinsics"));
  for (const char* line :
       {"auto v = _mm256_loadu_pd(p);\n", "__m512d acc;\n",
        "auto m = _mm_max_pd(a, b);\n", "auto n = vmaxq_f64(a, b);\n",
        "float64x2_t lanes;\n", "auto g = vld1q_f32(p);\n"}) {
    EXPECT_TRUE(hasRule(lintSource("src/gpusim/a.cpp", line),
                        "simd-intrinsics"))
        << line;
  }
}

TEST(LintSimdIntrinsics, AllowsSeamFilesSimilarNamesAndOutOfScopePaths) {
  // The dispatch-seam kernel TUs are exempted by the checked-in allowlist.
  const std::vector<AllowEntry> allow =
      parseAllowlist("simd-intrinsics src/nn/simd_kernels_avx2.\n");
  EXPECT_FALSE(hasRule(lintSource("src/nn/simd_kernels_avx2.cpp",
                                  "auto v = _mm256_setzero_pd();\n", allow),
                       "simd-intrinsics"));
  // Lookalike identifiers that are not intrinsics.
  for (const char* line :
       {"int _max = 0;\n", "double volt_freq_u32 = 0.0;\n",
        "auto x = vector_freq_mix();\n", "int matrix2_t = 0;\n",
        "auto m = mm256_helper();\n"}) {
    EXPECT_FALSE(hasRule(lintSource("src/core/a.cpp", line),
                         "simd-intrinsics"))
        << line;
  }
  // Outside src/, tools/ and bench/ the rule does not apply.
  EXPECT_FALSE(hasRule(lintSource("examples/vec.cpp",
                                  "auto v = _mm256_setzero_pd();\n"),
                       "simd-intrinsics"));
}

// --- raw-thread ------------------------------------------------------------

TEST(LintRawThread, FlagsStdThreadJthreadAsyncAndThreadHeader) {
  EXPECT_TRUE(hasRule(
      lintSource("src/core/x.cpp", "std::thread t([]{});\n"), "raw-thread"));
  EXPECT_TRUE(hasRule(
      lintSource("bench/b.cpp", "auto f = std::async(g);\n"), "raw-thread"));
  EXPECT_TRUE(hasRule(
      lintSource("tests/t.cpp", "std :: jthread t;\n"), "raw-thread"));
  EXPECT_TRUE(hasRule(
      lintSource("tools/t.cpp", "#include <thread>\n"), "raw-thread"));
}

TEST(LintRawThread, AllowsPoolInternalsViaAllowlistAndSimilarNames) {
  const std::vector<AllowEntry> allow = {{"raw-thread", "src/sched/"}};
  EXPECT_FALSE(hasRule(
      lintSource("src/sched/thread_pool.cpp",
                 "#include <thread>\nstd::thread t([]{});\n", allow),
      "raw-thread"));
  // Unqualified or differently-qualified identifiers are not the rule's
  // target; neither is this_thread (full identifier differs).
  EXPECT_FALSE(hasRule(
      lintSource("src/core/x.cpp", "my::thread t; int async = 0;\n"),
      "raw-thread"));
  EXPECT_FALSE(hasRule(
      lintSource("src/core/x.cpp", "std::this_thread_tag y;\n"),
      "raw-thread"));
}

// --- pragma-once -----------------------------------------------------------

TEST(LintPragmaOnce, FlagsHeaderWithoutGuard) {
  const auto fs = lintSource("src/foo/bar.hpp", "int f();\n");
  EXPECT_TRUE(hasRule(fs, "pragma-once"));
}

TEST(LintPragmaOnce, AcceptsGuardedHeaderAndIgnoresCppFiles) {
  EXPECT_FALSE(hasRule(
      lintSource("src/foo/bar.hpp", "// doc\n#pragma once\nint f();\n"),
      "pragma-once"));
  EXPECT_FALSE(hasRule(lintSource("src/foo/bar.cpp", "int f() { return 1; }\n"),
                       "pragma-once"));
}

// --- using-namespace-header ------------------------------------------------

TEST(LintUsingNamespace, FlagsUsingNamespaceInHeader) {
  const auto fs = lintSource("src/foo/bar.hpp",
                             "#pragma once\nusing namespace std;\n");
  ASSERT_TRUE(hasRule(fs, "using-namespace-header"));
  EXPECT_EQ(fs.front().line, 2u);
}

TEST(LintUsingNamespace, AllowsUsingNamespaceInCppFiles) {
  EXPECT_FALSE(hasRule(lintSource("bench/b.cpp", "using namespace ssm;\n"),
                       "using-namespace-header"));
}

// --- raw-assert ------------------------------------------------------------

TEST(LintRawAssert, FlagsAssertAndAbortInSrc) {
  EXPECT_TRUE(hasRule(
      lintSource("src/core/x.cpp", "void f(int v) { assert(v > 0); }\n"),
      "raw-assert"));
  EXPECT_TRUE(hasRule(lintSource("src/core/x.cpp", "void g() { abort(); }\n"),
                      "raw-assert"));
}

TEST(LintRawAssert, AllowsAssertOutsideSrcAndSimilarNames) {
  EXPECT_FALSE(hasRule(
      lintSource("tests/t.cpp", "void f(int v) { assert(v > 0); }\n"),
      "raw-assert"));
  // static_assert and my_assert are different identifiers.
  EXPECT_FALSE(hasRule(
      lintSource("src/core/x.cpp", "static_assert(sizeof(int) == 4);\n"),
      "raw-assert"));
}

// --- nondeterminism --------------------------------------------------------

TEST(LintNondeterminism, FlagsEachEntropySource) {
  for (const char* bad :
       {"int x = rand();", "srand(42);", "auto t = time(nullptr);",
        "std::random_device rd;",
        "auto n = std::chrono::steady_clock::now();"}) {
    const auto fs =
        lintSource("src/core/x.cpp", std::string(bad) + "\n");
    EXPECT_TRUE(hasRule(fs, "nondeterminism")) << bad;
  }
}

TEST(LintNondeterminism, AllowsSanctionedRngViaAllowlist) {
  const auto allow = parseAllowlist("nondeterminism src/common/rng.\n");
  EXPECT_FALSE(hasRule(
      lintSource("src/common/rng.cpp", "std::random_device rd;\n", allow),
      "nondeterminism"));
  // Same content elsewhere still flags.
  EXPECT_TRUE(hasRule(
      lintSource("src/core/x.cpp", "std::random_device rd;\n", allow),
      "nondeterminism"));
}

// --- hot-path-io -----------------------------------------------------------

TEST(LintHotPathIo, FlagsIostreamInHotPathDirs) {
  EXPECT_TRUE(hasRule(
      lintSource("src/core/x.cpp", "#include <iostream>\n"), "hot-path-io"));
  EXPECT_TRUE(hasRule(
      lintSource("src/gpusim/y.cpp", "void f() { printf(\"hi\"); }\n"),
      "hot-path-io"));
}

TEST(LintHotPathIo, AllowsIoOffTheHotPath) {
  EXPECT_FALSE(hasRule(
      lintSource("src/datagen/x.cpp", "#include <iostream>\n"),
      "hot-path-io"));
}

// --- fault-hook-guard ------------------------------------------------------

TEST(LintFaultHookGuard, FlagsUnguardedHookDerefInHotPath) {
  EXPECT_TRUE(hasRule(
      lintSource("src/gpusim/x.cpp", "void f() { faults->onTelemetry(r); }\n"),
      "fault-hook-guard"));
  // Case-insensitive over the identifier, and a guard two lines up is too
  // far away to audit at a glance.
  EXPECT_TRUE(hasRule(
      lintSource("src/core/x.cpp",
                 "if (myFaultHook != nullptr) {\n"
                 "  prepare();\n"
                 "  myFaultHook->onActuate(c, req, cur);\n"
                 "}\n"),
      "fault-hook-guard"));
}

TEST(LintFaultHookGuard, AcceptsGuardedIdiomsAndColdPaths) {
  EXPECT_FALSE(hasRule(
      lintSource("src/gpusim/x.cpp",
                 "if (faults != nullptr) faults->onTelemetry(r);\n"),
      "fault-hook-guard"));
  EXPECT_FALSE(hasRule(
      lintSource("src/gpusim/x.cpp",
                 "l = faults != nullptr ? faults->onActuate(i, q, c)\n"
                 "                      : q;\n"),
      "fault-hook-guard"));
  // Preceding-line guard.
  EXPECT_FALSE(hasRule(
      lintSource("src/core/x.cpp",
                 "if (fault_hook != nullptr)\n"
                 "  fault_hook->onTelemetry(r);\n"),
      "fault-hook-guard"));
  // Outside the hot-path dirs the injector may be dereferenced freely.
  EXPECT_FALSE(hasRule(
      lintSource("src/sched/fleet.cpp", "injector_faults->onTelemetry(r);\n"),
      "fault-hook-guard"));
  // Member access on a value (no '->') is not a hook dereference.
  EXPECT_FALSE(hasRule(
      lintSource("src/core/x.cpp", "if (fault.empty()) return;\n"),
      "fault-hook-guard"));
}

// --- c-style-float-cast ----------------------------------------------------

TEST(LintFloatCast, FlagsCStyleCasts) {
  EXPECT_TRUE(hasRule(
      lintSource("src/core/x.cpp", "float f(int v) { return (float)v; }\n"),
      "c-style-float-cast"));
  EXPECT_TRUE(hasRule(
      lintSource("src/core/x.cpp", "double g(long n) { return (double)n; }\n"),
      "c-style-float-cast"));
}

TEST(LintFloatCast, AllowsDeclarationsAndStaticCast) {
  EXPECT_FALSE(hasRule(
      lintSource("src/core/x.cpp",
                 "double g(long n) { return static_cast<double>(n); }\n"),
      "c-style-float-cast"));
  // `(double)` followed by nothing castable — e.g. a parameter list — is
  // not a cast.
  EXPECT_FALSE(hasRule(
      lintSource("src/core/x.cpp", "void h(double);\n"), "c-style-float-cast"));
}

// --- suppression comments --------------------------------------------------

TEST(LintSuppression, SameLineCommentSuppresses) {
  const auto fs = lintSource(
      "src/core/x.cpp",
      "void f() { abort(); }  // ssm-lint: allow(raw-assert)\n");
  EXPECT_FALSE(hasRule(fs, "raw-assert"));
}

TEST(LintSuppression, PrecedingLineCommentSuppresses) {
  const auto fs = lintSource("src/core/x.cpp",
                             "// ssm-lint: allow(raw-assert)\n"
                             "void f() { abort(); }\n");
  EXPECT_FALSE(hasRule(fs, "raw-assert"));
}

TEST(LintSuppression, SuppressionIsRuleSpecific) {
  // Allowing one rule must not hide a different rule on the same line.
  const auto fs = lintSource(
      "src/core/x.cpp",
      "void f() { abort(); }  // ssm-lint: allow(nondeterminism)\n");
  EXPECT_TRUE(hasRule(fs, "raw-assert"));
}

// --- allowlist parsing -----------------------------------------------------

TEST(LintAllowlist, ParsesEntriesAndSkipsComments) {
  const auto allow = parseAllowlist(
      "# comment\n"
      "\n"
      "hot-path-io src/core/ssm_io.\n"
      "* tools/vendored/\n");
  ASSERT_EQ(allow.size(), 2u);
  EXPECT_EQ(allow[0].rule, "hot-path-io");
  EXPECT_EQ(allow[0].path_prefix, "src/core/ssm_io.");
  EXPECT_EQ(allow[1].rule, "*");
}

TEST(LintAllowlist, RejectsUnknownRulesAndMalformedLines) {
  EXPECT_THROW(static_cast<void>(parseAllowlist("no-such-rule src/\n")),
               AllowlistError);
  EXPECT_THROW(static_cast<void>(parseAllowlist("just-one-token\n")),
               AllowlistError);
}

TEST(LintAllowlist, WildcardRuleWaivesEverythingUnderPrefix) {
  const auto allow = parseAllowlist("* src/vendored/\n");
  const auto fs = lintSource("src/vendored/x.cpp",
                             "void f() { abort(); rand(); }\n", allow);
  EXPECT_TRUE(fs.empty());
}

// --- output format ---------------------------------------------------------

TEST(LintFormat, GccStyleDiagnostic) {
  const Finding f{"src/core/x.cpp", 12, "raw-assert", "use SSM_CHECK"};
  const auto s = formatFinding(f);
  EXPECT_EQ(s.substr(0, std::string("src/core/x.cpp:12: warning:").size()),
            "src/core/x.cpp:12: warning:");
  EXPECT_NE(s.find("[raw-assert]"), std::string::npos);
}

TEST(LintEngine, LineNumbersSurviveCommentsAndStrings) {
  // The lexer must keep line numbers: the violation sits on line 4, after a
  // block comment containing decoys and a string containing "rand()".
  const auto fs = lintSource("src/core/x.cpp",
                             "/* rand()\n"
                             "   abort() */\n"
                             "const char* s = \"time(nullptr)\";\n"
                             "int x = rand();\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "nondeterminism");
  EXPECT_EQ(fs[0].line, 4u);
}

TEST(LintEngine, RawStringsAndWaiverTagsInStringsAreInert) {
  // A raw string spanning lines must not swallow following code, and the
  // waiver tag inside a string literal must not register as a waiver (it
  // would otherwise surface as stale).
  const auto fs = lintSource("src/core/x.cpp",
                             "const char* r = R\"(rand()\n"
                             "abort())\";\n"
                             "const char* t = \"// ssm-lint: allow(raw-assert)\";\n"
                             "int x = rand();\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "nondeterminism");
  EXPECT_EQ(fs[0].line, 4u);
}

// --- hot-path-alloc: token-accurate extensions -----------------------------

TEST(LintHotPathAlloc, FlagsMultiLineAllocationCalls) {
  // The token stream does not care where the line breaks fall.
  EXPECT_TRUE(hasRule(lintSource("src/core/ssm_governor.cpp",
                                 "auto g = std::make_unique<\n"
                                 "    Governor>(\n"
                                 "    model, cfg);\n"),
                      "hot-path-alloc"));
  EXPECT_TRUE(hasRule(lintSource("src/nn/packed_mlp.hpp",
                                 "auto* p =\n    new double[8];\n"),
                      "hot-path-alloc"));
}

TEST(LintHotPathAlloc, FlagsByValueContainerParamsAndStdFunction) {
  EXPECT_TRUE(hasRule(
      lintSource("src/nn/packed_mlp.hpp",
                 "void setWeights(std::vector<double> w);\n"),
      "hot-path-alloc"));
  EXPECT_TRUE(hasRule(
      lintSource("src/core/ssm_governor.cpp",
                 "void onDecision(std::function<void(int)> cb);\n"),
      "hot-path-alloc"));
  // Temporaries inside a call allocate too.
  EXPECT_TRUE(hasRule(
      lintSource("src/core/ssm_governor.cpp", "emit(std::string(name));\n"),
      "hot-path-alloc"));
}

TEST(LintHotPathAlloc, AllowsReferencePointerAndNestedTypeUses) {
  EXPECT_FALSE(hasRule(
      lintSource("src/nn/packed_mlp.hpp",
                 "void setWeights(const std::vector<double>& w);\n"
                 "void take(std::vector<double>&& w);\n"
                 "void scan(const std::vector<std::vector<int>>& m);\n"
                 "std::size_t at(std::vector<double>::size_type i);\n"
                 "void fill(std::vector<double>* out);\n"),
      "hot-path-alloc"));
  // Member declarations at class scope (paren depth 0) are preallocation,
  // not per-decision allocation.
  EXPECT_FALSE(hasRule(
      lintSource("src/nn/packed_mlp.hpp", "std::vector<double> scratch_;\n"),
      "hot-path-alloc"));
}

// --- unordered-iteration ---------------------------------------------------

TEST(LintUnorderedIteration, FlagsRangeForFeedingASink) {
  const char* body =
      "#include <unordered_map>\n"
      "void dump(std::ostream& os) {\n"
      "  std::unordered_map<int, double> counts;\n"
      "  for (const auto& [k, v] : counts) os << k << v;\n"
      "}\n";
  EXPECT_TRUE(hasRule(lintSource("src/core/x.cpp", body),
                      "unordered-iteration"));
  EXPECT_TRUE(hasRule(
      lintSource("src/core/x.cpp",
                 "std::unordered_set<int> seen_;\n"
                 "void f(std::vector<int>& out) {\n"
                 "  for (int v : seen_) out.push_back(v);\n"
                 "}\n"),
      "unordered-iteration"));
}

TEST(LintUnorderedIteration, AllowsOrderedContainersSinkFreeBodiesAndTests) {
  // Ordered containers iterate deterministically.
  EXPECT_FALSE(hasRule(
      lintSource("src/core/x.cpp",
                 "std::map<int, double> counts;\n"
                 "void dump(std::ostream& os) {\n"
                 "  for (const auto& [k, v] : counts) os << k;\n"
                 "}\n"),
      "unordered-iteration"));
  // Reading without emitting (e.g. a max-reduce) is order-insensitive.
  EXPECT_FALSE(hasRule(
      lintSource("src/core/x.cpp",
                 "std::unordered_map<int, double> counts;\n"
                 "double maxOf() {\n"
                 "  double m = 0.0;\n"
                 "  for (const auto& [k, v] : counts) m = std::max(m, v);\n"
                 "  return m;\n"
                 "}\n"),
      "unordered-iteration"));
  // Tests may iterate however they like.
  EXPECT_FALSE(hasRule(
      lintSource("tests/t.cpp",
                 "std::unordered_map<int, int> m;\n"
                 "void f(std::ostream& os) {\n"
                 "  for (auto& kv : m) os << kv.first;\n"
                 "}\n"),
      "unordered-iteration"));
}

// --- float-equality --------------------------------------------------------

TEST(LintFloatEquality, FlagsComparisonAgainstNonZeroLiteral) {
  EXPECT_TRUE(hasRule(
      lintSource("src/core/x.cpp", "bool b = loss == 0.25;\n"),
      "float-equality"));
  EXPECT_TRUE(hasRule(
      lintSource("tools/t.cpp", "if (1.5f != scale) { fix(); }\n"),
      "float-equality"));
}

TEST(LintFloatEquality, AllowsZeroLiteralsIntegersAndTests) {
  // Comparison against exact zero is the sanctioned mask/sentinel idiom.
  EXPECT_FALSE(hasRule(
      lintSource("src/core/x.cpp",
                 "bool a = mask == 0.0;\nbool b = w != 0.0f;\n"),
      "float-equality"));
  // Integer literals are exact.
  EXPECT_FALSE(hasRule(lintSource("src/core/x.cpp", "bool c = n == 4;\n"),
                       "float-equality"));
  // Pinned-golden tests compare replayed doubles exactly by design.
  EXPECT_FALSE(hasRule(
      lintSource("tests/t.cpp", "EXPECT_TRUE(x == 0.25);\n"),
      "float-equality"));
}

// --- layer-order / include-cycle (repo-level) ------------------------------

constexpr std::string_view kTwoLayers =
    "layer foundation\nsrc/common/\nlayer control\nsrc/core/\n";

TEST(LintLayering, RejectsUpwardIncludeAndAcceptsDownward) {
  // Downward (control -> foundation) is the designed direction.
  RepoLintOptions opts;
  opts.layers_text = std::string(kTwoLayers);
  const auto ok = lintRepo(
      {{"src/common/a.hpp", "#pragma once\n"},
       {"src/core/b.hpp", "#pragma once\n#include \"common/a.hpp\"\n"}},
      opts);
  EXPECT_FALSE(hasRule(ok.findings, "layer-order"));

  // Upward (foundation -> control) is rejected, naming both layers.
  const auto bad = lintRepo(
      {{"src/common/a.hpp", "#pragma once\n#include \"core/b.hpp\"\n"},
       {"src/core/b.hpp", "#pragma once\n"}},
      opts);
  ASSERT_TRUE(hasRule(bad.findings, "layer-order"));
  const auto it = std::find_if(
      bad.findings.begin(), bad.findings.end(),
      [](const Finding& f) { return f.rule == "layer-order"; });
  EXPECT_EQ(it->path, "src/common/a.hpp");
  EXPECT_EQ(it->line, 2u);
  EXPECT_NE(it->message.find("foundation"), std::string::npos);
  EXPECT_NE(it->message.find("control"), std::string::npos);
}

TEST(LintLayering, FlagsUncoveredFilesAndUnresolvedIncludes) {
  RepoLintOptions opts;
  opts.layers_text = std::string(kTwoLayers);
  const auto uncovered =
      lintRepo({{"src/orphan/x.hpp", "#pragma once\n"}}, opts);
  EXPECT_TRUE(hasRule(uncovered.findings, "layer-order"));

  const auto unresolved = lintRepo(
      {{"src/core/b.hpp", "#pragma once\n#include \"common/gone.hpp\"\n"}},
      opts);
  EXPECT_TRUE(hasRule(unresolved.findings, "layer-order"));
}

TEST(LintLayering, DetectsIncludeCycles) {
  RepoLintOptions opts;
  opts.layers_text = std::string(kFlatLayers);
  const auto r = lintRepo(
      {{"src/common/a.hpp", "#pragma once\n#include \"common/b.hpp\"\n"},
       {"src/common/b.hpp", "#pragma once\n#include \"common/c.hpp\"\n"},
       {"src/common/c.hpp", "#pragma once\n#include \"common/a.hpp\"\n"}},
      opts);
  ASSERT_TRUE(hasRule(r.findings, "include-cycle"));
  const auto it = std::find_if(
      r.findings.begin(), r.findings.end(),
      [](const Finding& f) { return f.rule == "include-cycle"; });
  // The report spells out the whole chain.
  EXPECT_NE(it->message.find("src/common/a.hpp"), std::string::npos);
  EXPECT_NE(it->message.find("src/common/b.hpp"), std::string::npos);
  EXPECT_NE(it->message.find("src/common/c.hpp"), std::string::npos);
}

TEST(LintLayering, MalformedLayerMapThrows) {
  RepoLintOptions opts;
  opts.layers_text = "src/common/\n";  // prefix before any layer line
  EXPECT_THROW(static_cast<void>(lintRepo({}, opts)), LayerMapError);
  opts.layers_text = "layer a\nsrc/\nlayer a\n";
  EXPECT_THROW(static_cast<void>(lintRepo({}, opts)), LayerMapError);
}

// --- allowlist/waiver hygiene (repo-level) ---------------------------------

TEST(LintHygiene, StaleAllowlistEntryIsAHardError) {
  RepoLintOptions opts;
  opts.layers_text = std::string(kFlatLayers);
  opts.allowlist_text = "# comment\ngpu-stepping src/nothing/\n";
  const auto r = lintRepo({{"src/a.cpp", "int x = 0;\n"}}, opts);
  ASSERT_TRUE(hasRule(r.findings, "stale-allowlist"));
  ASSERT_EQ(r.stale_allowlist_lines.size(), 1u);
  EXPECT_EQ(r.stale_allowlist_lines[0], 2u);  // 1-based, after the comment
  // The finding points at the allowlist file itself.
  const auto it = std::find_if(
      r.findings.begin(), r.findings.end(),
      [](const Finding& f) { return f.rule == "stale-allowlist"; });
  EXPECT_EQ(it->path, opts.allowlist_path);
  EXPECT_EQ(it->line, 2u);
}

TEST(LintHygiene, UsedAllowlistEntryIsNotStale) {
  RepoLintOptions opts;
  opts.layers_text = std::string(kFlatLayers);
  opts.allowlist_text = "nondeterminism src/a.cpp\n";
  const auto r = lintRepo({{"src/a.cpp", "int x = rand();\n"}}, opts);
  EXPECT_FALSE(hasRule(r.findings, "stale-allowlist"));
  EXPECT_FALSE(hasRule(r.findings, "nondeterminism"));
}

TEST(LintHygiene, StaleInlineWaiverIsAHardError) {
  RepoLintOptions opts;
  opts.layers_text = std::string(kFlatLayers);
  const auto r = lintRepo(
      {{"src/a.cpp", "int x = 0;  // ssm-lint: allow(raw-assert)\n"}}, opts);
  ASSERT_TRUE(hasRule(r.findings, "stale-waiver"));
  ASSERT_EQ(r.stale_waivers.size(), 1u);
  EXPECT_EQ(r.stale_waivers[0].path, "src/a.cpp");
  EXPECT_EQ(r.stale_waivers[0].line, 1u);
  ASSERT_EQ(r.stale_waivers[0].rules.size(), 1u);
  EXPECT_EQ(r.stale_waivers[0].rules[0], "raw-assert");
}

TEST(LintHygiene, UsedWaiverIsNotStaleAndShadowsTheAllowlist) {
  RepoLintOptions opts;
  opts.layers_text = std::string(kFlatLayers);
  // The inline waiver suppresses the finding, so the allowlist entry for the
  // same rule+file never fires — and is therefore reported stale.
  opts.allowlist_text = "nondeterminism src/a.cpp\n";
  const auto r = lintRepo(
      {{"src/a.cpp", "int x = rand();  // ssm-lint: allow(nondeterminism)\n"}},
      opts);
  EXPECT_FALSE(hasRule(r.findings, "nondeterminism"));
  EXPECT_FALSE(hasRule(r.findings, "stale-waiver"));
  EXPECT_TRUE(hasRule(r.findings, "stale-allowlist"));
}

TEST(LintHygiene, SingleFileModeExemptsRepoLevelWaiversOnly) {
  // lintSource cannot run the graph passes, so a waiver naming a repo-level
  // rule is not reported stale there...
  EXPECT_FALSE(hasRule(
      lintSource("src/a.cpp", "int x = 0;  // ssm-lint: allow(layer-order)\n"),
      "stale-waiver"));
  // ...but a per-file-rule waiver that suppresses nothing still is.
  EXPECT_TRUE(hasRule(
      lintSource("src/a.cpp", "int x = 0;  // ssm-lint: allow(raw-assert)\n"),
      "stale-waiver"));
}

// --- fixers ----------------------------------------------------------------

TEST(LintFixers, RemoveAllowlistLinesDropsExactlyTheGivenLines) {
  const std::string text = "# keep\nrule-a src/\nrule-b src/\n";
  EXPECT_EQ(removeAllowlistLines(text, {2}), "# keep\nrule-b src/\n");
  EXPECT_EQ(removeAllowlistLines(text, {2, 3}), "# keep\n");
  EXPECT_EQ(removeAllowlistLines(text, {}), text);
}

TEST(LintFixers, RemoveStaleWaiverDropsWholeCommentOrRewritesArgList) {
  // Whole-line comment: the line disappears entirely.
  const StaleWaiver all{"src/a.cpp", 1, {"raw-assert"}};
  const auto r1 =
      removeStaleWaiver("// ssm-lint: allow(raw-assert)\nint x = 0;\n", all);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(*r1, "int x = 0;\n");

  // Trailing comment: only the comment goes, code stays.
  const auto r2 = removeStaleWaiver(
      "int x = 0;  // ssm-lint: allow(raw-assert)\n", all);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, "int x = 0;\n");

  // Partial staleness: the arg list is rewritten with the survivors.
  const StaleWaiver partial{"src/a.cpp", 1, {"raw-assert"}};
  const auto r3 = removeStaleWaiver(
      "int x = rand();  // ssm-lint: allow(raw-assert, nondeterminism)\n",
      partial);
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(*r3, "int x = rand();  // ssm-lint: allow(nondeterminism)\n");

  // Block-comment waivers cannot be rewritten mechanically.
  const auto r4 = removeStaleWaiver(
      "int x = 0;  /* ssm-lint: allow(raw-assert) */\n", all);
  EXPECT_FALSE(r4.has_value());
}

// --- deterministic ordering ------------------------------------------------

TEST(LintOrdering, RepoFindingsAreSortedByPathLineRule) {
  RepoLintOptions opts;
  opts.layers_text = std::string(kFlatLayers);
  // Files handed over in reverse order; findings must come back sorted.
  const auto r = lintRepo(
      {{"src/z.cpp", "int a = rand();\nint b = rand();\n"},
       {"src/a.cpp", "void f() { abort(); }\n"}},
      opts);
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(r.findings[0].path, "src/a.cpp");
  EXPECT_EQ(r.findings[1].path, "src/z.cpp");
  EXPECT_EQ(r.findings[1].line, 1u);
  EXPECT_EQ(r.findings[2].path, "src/z.cpp");
  EXPECT_EQ(r.findings[2].line, 2u);
}

// --- SARIF -----------------------------------------------------------------

TEST(LintSarif, EmitsRuleCatalogAndPhysicalLocations) {
  const std::vector<Finding> fs = {
      {"src/a.cpp", 7, "raw-assert", "message with \"quotes\" and \\slash"}};
  const std::string j = toSarif(fs);
  EXPECT_NE(j.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(j.find("\"name\": \"ssm_lint\""), std::string::npos);
  EXPECT_NE(j.find("\"ruleId\": \"raw-assert\""), std::string::npos);
  EXPECT_NE(j.find("\"uri\": \"src/a.cpp\""), std::string::npos);
  EXPECT_NE(j.find("\"startLine\": 7"), std::string::npos);
  // Escaping round-trips quotes and backslashes.
  EXPECT_NE(j.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(j.find("\\\\slash"), std::string::npos);
  // Every registered rule is described in tool.driver.rules.
  for (const auto& r : ruleCatalog())
    EXPECT_NE(j.find("\"id\": \"" + std::string(r.id) + "\""),
              std::string::npos)
        << r.id;
}

TEST(LintSarif, EmptyFindingsStillProduceAValidRun) {
  const std::string j = toSarif({});
  EXPECT_NE(j.find("\"results\": [\n      ]"), std::string::npos);
}

}  // namespace
}  // namespace ssm::lint
