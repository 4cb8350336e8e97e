#include "ssm_lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <memory>
#include <set>

#include "ssm_lint/include_graph.hpp"
#include "ssm_lint/lexer.hpp"

namespace ssm::lint {

namespace {

constexpr std::array<RuleInfo, 17> kRules = {{
    {"pragma-once", "every header starts its include guard with #pragma once"},
    {"using-namespace-header",
     "no `using namespace` in headers (leaks into every includer)"},
    {"raw-assert",
     "src/ reports contract violations via SSM_CHECK/ContractError, never "
     "assert()/abort()"},
    {"nondeterminism",
     "no libc entropy or wall-clock reads (rand, srand, time(nullptr), "
     "std::random_device, *_clock::now) outside src/common/rng.* — "
     "simulations must be bit-reproducible"},
    {"hot-path-io",
     "no iostream/stdio in the epoch hot paths src/core/, src/gpusim/, "
     "src/engine/ and src/thermal/"},
    {"c-style-float-cast",
     "float/double narrowing must be spelled static_cast, not a C-style "
     "cast"},
    {"raw-thread",
     "no raw std::thread/std::jthread/std::async (or #include <thread>) "
     "outside src/sched/ — all concurrency goes through ssm::ThreadPool"},
    {"fault-hook-guard",
     "fault-hook dereferences in the epoch hot paths src/core/, src/gpusim/ "
     "and src/engine/ must sit behind a `!= nullptr` guard on the same or "
     "the preceding line, so a run without a FaultSpec costs one pointer "
     "comparison and zero RNG draws"},
    {"hot-path-alloc",
     "no heap allocation in the per-decision paths (src/nn/packed_mlp.hpp, "
     "src/core/ssm_governor.cpp, src/dc/dispatcher.cpp, "
     "src/dc/rack_power.cpp, src/thermal/thermal_model.cpp and "
     "src/thermal/thermal_throttle.cpp): no new/make_unique/make_shared/malloc, "
     "no container-growth member calls (resize, reserve, push_back, "
     "emplace_back, assign, insert, emplace), no by-value heap-container "
     "parameters or temporaries, and no std::function — preallocate at "
     "construction or in makeScratch()"},
    {"gpu-stepping",
     "no direct Gpu stepping (.runEpoch/.runEpochUniform/.runUntil calls) in "
     "src/ outside src/gpusim/, the SimBackend adapter "
     "(src/engine/sim_backend.*) and the fork engine (src/engine/fork.*), "
     "and no epoch-stream stepping (.nextEpoch calls) in src/ outside "
     "src/engine/ — branch machines through engine::GpuFork/GpuBranch or "
     "drive them through engine::EpochLoop so arbitration, trace recording, "
     "fault hooks and replay stay loop concerns"},
    {"layer-order",
     "the include graph must respect the checked-in layer map "
     "(tools/ssm_lint/layers.txt): a file may include same-layer or "
     "lower-layer files only, and every scanned file must belong to a layer"},
    {"include-cycle",
     "no cycles in the project include graph — a cycle means the layering "
     "is fiction and incremental builds are order-dependent"},
    {"unordered-iteration",
     "no iteration over std::unordered_{map,set,multimap,multiset} whose "
     "loop body feeds an output/serialization/accumulation sink — iteration "
     "order is unspecified and would leak into serialized bytes; sort keys "
     "first or use an ordered container"},
    {"float-equality",
     "no floating-point ==/!= against non-zero literals in src/ and tools/ "
     "— exact comparison against a rounded literal is a latent replay "
     "divergence; compare against an exactly-representable sentinel or use "
     "an epsilon (comparisons against 0.0 are the sanctioned mask/sentinel "
     "idiom)"},
    {"simd-intrinsics",
     "no raw SIMD intrinsics (<immintrin.h>/<arm_neon.h> includes, _mm*/"
     "__m<N>* identifiers, NEON v*q_* calls) outside the dispatch seam "
     "src/nn/simd* — vector code must stay behind the runtime-dispatched "
     "kernel tables so the scalar golden path and the same-result property "
     "tests keep covering it"},
    {"stale-allowlist",
     "every checked-in allowlist entry must suppress at least one finding; "
     "an entry that filters nothing is debt that hides future violations "
     "(remove it, or run --fix-stale)"},
    {"stale-waiver",
     "every inline waiver comment must suppress at least one finding on its "
     "own or the following line; a no-op waiver is debt that hides future "
     "violations (remove it, or run --fix-stale)"},
}};

/// Files under the zero-allocation contract of docs/inference.md: every
/// per-decision code path lives here, so any allocating construct is a
/// regression. Cold compile/scratch code belongs in packed_mlp.cpp (not
/// listed); justified cold spots inside these files carry an inline waiver.
/// The src/dc entries are the datacenter per-round decision paths: job
/// dispatch and the rack cap split both run every control round for every
/// GPU (docs/datacenter.md). The src/thermal entries run once per simulated
/// epoch on every governed chip: the RC integration step and the throttle
/// state machine (docs/thermal.md).
constexpr std::array<std::string_view, 7> kAllocFreeFiles = {
    "src/nn/packed_mlp.hpp",
    "src/nn/packed_int8.hpp",
    "src/core/ssm_governor.cpp",
    "src/dc/dispatcher.cpp",
    "src/dc/rack_power.cpp",
    "src/thermal/thermal_model.cpp",
    "src/thermal/thermal_throttle.cpp",
};

constexpr std::string_view kWaiverTag = "ssm-lint: allow(";

bool isSpace(char c) noexcept {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// Single-allocation concatenation. Also sidesteps GCC 12's -Wrestrict
/// false positive (PR105651) on `const char* + std::string&&` chains.
std::string cat(std::initializer_list<std::string_view> parts) {
  std::size_t len = 0;
  for (std::string_view p : parts) len += p.size();
  std::string out;
  out.reserve(len);
  for (std::string_view p : parts) out += p;
  return out;
}

/// Rules waived by one inline waiver comment. A tag waives its rules on the
/// comment's own line and on the following line (so the comment can sit
/// above the statement it covers).
struct Waiver {
  std::size_t line = 0;  ///< line the tag sits on
  std::string rule;
  bool used = false;
};

/// Parses every waiver tag out of one comment token's text. `base_line` is
/// the comment's first line; tags on later lines of a block comment are
/// attributed to their actual line.
void parseWaiverTags(std::string_view comment, std::size_t base_line,
                     std::vector<Waiver>& out) {
  std::size_t pos = 0;
  while ((pos = comment.find(kWaiverTag, pos)) != std::string_view::npos) {
    const std::size_t open = pos + kWaiverTag.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string_view::npos) break;
    std::size_t line = base_line;
    for (std::size_t k = 0; k < pos; ++k)
      if (comment[k] == '\n') ++line;
    std::string_view args = comment.substr(open, close - open);
    std::size_t start = 0;
    while (start <= args.size()) {
      std::size_t comma = args.find(',', start);
      if (comma == std::string_view::npos) comma = args.size();
      std::string rule(args.substr(start, comma - start));
      rule.erase(std::remove_if(rule.begin(), rule.end(), isSpace),
                 rule.end());
      if (!rule.empty()) out.push_back({line, rule, false});
      start = comma + 1;
    }
    pos = close;
  }
}

/// Per-file rule applicability derived from the repo-relative path.
struct PathClass {
  bool header = false;       // *.hpp
  bool in_src = false;       // src/**
  bool hot_path = false;     // src/core/**, src/gpusim/**, src/engine/** or
                             // src/thermal/**
  bool alloc_free = false;   // kAllocFreeFiles (packed decision path)
  bool gpu_stepper = false;  // src/gpusim/**, src/engine/sim_backend.* or
                             // src/engine/fork.* (may step a Gpu)
  bool in_engine = false;    // src/engine/** (may step an EpochSource)
  bool det_scope = false;    // src/** or tools/** (determinism dataflow rules)
  bool simd_scope = false;   // det_scope or bench/** (intrinsic containment)
};

PathClass classify(std::string_view path) {
  PathClass pc;
  pc.header = path.ends_with(".hpp");
  pc.in_src = path.starts_with("src/");
  pc.hot_path = path.starts_with("src/core/") ||
                path.starts_with("src/gpusim/") ||
                path.starts_with("src/engine/") ||
                path.starts_with("src/thermal/");
  pc.alloc_free = std::any_of(kAllocFreeFiles.begin(), kAllocFreeFiles.end(),
                              [&](std::string_view f) { return path == f; });
  pc.in_engine = path.starts_with("src/engine/");
  pc.gpu_stepper = path.starts_with("src/gpusim/") ||
                   path.starts_with("src/engine/sim_backend.") ||
                   path.starts_with("src/engine/fork.");
  pc.det_scope = pc.in_src || path.starts_with("tools/");
  pc.simd_scope = pc.det_scope || path.starts_with("bench/");
  return pc;
}

bool isFloatLiteral(const Token& t) {
  if (t.kind != TokKind::kNumber) return false;
  const std::string_view s = t.text;
  if (s.starts_with("0x") || s.starts_with("0X")) return false;
  if (s.find('.') != std::string_view::npos) return true;
  if (s.find('e') != std::string_view::npos ||
      s.find('E') != std::string_view::npos)
    return true;
  return s.ends_with("f") || s.ends_with("F");
}

/// True for literals that are exactly zero (0.0, 0., .0, 0.00f, 0e0, ...),
/// the sanctioned mask/sentinel comparison.
bool isZeroFloatLiteral(std::string_view s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == 'e' || c == 'E') break;       // exponent cannot un-zero a zero
    if (c == 'f' || c == 'F' || c == 'l' || c == 'L') continue;
    if (c != '0' && c != '.') return false;
  }
  return true;
}

/// Token-level per-file checker. Instances stay alive through lintRepo so
/// the graph passes can route their findings through the same waiver and
/// allowlist filtering, and so waiver-usage hygiene can run after all
/// passes have had a chance to mark waivers used.
class FileCheck {
 public:
  FileCheck(std::string_view path, std::string_view content,
            const std::vector<AllowEntry>& allow,
            std::vector<char>* allow_used)
      : path_(path),
        ts_(tokenize(content)),
        allow_(allow),
        allow_used_(allow_used),
        pc_(classify(path)) {
    includes_ = extractIncludes(ts_);
    for (const Token& t : ts_.tokens)
      if (t.kind == TokKind::kComment)
        parseWaiverTags(t.text, t.line, waivers_);
  }

  void runPerFilePasses() {
    if (pc_.header) checkPragmaOnce();
    checkIncludeDirectives();
    collectUnorderedNames();
    scanTokens();
  }

  /// Routes a (possibly repo-level) finding through this file's waiver and
  /// allowlist filtering, recording usage. Appends when not suppressed.
  void admit(std::size_t line, std::string_view rule, std::string message) {
    bool suppressed = false;
    for (Waiver& w : waivers_) {
      if ((w.line == line || w.line + 1 == line) &&
          (w.rule == "*" || w.rule == rule)) {
        w.used = true;
        suppressed = true;
      }
    }
    if (suppressed) return;
    for (std::size_t i = 0; i < allow_.size(); ++i) {
      const AllowEntry& e = allow_[i];
      if ((e.rule == "*" || e.rule == rule) &&
          path_.starts_with(e.path_prefix)) {
        if (allow_used_ != nullptr) (*allow_used_)[i] = 1;
        suppressed = true;
      }
    }
    if (suppressed) return;
    findings_.push_back(
        {std::string(path_), line, std::string(rule), std::move(message)});
  }

  /// Waivers that suppressed nothing, grouped per line. With
  /// `exempt_repo_rules` (single-file mode), waivers naming repo-level
  /// rules or "*" are skipped: the passes that could use them did not run.
  [[nodiscard]] std::vector<StaleWaiver> staleWaivers(
      bool exempt_repo_rules) const {
    std::map<std::size_t, std::vector<std::string>> by_line;
    for (const Waiver& w : waivers_) {
      if (w.used) continue;
      if (exempt_repo_rules && (w.rule == "*" || isRepoLevelRule(w.rule)))
        continue;
      by_line[w.line].push_back(w.rule);
    }
    std::vector<StaleWaiver> out;
    out.reserve(by_line.size());
    for (auto& [line, rules] : by_line)
      out.push_back({std::string(path_), line, std::move(rules)});
    return out;
  }

  [[nodiscard]] std::vector<Finding> takeFindings() {
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                if (a.line != b.line) return a.line < b.line;
                if (a.rule != b.rule) return a.rule < b.rule;
                return a.message < b.message;
              });
    return std::move(findings_);
  }

  [[nodiscard]] const std::vector<IncludeRef>& includes() const {
    return includes_;
  }

 private:
  // --- token helpers -------------------------------------------------------

  [[nodiscard]] std::size_t sigCount() const { return ts_.sig.size(); }

  [[nodiscard]] const Token& tok(std::size_t k) const {
    return ts_.tokens[ts_.sig[k]];
  }

  /// Text of significant token `k`, or "" when out of range.
  [[nodiscard]] std::string_view text(std::size_t k) const {
    return k < sigCount() ? tok(k).text : std::string_view();
  }

  /// True when significant token `k` is `std::` - qualified, i.e. the two
  /// preceding tokens are the identifier `std` and `::`.
  [[nodiscard]] bool precededByStd(std::size_t k) const {
    return k >= 2 && text(k - 1) == "::" && text(k - 2) == "std";
  }

  [[nodiscard]] bool precededByMemberAccess(std::size_t k) const {
    return k >= 1 && (text(k - 1) == "." || text(k - 1) == "->");
  }

  /// Index just past a balanced template-argument list starting at `k`
  /// (which must be "<"); returns `k` unchanged when text(k) != "<".
  [[nodiscard]] std::size_t skipTemplateArgs(std::size_t k) const {
    if (text(k) != "<") return k;
    std::size_t depth = 0;
    while (k < sigCount()) {
      if (text(k) == "<") ++depth;
      if (text(k) == ">" && --depth == 0) return k + 1;
      ++k;
    }
    return k;
  }

  // --- reporting -----------------------------------------------------------

  void report(std::size_t line, std::string_view rule, std::string message) {
    admit(line, rule, std::move(message));
  }

  void reportNondet(std::size_t line, std::string what) {
    report(line, "nondeterminism",
           cat({"nondeterministic source '", what,
                "' breaks bit-reproducible simulation; draw from ssm::Rng "
                "(src/common/rng.hpp) or allowlist this file"}));
  }

  void reportAlloc(std::size_t line, std::string what) {
    report(line, "hot-path-alloc",
           cat({what,
                " on the packed decision path; preallocate at construction "
                "or in makeScratch(), or move the code off the hot path "
                "(docs/inference.md)"}));
  }

  // --- passes --------------------------------------------------------------

  void checkPragmaOnce() {
    for (std::size_t k = 0; k + 2 < sigCount(); ++k) {
      if (tok(k).kind == TokKind::kPunct && text(k) == "#" &&
          tok(k).at_line_start && text(k + 1) == "pragma" &&
          text(k + 2) == "once")
        return;
    }
    report(1, "pragma-once", "header is missing '#pragma once'");
  }

  void checkIncludeDirectives() {
    for (const IncludeRef& inc : includes_) {
      if (!inc.system) continue;
      if (pc_.hot_path &&
          (inc.target == "iostream" || inc.target == "cstdio" ||
           inc.target == "stdio.h" || inc.target == "ostream" ||
           inc.target == "istream"))
        report(inc.line, "hot-path-io",
               cat({"stream/stdio header <", inc.target,
                    "> included in an epoch hot path; do I/O outside "
                    "src/core/ and src/gpusim/"}));
      if (pc_.simd_scope &&
          (inc.target == "immintrin.h" || inc.target == "x86intrin.h" ||
           inc.target == "emmintrin.h" || inc.target == "xmmintrin.h" ||
           inc.target == "arm_neon.h"))
        report(inc.line, "simd-intrinsics",
               cat({"intrinsic header <", inc.target,
                    "> outside src/nn/simd*; vector code belongs behind the "
                    "runtime-dispatched kernel tables (src/nn/simd.hpp)"}));
      if (inc.target == "thread")
        report(inc.line, "raw-thread",
               "#include <thread> outside src/sched/; parallelise through "
               "ssm::ThreadPool (src/sched/thread_pool.hpp)");
    }
  }

  /// Names declared in this file with an unordered-container type. Feeds
  /// the unordered-iteration pass; member and local declarations both
  /// register (`std::unordered_map<K, V> name` after template args).
  void collectUnorderedNames() {
    static constexpr std::array<std::string_view, 4> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    for (std::size_t k = 0; k < sigCount(); ++k) {
      if (tok(k).kind != TokKind::kIdentifier) continue;
      if (std::find(kUnordered.begin(), kUnordered.end(), text(k)) ==
          kUnordered.end())
        continue;
      const std::size_t after = skipTemplateArgs(k + 1);
      if (after < sigCount() && tok(after).kind == TokKind::kIdentifier)
        unordered_names_.insert(std::string(text(after)));
    }
  }

  void scanTokens() {
    std::size_t paren_depth = 0;
    for (std::size_t k = 0; k < sigCount(); ++k) {
      const Token& t = tok(k);
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(") ++paren_depth;
        if (t.text == ")" && paren_depth > 0) --paren_depth;
        if (pc_.det_scope && (t.text == "==" || t.text == "!="))
          checkFloatEquality(k);
        continue;
      }
      if (t.kind != TokKind::kIdentifier) continue;
      const std::string_view word = t.text;
      const bool call = text(k + 1) == "(";

      if (word == "using" && pc_.header && text(k + 1) == "namespace")
        report(t.line, "using-namespace-header",
               "'using namespace' in a header injects names into every "
               "includer; qualify names instead");

      if (pc_.in_src && call && (word == "assert" || word == "abort"))
        report(t.line, "raw-assert",
               cat({"'", word,
                    "(' aborts the process; throw via SSM_CHECK/ContractError "
                    "instead (src/common/check.hpp)"}));

      if (call && (word == "rand" || word == "srand"))
        reportNondet(t.line, cat({word, "()"}));
      if (word == "time" && call) checkTimeNull(k);
      if (word == "random_device") reportNondet(t.line, "std::random_device");
      if (word.ends_with("_clock") && text(k + 1) == "::" &&
          text(k + 2) == "now")
        reportNondet(t.line, cat({word, "::now()"}));

      if (pc_.hot_path && (word == "cout" || word == "cerr" ||
                           word == "clog" ||
                           (call && (word == "printf" || word == "fprintf" ||
                                     word == "puts"))))
        report(t.line, "hot-path-io",
               cat({"'", word,
                    "' in an epoch hot path; do I/O outside src/core/ and "
                    "src/gpusim/"}));

      if ((word == "float" || word == "double") && text(k - 1) == "(" &&
          k >= 1 && text(k + 1) == ")")
        checkCStyleCast(k, word);

      if (pc_.simd_scope && looksLikeIntrinsic(word))
        report(t.line, "simd-intrinsics",
               cat({"raw SIMD intrinsic '", word,
                    "' outside src/nn/simd*; vector code belongs behind the "
                    "runtime-dispatched kernel tables (src/nn/simd.hpp)"}));

      if ((word == "thread" || word == "jthread" || word == "async") &&
          precededByStd(k))
        report(t.line, "raw-thread",
               cat({"raw 'std::", word,
                    "' outside src/sched/; all concurrency goes through "
                    "ssm::ThreadPool (src/sched/thread_pool.hpp)"}));

      if (pc_.hot_path && text(k + 1) == "->" && namesFaultHook(word))
        checkFaultHookGuard(k, word);

      if (pc_.in_src && !pc_.gpu_stepper && call &&
          (word == "runEpoch" || word == "runEpochUniform" ||
           word == "runUntil") &&
          precededByMemberAccess(k))
        report(t.line, "gpu-stepping",
               cat({"direct Gpu stepping '.", word,
                    "(' outside src/gpusim/ and the engine's stepping sites "
                    "(src/engine/sim_backend.*, src/engine/fork.*); branch "
                    "machines through engine::GpuFork/GpuBranch or drive "
                    "them through engine::EpochLoop, or allowlist this "
                    "file"}));
      if (pc_.in_src && !pc_.in_engine && call && word == "nextEpoch" &&
          precededByMemberAccess(k))
        report(t.line, "gpu-stepping",
               "epoch-stream stepping '.nextEpoch(' outside src/engine/; "
               "drive the source through engine::EpochLoop so arbitration, "
               "fault hooks and traces stay loop concerns, or allowlist this "
               "file");

      if (pc_.alloc_free) checkHotPathAlloc(k, word, call, paren_depth);

      if (pc_.det_scope && word == "for" && text(k + 1) == "(")
        checkUnorderedIteration(k);
    }
  }

  /// Heap-allocating constructs banned from the packed decision path: the
  /// `new` keyword in any form, the allocating factories/libc allocators,
  /// container-growth member calls, by-value heap-container parameters or
  /// temporaries, and std::function (whose construction may allocate).
  void checkHotPathAlloc(std::size_t k, std::string_view word, bool call,
                         std::size_t paren_depth) {
    static constexpr std::array<std::string_view, 6> kAllocCalls = {
        "make_unique", "make_shared", "malloc", "calloc", "realloc", "strdup"};
    static constexpr std::array<std::string_view, 7> kGrowthCalls = {
        "resize",      "reserve", "push_back", "emplace_back",
        "assign",      "insert",  "emplace"};
    static constexpr std::array<std::string_view, 11> kHeapContainers = {
        "vector", "string",        "deque",         "map",     "set",
        "list",   "unordered_map", "unordered_set", "multimap", "multiset",
        "basic_string"};
    const std::size_t line = tok(k).line;
    if (word == "new") {
      reportAlloc(line, "'new' expression");
      return;
    }
    const bool callish = call || text(k + 1) == "<";
    if (callish && std::find(kAllocCalls.begin(), kAllocCalls.end(), word) !=
                       kAllocCalls.end()) {
      reportAlloc(line, cat({"'", word, "(' call"}));
      return;
    }
    if (call &&
        std::find(kGrowthCalls.begin(), kGrowthCalls.end(), word) !=
            kGrowthCalls.end() &&
        precededByMemberAccess(k)) {
      reportAlloc(line, cat({"container growth '.", word, "(' call"}));
      return;
    }
    if (word == "function" && precededByStd(k)) {
      reportAlloc(line, "'std::function' (type-erased callables allocate)");
      return;
    }
    // By-value container parameter or temporary: a std::-qualified heap
    // container inside a parenthesized context whose declarator is not a
    // reference/pointer. `const std::vector<double>& v` and
    // `std::vector<double>::size_type` pass; `std::vector<double> v` and
    // `f(std::string(x))` do not. '>' and ',' follow a container used as a
    // template argument (the enclosing type is judged on its own).
    if (paren_depth >= 1 && precededByStd(k) &&
        std::find(kHeapContainers.begin(), kHeapContainers.end(), word) !=
            kHeapContainers.end()) {
      const std::size_t after = skipTemplateArgs(k + 1);
      const std::string_view next = text(after);
      if (next != "&" && next != "*" && next != "&&" && next != "::" &&
          next != ">" && next != "," && !next.empty())
        reportAlloc(line, cat({"by-value 'std::", word,
                               "' parameter or temporary"}));
    }
  }

  /// Identifiers that spell a raw vector intrinsic or vector register type:
  /// the x86 _mm*/_mm256_*/_mm512_* operations and __m<N> types, NEON's
  /// v<op>q_<lane> operations (vmaxq_f64, vld1q_f32, ...) and its
  /// <elem>x<lanes>_t vector types (float64x2_t, int32x4_t, ...).
  [[nodiscard]] static bool looksLikeIntrinsic(std::string_view word) {
    if (word.starts_with("_mm")) return true;
    if (word.starts_with("__m") && word.size() > 3 &&
        std::isdigit(static_cast<unsigned char>(word[3])) != 0)
      return true;
    static constexpr std::array<std::string_view, 12> kLaneSuffixes = {
        "_f64", "_s64", "_u64", "_f32", "_s32", "_u32",
        "_f16", "_s16", "_u16", "_s8",  "_u8",  "_p8"};
    // NEON ops are v<op>q_<...>_<lane>: the first underscore comes right
    // after the q (vmaxq_f64, vdupq_n_f64) — which keeps repo-style names
    // like volt_freq_u32 out of the net.
    const std::size_t us = word.find('_');
    if (word.size() > 3 && word.front() == 'v' &&
        us != std::string_view::npos && us > 1 && word[us - 1] == 'q') {
      for (std::string_view s : kLaneSuffixes)
        if (word.ends_with(s)) return true;
    }
    if ((word.starts_with("float") || word.starts_with("int") ||
         word.starts_with("uint") || word.starts_with("poly")) &&
        (word.ends_with("x2_t") || word.ends_with("x4_t") ||
         word.ends_with("x8_t") || word.ends_with("x16_t")))
      return true;
    return false;
  }

  /// Identifiers that look like fault-hook pointers ("faults", "fault_hook",
  /// "myFaultHook", ...), case-insensitive.
  [[nodiscard]] static bool namesFaultHook(std::string_view word) {
    std::string lower(word);
    std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
      return static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    });
    return lower.find("fault") != std::string::npos;
  }

  /// The zero-cost contract of gpusim/fault_hook.hpp: every `faults->...`
  /// in a hot path must be dominated by a `!= nullptr` test close enough to
  /// audit at a glance — we require `nullptr` to appear on the same or the
  /// preceding line (`if (faults != nullptr) faults->...` or the ternary
  /// idiom).
  void checkFaultHookGuard(std::size_t k, std::string_view word) {
    const std::size_t line = tok(k).line;
    const std::size_t low = line > 1 ? line - 1 : 1;
    for (std::size_t b = k; b-- > 0 && tok(b).line >= low;)
      if (text(b) == "nullptr") return;
    for (std::size_t f = k + 1; f < sigCount() && tok(f).line <= line; ++f)
      if (text(f) == "nullptr") return;
    report(line, "fault-hook-guard",
           cat({"'", word,
                "->' in an epoch hot path without a visible '!= nullptr' "
                "guard; fault hooks must compile out to one pointer "
                "comparison when no FaultSpec is active"}));
  }

  void checkTimeNull(std::size_t k) {
    const std::string_view arg = text(k + 2);
    if ((arg == "nullptr" || arg == "NULL" || arg == "0") &&
        text(k + 3) == ")")
      reportNondet(tok(k).line, cat({"time(", arg, ")"}));
  }

  void checkCStyleCast(std::size_t k, std::string_view word) {
    // "(float)" / "(double)" followed by an expression start is a C-style
    // cast. Prototypes like "f(double);" fail the follow-set test.
    if (k + 2 >= sigCount()) return;
    const Token& follow = tok(k + 2);
    const bool expr_start =
        follow.kind == TokKind::kIdentifier ||
        follow.kind == TokKind::kNumber || follow.text == "(" ||
        follow.text == "." || follow.text == "-" || follow.text == "+";
    if (expr_start)
      report(tok(k - 1).line, "c-style-float-cast",
             cat({"C-style cast to '", word, "' hides narrowing; write "
                  "static_cast<", word, ">(...)"}));
  }

  void checkFloatEquality(std::size_t k) {
    const Token* lit = nullptr;
    if (k >= 1 && isFloatLiteral(tok(k - 1))) lit = &tok(k - 1);
    if (k + 1 < sigCount() && isFloatLiteral(tok(k + 1))) lit = &tok(k + 1);
    if (lit == nullptr || isZeroFloatLiteral(lit->text)) return;
    report(tok(k).line, "float-equality",
           cat({"floating-point '", text(k), "' against literal '", lit->text,
                "' is a latent replay divergence; compare against an "
                "exactly-representable sentinel or use an epsilon"}));
  }

  /// Range-for over a declared unordered container whose body reaches an
  /// output/serialization/accumulation sink. Iterator-style loops over
  /// .begin() are out of scope (none exist in the tree; see docs).
  void checkUnorderedIteration(std::size_t k) {
    if (unordered_names_.empty()) return;
    // Find the range-for's closing paren and its top-level ':'.
    std::size_t depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t m = k + 1; m < sigCount(); ++m) {
      const std::string_view s = text(m);
      if (s == "(") {
        ++depth;
      } else if (s == ")") {
        if (--depth == 0) {
          close = m;
          break;
        }
      } else if (s == ":" && depth == 1 && colon == 0) {
        colon = m;
      }
    }
    if (close == 0 || colon == 0) return;  // not a range-for
    // Last identifier of the range expression names the container
    // (`m`, `this->counts_`, `obj.map_` all end in the member name).
    std::string range_name;
    for (std::size_t m = colon + 1; m < close; ++m)
      if (tok(m).kind == TokKind::kIdentifier) range_name = text(m);
    if (unordered_names_.count(range_name) == 0) return;
    // Body: a braced block or a single statement up to ';'.
    std::size_t body_end = close + 1;
    if (text(close + 1) == "{") {
      std::size_t bdepth = 0;
      for (std::size_t m = close + 1; m < sigCount(); ++m) {
        if (text(m) == "{") ++bdepth;
        if (text(m) == "}" && --bdepth == 0) {
          body_end = m;
          break;
        }
      }
    } else {
      while (body_end < sigCount() && text(body_end) != ";") ++body_end;
    }
    for (std::size_t m = close + 1; m <= body_end && m < sigCount(); ++m) {
      const std::string_view sink = sinkAt(m);
      if (sink.empty()) continue;
      report(tok(k).line, "unordered-iteration",
             cat({"iteration over unordered container '", range_name,
                  "' feeds sink '", sink,
                  "'; iteration order is unspecified and would leak into "
                  "the output — sort the keys first or use an ordered "
                  "container"}));
      return;
    }
  }

  /// Returns the sink spelling when significant token `m` is an
  /// output/serialization/accumulation sink, else "".
  [[nodiscard]] std::string_view sinkAt(std::size_t m) const {
    static constexpr std::array<std::string_view, 11> kSinkPrefixes = {
        "write", "print",  "serial", "emit",  "append", "push_",
        "emplace", "insert", "add",    "accum", "log"};
    const Token& t = tok(m);
    if (t.kind == TokKind::kPunct && (t.text == "<<" || t.text == "+="))
      return t.text;
    if (t.kind == TokKind::kIdentifier && text(m + 1) == "(") {
      for (std::string_view p : kSinkPrefixes)
        if (t.text.starts_with(p)) return t.text;
    }
    return {};
  }

  std::string_view path_;
  TokenStream ts_;
  const std::vector<AllowEntry>& allow_;
  std::vector<char>* allow_used_;
  PathClass pc_;
  std::vector<IncludeRef> includes_;
  std::vector<Waiver> waivers_;
  std::set<std::string> unordered_names_;
  std::vector<Finding> findings_;
};

std::string staleWaiverMessage(const StaleWaiver& w) {
  std::string rules;
  for (std::size_t i = 0; i < w.rules.size(); ++i)
    rules += (i != 0 ? ", " : "") + w.rules[i];
  return cat({"inline waiver for '", rules,
              "' suppresses nothing; remove it or run --fix-stale"});
}

}  // namespace

std::vector<RuleInfo> ruleCatalog() {
  return std::vector<RuleInfo>(kRules.begin(), kRules.end());
}

bool isKnownRule(std::string_view rule) {
  if (rule == "*") return true;
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleInfo& r) { return r.id == rule; });
}

bool isRepoLevelRule(std::string_view rule) {
  return rule == "layer-order" || rule == "include-cycle" ||
         rule == "stale-allowlist" || rule == "stale-waiver";
}

std::vector<AllowEntry> parseAllowlist(std::string_view text) {
  std::vector<AllowEntry> out;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    ++line_no;
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    std::size_t a = 0;
    while (a < line.size() && isSpace(line[a])) ++a;
    if (a >= line.size()) continue;
    std::size_t b = a;
    while (b < line.size() && !isSpace(line[b])) ++b;
    std::string rule(line.substr(a, b - a));
    std::size_t c = b;
    while (c < line.size() && isSpace(line[c])) ++c;
    if (c >= line.size())
      throw AllowlistError(cat({"allowlist line ", std::to_string(line_no),
                                ": expected '<rule|*> <path-prefix>'"}));
    std::size_t d = c;
    while (d < line.size() && !isSpace(line[d])) ++d;
    std::string path(line.substr(c, d - c));
    std::size_t e = d;
    while (e < line.size() && isSpace(line[e])) ++e;
    if (e < line.size())
      throw AllowlistError(cat({"allowlist line ", std::to_string(line_no),
                                ": trailing tokens after path prefix"}));
    if (!isKnownRule(rule))
      throw AllowlistError(cat({"allowlist line ", std::to_string(line_no),
                                ": unknown rule '", rule, "'"}));
    if (path.starts_with("./")) path.erase(0, 2);
    out.push_back({std::move(rule), std::move(path), line_no});
  }
  return out;
}

std::vector<Finding> lintSource(std::string_view path, std::string_view content,
                                const std::vector<AllowEntry>& allow) {
  FileCheck check(path, content, allow, nullptr);
  check.runPerFilePasses();
  auto findings = check.takeFindings();
  for (const StaleWaiver& w : check.staleWaivers(/*exempt_repo_rules=*/true))
    findings.push_back({w.path, w.line, "stale-waiver", staleWaiverMessage(w)});
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

RepoLintResult lintRepo(const std::vector<SourceFile>& files,
                        const RepoLintOptions& opts) {
  const std::vector<AllowEntry> allow =
      opts.allowlist_text.empty() ? std::vector<AllowEntry>{}
                                  : parseAllowlist(opts.allowlist_text);
  std::vector<char> allow_used(allow.size(), 0);

  std::vector<std::unique_ptr<FileCheck>> checks;
  std::map<std::string, FileCheck*> by_path;
  std::map<std::string, std::vector<IncludeRef>> inc_map;
  checks.reserve(files.size());
  for (const SourceFile& f : files) {
    checks.push_back(
        std::make_unique<FileCheck>(f.path, f.content, allow, &allow_used));
    checks.back()->runPerFilePasses();
    by_path[f.path] = checks.back().get();
    inc_map[f.path] = checks.back()->includes();
  }

  if (!opts.layers_text.empty()) {
    const LayerMap layers = parseLayerMap(opts.layers_text);
    for (const GraphFinding& g : runGraphPasses(inc_map, layers)) {
      const auto it = by_path.find(g.path);
      if (it != by_path.end()) it->second->admit(g.line, g.rule, g.message);
    }
  }

  RepoLintResult result;
  for (auto& check : checks)
    for (Finding& f : check->takeFindings())
      result.findings.push_back(std::move(f));

  // Hygiene: waivers and allowlist entries must earn their keep.
  for (const auto& check : checks) {
    for (StaleWaiver& w : check->staleWaivers(/*exempt_repo_rules=*/false)) {
      result.findings.push_back(
          {w.path, w.line, "stale-waiver", staleWaiverMessage(w)});
      result.stale_waivers.push_back(std::move(w));
    }
  }
  for (std::size_t i = 0; i < allow.size(); ++i) {
    if (allow_used[i] != 0) continue;
    result.stale_allowlist_lines.push_back(allow[i].line);
    result.findings.push_back(
        {opts.allowlist_path, allow[i].line, "stale-allowlist",
         cat({"allowlist entry '", allow[i].rule, " ", allow[i].path_prefix,
              "' suppresses nothing; remove it or run --fix-stale"})});
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return result;
}

std::string removeAllowlistLines(std::string_view text,
                                 const std::vector<std::size_t>& lines) {
  std::string out;
  out.reserve(text.size());
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    const bool last = eol == std::string_view::npos;
    if (last) eol = text.size();
    ++line_no;
    if (std::find(lines.begin(), lines.end(), line_no) == lines.end()) {
      out += text.substr(pos, eol - pos);
      if (!last) out += '\n';
    }
    if (last) break;
    pos = eol + 1;
  }
  return out;
}

std::optional<std::string> removeStaleWaiver(std::string_view content,
                                             const StaleWaiver& w) {
  // Locate line w.line.
  std::size_t pos = 0;
  for (std::size_t l = 1; l < w.line; ++l) {
    pos = content.find('\n', pos);
    if (pos == std::string_view::npos) return std::nullopt;
    ++pos;
  }
  std::size_t eol = content.find('\n', pos);
  if (eol == std::string_view::npos) eol = content.size();
  const std::string_view line = content.substr(pos, eol - pos);

  const std::size_t tag = line.find(kWaiverTag);
  if (tag == std::string_view::npos) return std::nullopt;
  const std::size_t slashes = line.rfind("//", tag);
  if (slashes == std::string_view::npos) return std::nullopt;  // block comment
  const std::size_t close = line.find(')', tag);
  if (close == std::string_view::npos) return std::nullopt;

  // Which rules does the comment name, and which survive?
  std::vector<Waiver> present;
  parseWaiverTags(line.substr(tag), 1, present);
  std::vector<std::string> survivors;
  for (const Waiver& p : present)
    if (std::find(w.rules.begin(), w.rules.end(), p.rule) == w.rules.end())
      survivors.push_back(p.rule);

  std::string new_line;
  if (survivors.empty()) {
    // Drop the whole comment; drop the whole line if only whitespace is left.
    new_line = std::string(line.substr(0, slashes));
    while (!new_line.empty() && isSpace(new_line.back())) new_line.pop_back();
    if (new_line.empty()) {
      std::string out(content.substr(0, pos));
      out += content.substr(eol < content.size() ? eol + 1 : eol);
      return out;
    }
  } else {
    std::string args;
    for (std::size_t i = 0; i < survivors.size(); ++i)
      args += (i != 0 ? ", " : "") + survivors[i];
    new_line = cat({line.substr(0, tag), kWaiverTag, args,
                    line.substr(close)});
  }
  std::string out(content.substr(0, pos));
  out += new_line;
  out += content.substr(eol);
  return out;
}

std::string formatFinding(const Finding& f) {
  return cat({f.path, ":", std::to_string(f.line), ": warning: ", f.message,
              " [", f.rule, "]"});
}

}  // namespace ssm::lint
