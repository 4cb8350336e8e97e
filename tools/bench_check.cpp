// bench_check — guardrail for the machine-readable benchmark reports.
//
// The bench binaries emit flat JSON reports (one object of string/number
// fields): bench_micro_perf writes BENCH_inference.json, bench_dc writes
// BENCH_dc.json. This tool compares a freshly generated report against the
// committed baseline in bench/baselines/ and fails when the measured layer
// regresses:
//
//   * structural fields (model names, FLOP counts, rack shape) must match
//     the baseline exactly — they are machine-independent and any drift
//     means the compiled configuration changed;
//   * timing fields (..._ns, ..._per_sec, speedup_...) plus any keys named
//     via --approx must stay within a multiplicative tolerance band of the
//     baseline (default 4x either way: the baseline was recorded on a
//     noisy single-core VM and CI boxes differ);
//   * keys listed in --floors must clear an absolute minimum and keys in
//     --ceilings must stay under an absolute maximum — the acceptance
//     criteria that hold on any machine (back-to-back timing ratios,
//     bounded violation fractions). Every gate states its bounds
//     explicitly; there are no built-in floors;
//   * the "simd_tier" field is machine-dependent (which vector kernels the
//     runtime dispatcher selected: "avx2", "neon" or "scalar") and is
//     reported, never compared. Bounds given via --simd-floors /
//     --simd-ceilings apply only when the fresh report's simd_tier is a
//     vector tier; on a scalar host (or under SSMDVFS_FORCE_SCALAR=1)
//     they are waived, so the SIMD acceptance numbers cannot fail a
//     machine that never ran the SIMD kernels.
//
// Usage:
//   bench_check [--baseline FILE] [--fresh FILE] [--tolerance X]
//               [--floors key=min[,key=min...]]
//               [--ceilings key=max[,key=max...]]
//               [--simd-floors key=min[,key=min...]]
//               [--simd-ceilings key=max[,key=max...]]
//               [--approx key[,key...]]
//               [--run BENCH_BINARY] [--out-env VAR]
//
// Defaults compare ./BENCH_inference.json against
// bench/baselines/BENCH_inference.json. With --run, the tool first launches
// the given bench binary (with --benchmark_filter=__none__ so only the
// report generator executes) to produce the fresh file, pointing the
// binary at it through the environment variable named by --out-env
// (default SSM_BENCH_INFERENCE_OUT); that mode is gated on
// SSM_BENCH_CHECK=1 in the environment and exits 77 (the ctest skip code)
// when unset, so the default test suite stays fast and deterministic while
// `SSM_BENCH_CHECK=1 ctest -R 'bench_.*_check'` runs the full tier-2
// regression gates.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

constexpr int kExitSkip = 77;  ///< ctest SKIP_RETURN_CODE

/// One parsed JSON scalar: flat reports only ever hold strings and numbers.
struct Value {
  bool is_string = false;
  std::string str;
  double num = 0.0;
};

using Report = std::map<std::string, Value>;

/// Minimal parser for the flat one-object JSON bench_micro_perf writes.
/// Rejects anything nested; this is a schema check as much as a parser.
bool parseFlatJson(const std::string& path, Report& out, std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot open " + path;
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::size_t i = 0;
  auto skipWs = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) != 0)
      ++i;
  };
  auto parseString = [&](std::string& s) {
    if (i >= text.size() || text[i] != '"') return false;
    ++i;
    s.clear();
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') return false;  // report strings are escape-free
      s.push_back(text[i++]);
    }
    if (i >= text.size()) return false;
    ++i;
    return true;
  };
  skipWs();
  if (i >= text.size() || text[i] != '{') {
    err = path + ": expected '{'";
    return false;
  }
  ++i;
  skipWs();
  if (i < text.size() && text[i] == '}') return true;  // empty object
  while (true) {
    skipWs();
    std::string key;
    if (!parseString(key)) {
      err = path + ": expected quoted key";
      return false;
    }
    skipWs();
    if (i >= text.size() || text[i] != ':') {
      err = path + ": expected ':' after \"" + key + "\"";
      return false;
    }
    ++i;
    skipWs();
    Value v;
    if (i < text.size() && text[i] == '"') {
      v.is_string = true;
      if (!parseString(v.str)) {
        err = path + ": bad string value for \"" + key + "\"";
        return false;
      }
    } else {
      const char* begin = text.c_str() + i;
      char* end = nullptr;
      v.num = std::strtod(begin, &end);
      if (end == begin) {
        err = path + ": bad numeric value for \"" + key + "\"";
        return false;
      }
      i += static_cast<std::size_t>(end - begin);
    }
    out[key] = v;
    skipWs();
    if (i < text.size() && text[i] == ',') {
      ++i;
      continue;
    }
    if (i < text.size() && text[i] == '}') return true;
    err = path + ": expected ',' or '}' after \"" + key + "\"";
    return false;
  }
}

/// Timing fields ride the tolerance band; everything else is exact.
bool isTimingKey(const std::string& key) {
  auto endsWith = [&](const char* suffix) {
    const std::string s = suffix;
    return key.size() >= s.size() &&
           key.compare(key.size() - s.size(), s.size(), s) == 0;
  };
  return endsWith("_ns") || endsWith("_per_sec") ||
         key.rfind("speedup_", 0) == 0;
}

struct Options {
  std::string baseline = "bench/baselines/BENCH_inference.json";
  std::string fresh = "BENCH_inference.json";
  std::string run_binary;  ///< when set, regenerate `fresh` first
  std::string out_env = "SSM_BENCH_INFERENCE_OUT";
  double tolerance = 4.0;
  std::map<std::string, double> floors;
  std::map<std::string, double> ceilings;
  std::map<std::string, double> simd_floors;    ///< waived on scalar hosts
  std::map<std::string, double> simd_ceilings;  ///< waived on scalar hosts
  std::vector<std::string> approx;  ///< extra keys on the tolerance band
};

/// Splits "key=1.5,other=2" into a map. Returns false on a malformed item.
bool parseBounds(const std::string& text, std::map<std::string, double>& out,
                 const std::string& flag) {
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "bench_check: %s expects key=value, got \"%s\"\n",
                   flag.c_str(), item.c_str());
      return false;
    }
    out[item.substr(0, eq)] = std::strtod(item.c_str() + eq + 1, nullptr);
  }
  return true;
}

bool parseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_check: %s needs a value\n", key.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* val = nullptr;
    if (key == "--baseline") {
      if ((val = next()) == nullptr) return false;
      opt.baseline = val;
    } else if (key == "--fresh") {
      if ((val = next()) == nullptr) return false;
      opt.fresh = val;
    } else if (key == "--run") {
      if ((val = next()) == nullptr) return false;
      opt.run_binary = val;
    } else if (key == "--out-env") {
      if ((val = next()) == nullptr) return false;
      opt.out_env = val;
    } else if (key == "--floors") {
      if ((val = next()) == nullptr) return false;
      if (!parseBounds(val, opt.floors, key)) return false;
    } else if (key == "--ceilings") {
      if ((val = next()) == nullptr) return false;
      if (!parseBounds(val, opt.ceilings, key)) return false;
    } else if (key == "--simd-floors") {
      if ((val = next()) == nullptr) return false;
      if (!parseBounds(val, opt.simd_floors, key)) return false;
    } else if (key == "--simd-ceilings") {
      if ((val = next()) == nullptr) return false;
      if (!parseBounds(val, opt.simd_ceilings, key)) return false;
    } else if (key == "--approx") {
      if ((val = next()) == nullptr) return false;
      std::stringstream ss{std::string(val)};
      std::string item;
      while (std::getline(ss, item, ','))
        if (!item.empty()) opt.approx.push_back(item);
    } else if (key == "--tolerance") {
      if ((val = next()) == nullptr) return false;
      opt.tolerance = std::strtod(val, nullptr);
    } else {
      std::fprintf(stderr, "bench_check: unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (opt.tolerance < 1.0) {
    std::fprintf(stderr, "bench_check: --tolerance must be >= 1\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parseArgs(argc, argv, opt)) return 2;

  if (!opt.run_binary.empty()) {
    if (std::getenv("SSM_BENCH_CHECK") == nullptr) {
      std::printf(
          "bench_check: skipped (set SSM_BENCH_CHECK=1 to run the tier-2 "
          "inference benchmark gate)\n");
      return kExitSkip;
    }
    ::setenv(opt.out_env.c_str(), opt.fresh.c_str(), 1);
    // __none__ matches no registered benchmark, so only the report
    // generator in bench_micro_perf's main runs.
    const std::string cmd = opt.run_binary + " --benchmark_filter=__none__";
    std::printf("bench_check: running %s\n", cmd.c_str());
    const int rc = std::system(cmd.c_str());
    if (rc != 0) {
      std::fprintf(stderr, "bench_check: bench run failed (exit %d)\n", rc);
      return 1;
    }
  }

  Report base;
  Report fresh;
  std::string err;
  if (!parseFlatJson(opt.baseline, base, err) ||
      !parseFlatJson(opt.fresh, fresh, err)) {
    std::fprintf(stderr, "bench_check: %s\n", err.c_str());
    return 1;
  }

  int failures = 0;
  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "FAIL  %s\n", msg.c_str());
    ++failures;
  };

  // Schema: the two reports must carry the same field set, so a field
  // silently dropped from the generator cannot pass unnoticed.
  for (const auto& [key, v] : base) {
    (void)v;
    if (fresh.find(key) == fresh.end())
      fail(key + ": present in baseline, missing from fresh report");
  }
  for (const auto& [key, v] : fresh) {
    (void)v;
    if (base.find(key) == base.end())
      fail(key + ": present in fresh report, missing from baseline");
  }

  for (const auto& [key, bv] : base) {
    const auto it = fresh.find(key);
    if (it == fresh.end()) continue;
    const Value& fv = it->second;
    if (bv.is_string != fv.is_string) {
      fail(key + ": type changed between baseline and fresh report");
      continue;
    }
    if (bv.is_string) {
      if (key == "simd_tier") {
        // Which vector kernels the runtime dispatcher picked — a property
        // of the host, not of the code. Reported for the record; the
        // --simd-floors / --simd-ceilings gating below keys off the fresh
        // value.
        std::printf("info  %-32s %s (baseline recorded %s)\n", key.c_str(),
                    fv.str.c_str(), bv.str.c_str());
      } else if (bv.str != fv.str) {
        fail(key + ": \"" + fv.str + "\" != baseline \"" + bv.str + "\"");
      } else {
        std::printf("ok    %-32s %s\n", key.c_str(), fv.str.c_str());
      }
      continue;
    }
    const bool banded =
        isTimingKey(key) ||
        std::find(opt.approx.begin(), opt.approx.end(), key) !=
            opt.approx.end();
    if (banded) {
      // A zero baseline only ever matches zero (e.g. unfinished == 0).
      const double ratio =
          bv.num != 0.0 ? fv.num / bv.num : (fv.num == 0.0 ? 1.0 : 0.0);
      if (!(ratio >= 1.0 / opt.tolerance && ratio <= opt.tolerance)) {
        std::ostringstream msg;
        msg << key << ": " << fv.num << " vs baseline " << bv.num << " ("
            << ratio << "x, tolerance " << opt.tolerance << "x)";
        fail(msg.str());
      } else {
        std::printf("ok    %-32s %g (baseline %g, %0.2fx)\n", key.c_str(),
                    fv.num, bv.num, ratio);
      }
    } else if (fv.num != bv.num) {
      std::ostringstream msg;
      msg << key << ": " << fv.num << " != baseline " << bv.num
          << " (structural field, exact match required)";
      fail(msg.str());
    } else {
      std::printf("ok    %-32s %g\n", key.c_str(), fv.num);
    }
  }

  // Acceptance floors and ceilings are absolute, not relative: they encode
  // criteria that hold on any machine (back-to-back timing ratios, bounded
  // violation fractions), so they gate the fresh report directly.
  auto checkBound = [&](const std::string& key, double bound, bool is_floor) {
    const auto sp = fresh.find(key);
    if (sp == fresh.end() || sp->second.is_string) {
      fail(key + ": missing from fresh report");
    } else if (is_floor ? sp->second.num < bound : sp->second.num > bound) {
      std::ostringstream msg;
      msg << key << ": " << sp->second.num << (is_floor ? " below" : " above")
          << " the acceptance " << (is_floor ? "floor " : "ceiling ")
          << bound;
      fail(msg.str());
    } else {
      std::printf("ok    %-32s %g %s %g (acceptance %s)\n", key.c_str(),
                  sp->second.num, is_floor ? ">=" : "<=", bound,
                  is_floor ? "floor" : "ceiling");
    }
  };
  for (const auto& [key, floor] : opt.floors) checkBound(key, floor, true);
  for (const auto& [key, ceil] : opt.ceilings) checkBound(key, ceil, false);

  // SIMD-conditional bounds: enforced only when the fresh report ran the
  // vector kernels. A host whose dispatcher reports "scalar" (no AVX2/NEON,
  // or SSMDVFS_FORCE_SCALAR=1) never executed the code the bound measures,
  // so the bound is waived — loudly, not silently.
  if (!opt.simd_floors.empty() || !opt.simd_ceilings.empty()) {
    const auto tier = fresh.find("simd_tier");
    const bool simd_active = tier != fresh.end() && tier->second.is_string &&
                             tier->second.str != "scalar";
    if (simd_active) {
      for (const auto& [key, floor] : opt.simd_floors)
        checkBound(key, floor, true);
      for (const auto& [key, ceil] : opt.simd_ceilings)
        checkBound(key, ceil, false);
    } else {
      for (const auto& [key, floor] : opt.simd_floors)
        std::printf("skip  %-32s SIMD floor %g waived (simd_tier scalar)\n",
                    key.c_str(), floor);
      for (const auto& [key, ceil] : opt.simd_ceilings)
        std::printf("skip  %-32s SIMD ceiling %g waived (simd_tier scalar)\n",
                    key.c_str(), ceil);
    }
  }

  if (failures != 0) {
    std::fprintf(stderr, "bench_check: %d failure(s) comparing %s vs %s\n",
                 failures, opt.fresh.c_str(), opt.baseline.c_str());
    return 1;
  }
  std::printf("bench_check: %s matches baseline %s\n", opt.fresh.c_str(),
              opt.baseline.c_str());
  return 0;
}
