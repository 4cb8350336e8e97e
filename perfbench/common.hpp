// Shared vocabulary of the benchmark: metrics, output checks, timing and
// digests. Everything here sits outside the program under test; the flows
// (setup, sweep, record-replay, rack) only call the public API of src/.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/ssm_model.hpp"
#include "engine/trace_io.hpp"

namespace perfbench {

class Tracer;

struct Metric {
  double value = 0.0;
  std::string unit;
};
/// Metric name -> value; std::map keeps the report order stable.
using Metrics = std::map<std::string, Metric>;

/// Operations attempted and failed. Every output check is tied to one
/// operation (a set-up, a sweep pass, one recorded program, one rack run);
/// a failed check or an exception fails that operation.
class Checks {
 public:
  /// Counts one operation; `ok` false fails it and logs `what` to stderr.
  void op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  }
  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// What every flow receives: the generated inputs (seed-derived), the
/// benchmark model, the worker count and where to report. A flow that runs
/// on a pool makes its own, so single-threaded flows run with no idle
/// workers polling beside them.
struct Env {
  std::uint64_t seed = 0;
  std::shared_ptr<const ssm::SsmModel> model;
  int workers = 1;
  Checks* checks = nullptr;
  /// Non-null only in the traced run.
  Tracer* tracer = nullptr;
  /// Output digests by name (hex), printed with the report so two sets of
  /// runs can be compared for identical simulated outputs.
  std::map<std::string, std::string>* digests = nullptr;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

[[nodiscard]] inline std::string digestOf(std::string_view bytes) {
  return hex64(ssm::engine::fnv1a64(bytes));
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

[[nodiscard]] inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

/// Runs `body` at least `min_iters` times and until `seconds` have passed.
template <typename Body>
void repeatFor(double seconds, int min_iters, Body&& body) {
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < min_iters || secondsSince(t0) < seconds; ++i) body(i);
}

}  // namespace perfbench
