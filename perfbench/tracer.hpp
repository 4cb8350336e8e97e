// In-memory span recorder for the traced run.
//
// A span is one call across a layer boundary, recorded from the benchmark's
// own code: its name ("<layer>.<what>"), start, end, the span that was open
// when it began (its parent) and the operation it belongs to (a sweep cell,
// a recorded program, a rack run). Spans stay in memory and are written out
// once, at the end, as Chrome trace-event JSON (opens in Perfetto).
//
// A layer's self time is its spans' durations minus the part their child
// spans cover. Single-threaded: only serial code is traced span by span;
// parallel sections appear as one span on the calling thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Per-name aggregate over every span of that name.
struct SpanStats {
  std::int64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  /// Self time of each span, in recording order.
  std::vector<double> self_samples_ns;
};

class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  /// Opens a span; `name` must be a string literal (stored by pointer).
  [[nodiscard]] std::int32_t begin(const char* name);
  void end(std::int32_t id);
  /// Operation id stamped on spans opened from now on.
  void setOp(std::int64_t op) noexcept { op_ = op; }

  [[nodiscard]] std::map<std::string, SpanStats> stats() const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Writes every span as a Chrome trace-event file; false on I/O error.
  [[nodiscard]] bool writeChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int32_t parent;
    std::int64_t op;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  [[nodiscard]] std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::int64_t op_ = 0;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

}  // namespace perfbench
