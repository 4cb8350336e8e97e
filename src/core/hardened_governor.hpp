// Degraded-mode hardening: a decorator that keeps any DvfsGovernor safe
// under faulted telemetry and flaky actuation.
//
// Production deployments cannot assume the paper's clean-input world
// (§II/§V): counters drop out, arrive late, or read garbage. The hardened
// governor screens every observation with plausibility checks, watches for
// prediction blowouts, and on repeated trouble falls back from ML control
// to a conservative ondemand-style utilisation policy; once telemetry has
// been clean again for long enough it hands control back to the ML
// governor. Every mode transition is recorded in a GovernorModeLog so runs,
// sweeps and tests can assert on the fallback/recovery behaviour.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/governor.hpp"
#include "power/vf_table.hpp"

namespace ssm {

enum class GovernorMode { kMl, kSafe };

[[nodiscard]] std::string_view governorModeName(GovernorMode mode) noexcept;

/// One mode transition of one cluster's hardened governor.
struct GovernorModeEvent {
  std::int64_t epoch = 0;  ///< decide() calls seen by that cluster so far
  int cluster = 0;
  GovernorMode to = GovernorMode::kSafe;
  std::string reason;  ///< "telemetry", "blowout" or "recovered"

  friend bool operator==(const GovernorModeEvent&,
                         const GovernorModeEvent&) = default;
};

/// Append-only mode-transition log shared by all clusters of ONE run.
/// Single-writer like EpochTraceRecorder: the simulation loop calls the
/// governors sequentially, so no locking; parallel sweeps use one log per
/// job. No file I/O here — callers format/export.
class GovernorModeLog {
 public:
  void record(GovernorModeEvent event) { events_.push_back(std::move(event)); }

  [[nodiscard]] const std::vector<GovernorModeEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] int fallbacks() const noexcept {
    int n = 0;
    for (const auto& e : events_) n += e.to == GovernorMode::kSafe ? 1 : 0;
    return n;
  }
  [[nodiscard]] int recoveries() const noexcept {
    int n = 0;
    for (const auto& e : events_) n += e.to == GovernorMode::kMl ? 1 : 0;
    return n;
  }
  void clear() { events_.clear(); }

 private:
  std::vector<GovernorModeEvent> events_;
};

struct HardenedConfig {
  // --- plausibility / watchdog thresholds ------------------------------
  int strike_trips = 3;        ///< consecutive implausible epochs -> safe
  int blowout_trips = 4;       ///< consecutive IPC blowouts -> safe
  double blowout_ratio = 0.75; ///< |ipc - ewma| / max(ewma, eps) threshold
  double ipm_alpha = 0.2;      ///< EWMA weight for the IPC reference
  int warmup_epochs = 4;       ///< no strikes while the EWMA settles
  double max_ipc = 10.0;       ///< IPC beyond this is counter garbage
  double freq_tol_mhz = 1.0;   ///< reported-vs-table frequency tolerance
  // --- fallback / recovery policy --------------------------------------
  int min_hold_epochs = 8;     ///< minimum stay in safe mode
  int recover_after_clean = 6; ///< consecutive clean epochs to hand back
  double util_hi = 0.80;       ///< ondemand: raise level above this
  double util_lo = 0.45;       ///< ondemand: lower level below this
};

/// Wraps `inner` (typically the SSMDVFS governor) for one cluster.
class HardenedGovernor final : public DvfsGovernor {
 public:
  /// `log` may be null (transitions then go unrecorded); when set it must
  /// outlive the governor and belong to the same run.
  HardenedGovernor(std::unique_ptr<DvfsGovernor> inner, VfTable vf,
                   HardenedConfig cfg, int cluster_id, GovernorModeLog* log);

  VfLevel decide(const EpochObservation& obs) override;
  void reset() override;

  [[nodiscard]] GovernorMode mode() const noexcept { return mode_; }

 private:
  /// Empty string = plausible; otherwise the failed check's name.
  [[nodiscard]] std::string_view checkPlausibility(
      const EpochObservation& obs) const;

  void switchMode(GovernorMode to, std::string_view reason);
  [[nodiscard]] VfLevel safeDecision(const EpochObservation& obs,
                                     bool plausible) const;

  std::unique_ptr<DvfsGovernor> inner_;
  VfTable vf_;
  HardenedConfig cfg_;
  int cluster_id_;
  GovernorModeLog* log_;

  GovernorMode mode_ = GovernorMode::kMl;
  std::int64_t epoch_ = 0;       ///< decide() calls so far
  double ipc_ewma_ = 0.0;
  bool have_ewma_ = false;
  int strikes_ = 0;              ///< consecutive implausible epochs
  int blowouts_ = 0;             ///< consecutive IPC blowout epochs
  int clean_streak_ = 0;         ///< consecutive clean epochs in safe mode
  std::int64_t safe_since_ = 0;  ///< epoch of the last fallback
};

/// Wraps every cluster governor `inner` creates. One factory serves one
/// run: all clusters share the same (externally owned) mode log.
class HardenedGovernorFactory final : public GovernorFactory {
 public:
  HardenedGovernorFactory(const GovernorFactory& inner, VfTable vf,
                          HardenedConfig cfg, GovernorModeLog* log)
      : inner_(inner), vf_(std::move(vf)), cfg_(cfg), log_(log) {}

  std::unique_ptr<DvfsGovernor> create(int cluster_id) const override {
    return std::make_unique<HardenedGovernor>(inner_.create(cluster_id), vf_,
                                              cfg_, cluster_id, log_);
  }

 private:
  const GovernorFactory& inner_;
  VfTable vf_;
  HardenedConfig cfg_;
  GovernorModeLog* log_;
};

}  // namespace ssm
