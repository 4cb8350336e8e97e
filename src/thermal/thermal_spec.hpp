// Textual grammar for a thermal scenario, mirroring the FaultSpec grammar:
// one string selects the whole thermal configuration of a run, so sweeps
// can carry a thermal axis the same way they carry a fault axis.
//
//   ""            thermal modeling disabled (the default; byte-identical
//   "none"        to the pre-thermal simulator)
//   "on"          enabled with the default calibration and trip points
//   "key=value,…" enabled with overrides:
//                   amb      ambient temperature (degC)
//                   rc / cc  cluster resistance (degC/W) / capacity (J/degC)
//                   rp / cp  package resistance (degC/W) / capacity (J/degC)
//                   trip     per-cluster throttle trip point (degC)
//                   ptrip    package trip point (degC)
//                   hyst     hysteresis band below trip (degC)
//                   floor    V/f cap level while engaged
//                   recover  epochs per one-level recovery step
//
// parse(print(s)) == s for every scenario; print() emits only keys that
// differ from the defaults, "on" when none do, "none" when disabled.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "power/vf_table.hpp"
#include "thermal/thermal_model.hpp"
#include "thermal/thermal_throttle.hpp"

namespace ssm::thermal {

/// One cell on a sweep's thermal axis: whether heat is modeled at all plus
/// the RC calibration and throttle trip points to use when it is.
struct ThermalScenario {
  bool enabled = false;
  ThermalParams params;
  ThrottleConfig throttle;

  friend bool operator==(const ThermalScenario&,
                         const ThermalScenario&) = default;

  /// Canonical textual form (round-trips through parse()).
  [[nodiscard]] std::string print() const;

  /// Parses the grammar above; throws ssm::DataError on malformed input.
  [[nodiscard]] static ThermalScenario parse(std::string_view text);

  /// One run's throttle over `vf` (std::nullopt when disabled). The
  /// grammar cannot know the table, so a `floor` above vf.defaultLevel()
  /// is refused here, as ssm::DataError.
  [[nodiscard]] std::optional<ThermalThrottle> makeThrottle(
      const VfTable& vf, int num_clusters) const;
};

}  // namespace ssm::thermal
