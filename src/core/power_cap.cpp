#include "core/power_cap.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ssm {

PowerCapController::PowerCapController(PowerCapConfig cfg)
    : cfg_(cfg), preset_(cfg.preset0) {
  SSM_CHECK(cfg_.cap_w > 0.0, "cap must be positive");
  SSM_CHECK(cfg_.ki >= 0.0, "integral gain must be non-negative");
  SSM_CHECK(cfg_.preset_min >= 0.0 && cfg_.preset_max >= cfg_.preset_min,
            "preset bounds inverted");
  preset_ = std::clamp(preset_, cfg_.preset_min, cfg_.preset_max);
}

double PowerCapController::onEpoch(double chip_power_w) {
  ++epochs_;
  const double violation = chip_power_w - cfg_.cap_w;
  if (violation > 0.0) {
    ++violations_;
    preset_ += cfg_.ki * violation;  // allow deeper V/f drops
  } else {
    preset_ -= cfg_.relax * preset_;  // reclaim performance headroom
  }
  preset_ = std::clamp(preset_, cfg_.preset_min, cfg_.preset_max);
  return preset_;
}

void PowerCapController::setCap(double cap_w) {
  SSM_CHECK(cap_w > 0.0, "cap must be positive");
  cfg_.cap_w = cap_w;
}

void PowerCapController::reset() {
  preset_ = std::clamp(cfg_.preset0, cfg_.preset_min, cfg_.preset_max);
  violations_ = 0;
  epochs_ = 0;
}

}  // namespace ssm
