#include "common/rng.hpp"

#include <cmath>

namespace ssm {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
}

Rng Rng::fork(std::uint64_t salt) const noexcept {
  // Mix the parent state with the salt through SplitMix64 so sibling forks
  // are decorrelated even for adjacent salts.
  SplitMix64 sm(s_[0] ^ rotl(s_[2], 17) ^ (salt * 0x9e3779b97f4a7c15ULL));
  Rng child(sm.next());
  return child;
}

std::uint64_t Rng::nextBelow(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t x = nextU64();
  unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = nextU64();
      m = static_cast<unsigned __int128>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::nextGaussian() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_gauss_;
  }
  double u1 = 0.0;
  do {
    u1 = nextDouble();
  } while (u1 <= 0.0);
  const double u2 = nextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  spare_gauss_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

double Rng::nextGaussian(double mean, double stddev) noexcept {
  return mean + stddev * nextGaussian();
}

double Rng::nextExponential(double rate) noexcept {
  double u = 0.0;
  do {
    u = nextDouble();
  } while (u <= 0.0);
  return -std::log(u) / (rate > 0.0 ? rate : 1.0);
}

std::size_t Rng::nextCategorical(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0 || weights.empty()) return 0;
  double target = nextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;
}

}  // namespace ssm
