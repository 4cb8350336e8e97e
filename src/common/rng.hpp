// Deterministic random number generation for every stochastic component of
// the reproduction (trace synthesis, NN initialisation, RL exploration).
//
// We deliberately avoid std::mt19937 + std::*_distribution because their
// output is not guaranteed identical across standard library versions; all
// experiments here must be bit-reproducible. SplitMix64 seeds Xoshiro256**,
// and all distributions are implemented on top of a fixed u64 stream.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace ssm {

/// SplitMix64: tiny seeding PRNG (Steele, Lea, Flood 2014 public-domain
/// construction). Used to expand a single user seed into stream seeds.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Plain-data image of an Rng's complete state: the four Xoshiro words plus
/// the Box–Muller spare. Exists so simulator snapshots (gpusim/gpu_snapshot)
/// can serialize the generator without friending the serializer.
struct RngSnapshot {
  std::array<std::uint64_t, 4> s{};
  double spare_gauss = 0.0;
  bool has_spare = false;

  friend bool operator==(const RngSnapshot&, const RngSnapshot&) = default;
};

/// Xoshiro256** 1.0 (Blackman & Vigna, public domain): the workhorse
/// generator. Value-semantic so simulator snapshots copy the RNG state too.
class Rng {
 public:
  /// Seeds the four state words from SplitMix64(seed).
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept;

  /// Derives an independent child stream; `salt` distinguishes siblings.
  [[nodiscard]] Rng fork(std::uint64_t salt) const noexcept;

  // The u64/double/Bernoulli trio is defined inline: the simulator draws
  // from it several times per issued instruction, and an out-of-line call
  // would dominate the draw itself.
  std::uint64_t nextU64() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1) with 53 bits of precision.
  double nextDouble() noexcept {
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  std::uint64_t nextBelow(std::uint64_t bound) noexcept;

  /// true with probability p (clamped to [0,1]).
  bool nextBernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return nextDouble() < p;
  }

  /// Standard normal via Box–Muller (deterministic, caches the spare value).
  double nextGaussian() noexcept;

  /// Gaussian with given mean and standard deviation.
  double nextGaussian(double mean, double stddev) noexcept;

  /// Exponential with the given rate (lambda > 0).
  double nextExponential(double rate) noexcept;

  /// Samples an index from unnormalised non-negative weights.
  /// Returns weights.size()-1 if rounding pushes past the end.
  std::size_t nextCategorical(std::span<const double> weights) noexcept;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(nextBelow(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Full state image; fromSnapshot(snapshot()) continues the exact stream.
  [[nodiscard]] RngSnapshot snapshot() const noexcept {
    return RngSnapshot{s_, spare_gauss_, has_spare_};
  }

  /// Rebuilds a generator mid-stream from a snapshot.
  [[nodiscard]] static Rng fromSnapshot(const RngSnapshot& snap) noexcept {
    Rng r;
    r.s_ = snap.s;
    r.spare_gauss_ = snap.spare_gauss;
    r.has_spare_ = snap.has_spare;
    return r;
  }

  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  std::array<std::uint64_t, 4> s_{};
  double spare_gauss_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace ssm
