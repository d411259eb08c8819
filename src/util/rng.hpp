// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic element of the reproduction (catalog calibration jitter,
// workload sampling, synthetic address streams) draws from Xoshiro256**
// seeded through SplitMix64, so whole-figure experiments are reproducible
// bit-for-bit from a single seed.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace dicer::util {

/// SplitMix64: used to expand a single 64-bit seed into a full generator
/// state. Also a fine standalone generator for hashing-style use.
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

/// Xoshiro256** — fast, high-quality, 256-bit state PRNG.
/// Satisfies UniformRandomBitGenerator so it composes with <random>.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0xD1CE5EEDULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) noexcept;
  /// Standard normal via Box-Muller (no cached spare: stateless per call
  /// pair, slightly wasteful but branch-free across save/restore).
  double normal() noexcept;
  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;
  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Derive an independent child stream (for per-app streams).
  Xoshiro256 split() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace dicer::util
