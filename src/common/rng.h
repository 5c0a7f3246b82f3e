// Deterministic pseudo-random number generation for reproducible runs.
//
// Every experiment in this repository is driven by a single seeded Rng (or a
// tree of Rngs forked from it), which makes simulation results bit-for-bit
// reproducible across runs and machines.  The generator is xoshiro256**,
// seeded via SplitMix64 as recommended by its authors.
#pragma once

#include <array>
#include <cstdint>

#include "common/function_effects.h"

namespace esp {

/// Deterministic random number generator (xoshiro256**) with convenience
/// distributions used by the workloads and the cluster simulator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose entire stream is determined by `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Returns the next raw 64-bit value.
  std::uint64_t Next() noexcept ESP_NONBLOCKING;

  /// UniformRandomBitGenerator interface (usable with <random> adapters).
  std::uint64_t operator()() noexcept ESP_NONBLOCKING { return Next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Returns a double uniformly distributed in [0, 1).
  double NextDouble() noexcept ESP_NONBLOCKING;

  /// Returns a double uniformly distributed in [lo, hi).
  double Uniform(double lo, double hi);

  /// Returns an integer uniformly distributed in [lo, hi] (inclusive).
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Exponential variate with the given rate (mean 1/rate).
  double Exponential(double rate);

  /// Normal variate (Box-Muller) with the given mean/stddev.
  double Normal(double mean, double stddev);

  /// Log-normal variate parameterised by the *target* mean and coefficient
  /// of variation of the resulting distribution (not of the underlying
  /// normal).  Useful for service times with a prescribed c_S.
  double LogNormalMeanCv(double mean, double cv);

  /// Returns true with probability p.  Degenerate probabilities (p <= 0,
  /// p >= 1) are answered without consuming generator state.
  bool Bernoulli(double p) noexcept ESP_NONBLOCKING;

  /// Zipf-distributed integer in [1, n] with exponent s > 1 (Devroye's
  /// rejection sampler; O(1) expected time).  For s <= 1 use ZipfSampler,
  /// which precomputes the CDF.
  std::uint64_t Zipf(std::uint64_t n, double s);

  /// Forks an independent generator; the child stream is a deterministic
  /// function of this generator's state.
  Rng Fork();

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace esp
