#include "common/rng.h"

#include <cmath>
#include <stdexcept>

namespace esp {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
}

std::uint64_t Rng::Next() noexcept ESP_NONBLOCKING {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() noexcept ESP_NONBLOCKING {
  // 53 top bits -> uniform double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("UniformInt: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(Next());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ULL) - ((~0ULL) % span) - 1;
  std::uint64_t v = Next();
  while (v > limit) v = Next();
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::Exponential(double rate) {
  if (rate <= 0) throw std::invalid_argument("Exponential: rate must be > 0");
  double u = NextDouble();
  while (u <= 0.0) u = NextDouble();
  return -std::log(u) / rate;
}

double Rng::Normal(double mean, double stddev) {
  double u1 = NextDouble();
  while (u1 <= 0.0) u1 = NextDouble();
  const double u2 = NextDouble();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.28318530717958647692 * u2);
  return mean + stddev * z;
}

double Rng::LogNormalMeanCv(double mean, double cv) {
  if (mean <= 0) throw std::invalid_argument("LogNormalMeanCv: mean must be > 0");
  if (cv < 0) throw std::invalid_argument("LogNormalMeanCv: cv must be >= 0");
  if (cv == 0) return mean;
  const double sigma2 = std::log(1.0 + cv * cv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return std::exp(Normal(mu, std::sqrt(sigma2)));
}

bool Rng::Bernoulli(double p) noexcept ESP_NONBLOCKING {
  // Degenerate probabilities short-circuit without advancing the stream:
  // NextDouble() is in [0, 1), so the outcome is already determined, and the
  // hot samplers run with p = 1.0 by default (every draw would be a wasted
  // xoshiro step).
  if (p >= 1.0) return true;
  if (p <= 0.0) return false;
  return NextDouble() < p;
}

std::uint64_t Rng::Zipf(std::uint64_t n, double s) {
  if (n == 0) throw std::invalid_argument("Zipf: n must be >= 1");
  if (s <= 1.0) throw std::invalid_argument("Zipf: rejection sampler requires s > 1 (use ZipfSampler)");
  // Rejection sampling after Devroye; O(1) expected time, no table needed.
  const double b = std::pow(2.0, s - 1.0);
  for (;;) {
    const double u = NextDouble();
    const double v = NextDouble();
    const double x = std::floor(std::pow(static_cast<double>(n) + 1.0, u));
    // x is in [1, n+1); clamp the rare boundary case.
    const std::uint64_t k = static_cast<std::uint64_t>(x) > n ? n : static_cast<std::uint64_t>(x);
    const double t = std::pow(1.0 + 1.0 / static_cast<double>(k), s - 1.0);
    if (v * static_cast<double>(k) * (t - 1.0) / (b - 1.0) <= t / b) return k;
  }
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace esp
