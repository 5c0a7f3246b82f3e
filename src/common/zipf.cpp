#include "common/zipf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace esp {

ZipfSampler::ZipfSampler(std::uint64_t n, double s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be >= 1");
  if (s < 0) throw std::invalid_argument("ZipfSampler: s must be >= 0");
  cdf_.reserve(n);
  double acc = 0.0;
  for (std::uint64_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(acc);
  }
  for (auto& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against rounding leaving the tail short
}

std::uint64_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint64_t>(it - cdf_.begin()) + 1;
}

}  // namespace esp
