// Table-based Zipf sampler for arbitrary exponent s >= 0.
//
// Precomputes the cumulative mass over [1, n] once and draws with a binary
// search.  Used by the tweet generator to pick topics, where n is small
// (thousands) and s may be <= 1.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace esp {

/// Samples ranks 1..n with probability proportional to 1 / rank^s.
class ZipfSampler {
 public:
  /// Builds the cumulative table; O(n) time and space.
  ZipfSampler(std::uint64_t n, double s);

  /// Draws one rank in [1, n] using the supplied generator.
  std::uint64_t Sample(Rng& rng) const;

  std::uint64_t n() const { return static_cast<std::uint64_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i + 1)
};

}  // namespace esp
