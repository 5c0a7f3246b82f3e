#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace esp {

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::Reset() { *this = RunningStats{}; }

double RunningStats::Mean() const { return count_ ? mean_ : 0.0; }

double RunningStats::Variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

double RunningStats::Cv() const {
  const double m = Mean();
  if (m == 0.0) return 0.0;
  return StdDev() / m;
}

StatsSnapshot Snapshot(const RunningStats& stats) {
  return StatsSnapshot{stats.count(), stats.Mean(), stats.Variance(),
                       stats.Cv(),    stats.Min(),  stats.Max()};
}

}  // namespace esp
