// Measurement helpers the benchmark's workloads share: clocks, process
// counters, a fixed-memory latency histogram, latency windows and the result
// report every workload fills in.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds (the clock every benchmark timestamp uses).
std::int64_t NowNs();
/// CPU seconds consumed by the whole process, all threads.
double ProcessCpuSeconds();
/// Voluntary + involuntary context switches of the whole process.
std::int64_t ProcessContextSwitches();
/// Peak resident set size of the process, MiB.
double PeakRssMb();
unsigned HardwareThreads();
/// Share of all CPU time the hypervisor stole from this machine (the
/// `steal` column of /proc/stat) since `since`, which is a previous
/// StealSnapshot(); 0 where the kernel does not report steal.
struct StealSnapshot {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
StealSnapshot ReadSteal();
double StolenFraction(const StealSnapshot& since);

/// Log-linear histogram over non-negative nanosecond values: 256 linear
/// sub-buckets per power of two (<= 0.4 % relative error), fixed ~120 KiB
/// of memory however many samples it holds.  Quantiles interpolate inside
/// the bucket.
class Histogram {
 public:
  Histogram();
  void Add(std::int64_t value_ns);
  void Merge(const Histogram& other);
  /// q in [0, 1]; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::int64_t max_ = 0;
};

/// Mean latency per fixed-width time window, for "share of windows whose
/// mean latency is <= l" (the paper's constraint-fulfilment measure).
class LatencyWindows {
 public:
  LatencyWindows(std::int64_t origin_ns, std::int64_t width_ns)
      : origin_ns_(origin_ns), width_ns_(width_ns) {}
  void Add(std::int64_t at_ns, std::int64_t latency_ns);
  /// Windows [0, n) of the run; an empty window inside the run counts as
  /// violated (nothing arrived: every record due in it was stalled).
  std::size_t Met(std::size_t n, std::int64_t bound_ns) const;
  /// Mean latency of window k in ns, or -1 when empty.
  double MeanNs(std::size_t k) const;

 private:
  std::int64_t origin_ns_;
  std::int64_t width_ns_;
  std::vector<double> sums_;
  std::vector<std::uint64_t> counts_;
};

double Median(std::vector<double> values);
/// Linear-interpolated percentile, q in [0, 1]; 0 for an empty input.
double Percentile(std::vector<double> values, double q);

/// What one benchmark run reports: correctness, attempted/failed counts,
/// metrics (name -> value, unit) and the workload parameters.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Param(const std::string& name, const std::string& value);
  void Param(const std::string& name, double value);
  /// Records one correctness check; a failed check marks the run incorrect
  /// and charges `failed_records` to the failed count.
  void Check(bool ok, const std::string& what, std::uint64_t failed_records);
  void Attempted(std::uint64_t n) { attempted_ += n; }

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double FailedPct() const {
    return attempted_ ? 100.0 * static_cast<double>(failed_) / static_cast<double>(attempted_)
                      : 0.0;
  }

  /// Writes the human-readable lines, the parameter block and, last, the
  /// one-line JSON result {"correct", "attempted", "failed", "metrics"}.
  void Print(const std::string& header) const;

  /// Text form of the report, for a slice run in a child process.
  std::string Serialize() const;
  /// Folds slice reports (Serialize() output) into this one: checks and
  /// counts add up, parameters missing here are taken from the first slice,
  /// and each metric is folded across slices -- summed for totals, the
  /// maximum for peaks, the median for everything else.
  void MergeSlices(const std::vector<std::string>& slices);

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::pair<bool, std::string>> checks_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
