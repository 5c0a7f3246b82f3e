#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t ProcessContextSwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::int64_t>(ru.ru_nvcsw) + static_cast<std::int64_t>(ru.ru_nivcsw);
}

double PeakRssMb() {
  // VmHWM is the kernel's high-water mark of the resident set, in kB.
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

StealSnapshot ReadSteal() {
  // First line: cpu user nice system idle iowait irq softirq steal ...
  std::ifstream stat("/proc/stat");
  std::string cpu;
  StealSnapshot snap;
  stat >> cpu;
  for (int field = 0; field < 8 && stat; ++field) {
    std::uint64_t ticks = 0;
    stat >> ticks;
    snap.total += ticks;
    if (field == 7) snap.steal = ticks;
  }
  return snap;
}

double StolenFraction(const StealSnapshot& since) {
  const StealSnapshot now = ReadSteal();
  const std::uint64_t total = now.total - since.total;
  return total > 0 ? static_cast<double>(now.steal - since.steal) / static_cast<double>(total)
                   : 0.0;
}

unsigned HardwareThreads() { return std::max(1u, std::thread::hardware_concurrency()); }

// ---- Histogram ------------------------------------------------------------
// Index layout: values < 256 map to themselves (width 1); a value with its
// top bit at position e >= 8 maps to (e - 7) * 256 + the next 8 bits.
namespace {
constexpr int kSubBits = 8;
constexpr std::size_t kSub = std::size_t{1} << kSubBits;
constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

std::size_t BucketOf(std::uint64_t v) {
  if (v < kSub) return static_cast<std::size_t>(v);
  const int e = 63 - __builtin_clzll(v);
  const std::size_t mantissa = static_cast<std::size_t>(v >> (e - kSubBits)) & (kSub - 1);
  return static_cast<std::size_t>(e - kSubBits + 1) * kSub + mantissa;
}

void BucketRange(std::size_t i, double* low, double* width) {
  if (i < kSub) {
    *low = static_cast<double>(i);
    *width = 1.0;
    return;
  }
  const int e = static_cast<int>(i / kSub) + kSubBits - 1;
  const double unit = std::ldexp(1.0, e - kSubBits);
  *low = static_cast<double>(kSub + i % kSub) * unit;
  *width = unit;
}
}  // namespace

Histogram::Histogram() : buckets_(kBuckets, 0) {}

void Histogram::Add(std::int64_t value_ns) {
  const std::int64_t v = std::max<std::int64_t>(0, value_ns);
  ++buckets_[BucketOf(static_cast<std::uint64_t>(v))];
  ++count_;
  max_ = std::max(max_, v);
}

void Histogram::Merge(const Histogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  max_ = std::max(max_, other.max_);
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  double below = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto n = static_cast<double>(buckets_[i]);
    if (n == 0) continue;
    if (below + n > rank) {
      double low = 0, width = 0;
      BucketRange(i, &low, &width);
      return std::min(low + width * (rank - below + 0.5) / n, static_cast<double>(max_));
    }
    below += n;
  }
  return static_cast<double>(max_);
}

// ---- LatencyWindows ---------------------------------------------------------
void LatencyWindows::Add(std::int64_t at_ns, std::int64_t latency_ns) {
  if (at_ns < origin_ns_) return;
  const auto k = static_cast<std::size_t>((at_ns - origin_ns_) / width_ns_);
  if (k >= sums_.size()) {
    sums_.resize(k + 1, 0.0);
    counts_.resize(k + 1, 0);
  }
  sums_[k] += static_cast<double>(latency_ns);
  ++counts_[k];
}

std::size_t LatencyWindows::Met(std::size_t n, std::int64_t bound_ns) const {
  std::size_t met = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double mean = MeanNs(k);
    if (mean >= 0 && mean <= static_cast<double>(bound_ns)) ++met;
  }
  return met;
}

double LatencyWindows::MeanNs(std::size_t k) const {
  if (k >= counts_.size() || counts_[k] == 0) return -1.0;
  return sums_[k] / static_cast<double>(counts_[k]);
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// ---- Report -----------------------------------------------------------------
namespace {
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Param(const std::string& name, const std::string& value) {
  params_.emplace_back(name, value);
}

void Report::Param(const std::string& name, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  Param(name, std::string(buf));
}

void Report::Check(bool ok, const std::string& what, std::uint64_t failed_records) {
  checks_.emplace_back(ok, what);
  if (ok) return;
  correct_ = false;
  failed_ += std::max<std::uint64_t>(1, failed_records);
}

void Report::Print(const std::string& header) const {
  std::printf("== %s\n", header.c_str());
  std::size_t passed = 0;
  for (const auto& [ok, what] : checks_) {
    if (ok) {
      ++passed;
    } else {
      std::printf("check FAIL %s\n", what.c_str());
    }
  }
  std::printf("checks passed: %zu of %zu\n", passed, checks_.size());
  for (const auto& [name, v] : metrics_) {
    std::printf("metric %-40s %16.6g %s\n", name.c_str(), v.value, v.unit.c_str());
  }
  std::string machine = "{";
  for (std::size_t i = 0; i < params_.size(); ++i) {
    machine += (i ? ", " : "") + JsonString(params_[i].first) + ": " +
               JsonString(params_[i].second);
  }
  std::printf("machine %s}\n", machine.c_str());

  std::string json = "{\"correct\": " + std::string(correct_ ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " + Number(v.value) +
            ", \"unit\": " + JsonString(v.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
}

namespace {
enum class Fold { kMedian, kSum, kMax };

Fold FoldOf(const std::string& name) {
  const auto starts = [&](const char* prefix) { return name.rfind(prefix, 0) == 0; };
  if (name == "peak_rss_mb" || name == "runtime.delivery_gap_max_ms") return Fold::kMax;
  if (name == "task_s" || name == "runtime.rescales" || name == "runtime.epochs" ||
      starts("runtime.chain_") || starts("runtime.records_") || starts("trace.self_ms.")) {
    return Fold::kSum;
  }
  return Fold::kMedian;
}
}  // namespace

std::string Report::Serialize() const {
  std::ostringstream out;
  out << "A\t" << attempted_ << "\nF\t" << failed_ << "\nC\t" << (correct_ ? 1 : 0) << "\n";
  for (const auto& [ok, what] : checks_) out << "K\t" << (ok ? 1 : 0) << "\t" << what << "\n";
  for (const auto& [name, v] : metrics_) {
    out << "M\t" << name << "\t" << v.unit << "\t" << Number(v.value) << "\n";
  }
  for (const auto& [name, value] : params_) out << "P\t" << name << "\t" << value << "\n";
  return out.str();
}

void Report::MergeSlices(const std::vector<std::string>& slices) {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  for (std::size_t k = 0; k < slices.size(); ++k) {
    const std::string prefix = slices.size() > 1 ? "slice " + std::to_string(k) + ": " : "";
    std::istringstream in(slices[k]);
    std::string line;
    while (std::getline(in, line)) {
      std::vector<std::string> f;
      std::size_t start = 0;
      for (std::size_t tab; (tab = line.find('\t', start)) != std::string::npos; start = tab + 1) {
        f.push_back(line.substr(start, tab - start));
      }
      f.push_back(line.substr(start));
      if (f[0] == "A" && f.size() == 2) attempted_ += std::stoull(f[1]);
      if (f[0] == "F" && f.size() == 2) failed_ += std::stoull(f[1]);
      if (f[0] == "C" && f.size() == 2 && f[1] != "1") correct_ = false;
      if (f[0] == "K" && f.size() == 3) checks_.emplace_back(f[1] == "1", prefix + f[2]);
      if (f[0] == "M" && f.size() == 4) {
        values[f[1]].push_back(std::stod(f[3]));
        units[f[1]] = f[2];
      }
      if (f[0] == "P" && f.size() == 3 && k == 0) {
        const bool known = std::any_of(params_.begin(), params_.end(),
                                       [&](const auto& p) { return p.first == f[1]; });
        if (!known) params_.emplace_back(f[1], f[2]);
      }
    }
  }
  for (const auto& [name, v] : values) {
    double folded = 0;
    switch (FoldOf(name)) {
      case Fold::kSum:
        for (const double x : v) folded += x;
        break;
      case Fold::kMax:
        folded = *std::max_element(v.begin(), v.end());
        break;
      case Fold::kMedian:
        folded = Median(v);
        break;
    }
    Metric(name, folded, units[name]);
  }
}

}  // namespace perfbench
