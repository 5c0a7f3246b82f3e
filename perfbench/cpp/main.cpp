// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload pipeline|fanin|twitter_sim --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--commit C]
//
// Prints check/metric lines, a `machine {...}` parameter block and, as the
// last line, {"correct", "attempted", "failed", "metrics"}.  perfbench/run.py
// builds this binary and narrows the metrics to the BENCHMARK.json set.
// Exits 1 when any correctness check failed, 2 on bad arguments.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "probes.h"
#include "trace.h"
#include "workloads.h"

namespace {

const char* Arg(int argc, char** argv, const char* flag, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload pipeline|fanin|twitter_sim "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--commit C]\n",
               why);
  return 2;
}

// Runs one slice of the workload in this process and returns its report in
// text form; the slice's spans are appended to `trace_out`.
std::string RunSlice(void (*run)(const perfbench::RunConfig&, perfbench::Report&),
                     perfbench::RunConfig config, const std::string& trace_out) {
  using namespace perfbench;
  if (config.traced) {
    trace::StartIdsAt((static_cast<std::int64_t>(config.slice) + 1) << 40);
    config.root_span = trace::NewId();
  }
  Report report;
  const std::int64_t t0 = NowNs();
  run(config, report);
  trace::Record("bench.slice", t0, NowNs(), trace::kNoParent, trace::kNoRecord, config.root_span);
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  if (config.traced) {
    for (const auto& [layer, ms] : trace::Finish(trace::Collect(), trace_out)) {
      report.Metric("trace.self_ms." + layer, ms, "ms");
    }
  }
  return report.Serialize();
}

// Runs RunSlice in a forked child (this process has no other thread at this
// point) and collects its report through a pipe.  False when the child
// failed to run or died.
bool ForkSlice(void (*run)(const perfbench::RunConfig&, perfbench::Report&),
               const perfbench::RunConfig& config, const std::string& trace_out,
               std::string* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::string text = RunSlice(run, config, trace_out);
      for (std::size_t done = 0; done < text.size();) {
        const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
        if (n <= 0) {
          code = 1;
          break;
        }
        done += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: slice failed: %s\n", e.what());
      code = 1;
    }
    close(fds[1]);
    std::fflush(nullptr);
    _exit(code);
  }
  close(fds[1]);
  char buf[1 << 14];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    out->append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// Length of one slice of the data-plane workloads.
constexpr double kSliceS = 0.5;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

int Main(int argc, char** argv) {
  using namespace perfbench;
  const std::string workload = Arg(argc, argv, "--workload", "");
  RunConfig config;
  config.seed = std::strtoull(Arg(argc, argv, "--seed", "1"), nullptr, 10);
  config.seconds = std::atof(Arg(argc, argv, "--seconds", "10"));
  config.traced = std::strcmp(Arg(argc, argv, "--trace", "0"), "1") == 0;
  const std::string trace_out = Arg(argc, argv, "--trace-out", "");
  if (config.seconds <= 0) return Usage("--seconds must be positive");

  void (*run)(const RunConfig&, Report&) = nullptr;
  if (workload == "pipeline") run = RunPipeline;
  if (workload == "fanin") run = RunFanin;
  if (workload == "twitter_sim") run = RunTwitterSim;
  if (run == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());

  if (!kOptimized) {
    const char* warning =
        "WARNING: perfbench was built WITHOUT optimisation; its timings mean nothing";
    std::fprintf(stderr, "\n%s\n\n", warning);
    std::printf("%s\n", warning);
  }

  Report report;
  report.Param("workload", workload);
  report.Param("seed", std::to_string(config.seed));
  report.Param("seconds", config.seconds);
  report.Param("trace", config.traced ? "1" : "0");
  report.Param("nproc", static_cast<double>(HardwareThreads()));
  report.Param("compiler", PERFBENCH_COMPILER);
  report.Param("build_type", PERFBENCH_BUILD_TYPE);
  report.Param("optimized", kOptimized ? "yes" : "NO");
  report.Param("commit", Arg(argc, argv, "--commit", "unknown"));

  // The data-plane workloads run as a series of half-second slices, each in
  // a fresh child process: the engine's speed differs from one process to
  // the next (+-20 % saturated throughput, against +-5 % within one
  // process), so a run samples many processes.
  const bool sliced = workload == "pipeline" || workload == "fanin";
  const auto slices =
      sliced ? static_cast<std::uint32_t>(std::max(1.0, config.seconds / kSliceS)) : 1u;
  report.Param("slices", static_cast<double>(slices));
  if (config.traced) {
    trace::Enable();
    if (std::FILE* f = trace_out.empty() ? nullptr : std::fopen(trace_out.c_str(), "w")) {
      std::fclose(f);  // slices append to it
    }
  }
  std::vector<std::string> results;
  for (std::uint32_t k = 0; k < slices; ++k) {
    RunConfig slice = config;
    slice.seconds = config.seconds / slices;
    slice.slice = k;
    std::string text;
    if (!sliced) {
      text = RunSlice(run, slice, trace_out);
    } else if (!ForkSlice(run, slice, trace_out, &text)) {
      std::fprintf(stderr, "perfbench: slice %u of %s failed\n", k, workload.c_str());
      return 2;
    }
    results.push_back(std::move(text));
  }
  report.MergeSlices(results);
  report.Metric("failed_pct", report.FailedPct(), "%");
  if (config.traced && !trace_out.empty()) std::printf("trace written to %s\n", trace_out.c_str());
  report.Print(workload);
  return report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: fatal: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "perfbench: fatal: unknown exception\n");
    return 1;
  }
}
