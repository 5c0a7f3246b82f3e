// Cross-module integration and property tests: stress the simulator under
// repeated rescaling, exercise key-partitioned wiring end-to-end, verify
// the paper's §IV-A assumptions empirically (load skew degrades the model),
// and pin the closed-form step formulas against the paper's published
// expressions.
#include <cmath>

#include <gtest/gtest.h>

#include "model/latency_model.h"
#include "sim/cluster.h"
#include "sim/rate_schedule.h"
#include "workloads/prime_tester.h"

namespace esp {
namespace {

using sim::ClusterSimulation;
using sim::PiecewiseRate;
using sim::RunResult;
using sim::SimConfig;
using sim::SourceLogic;
using sim::StatelessLogic;

// ------------------------------------------------- paper-formula equivalence

// The implementation computes P_Delta as ceil(b - 1/2 + sqrt(1/4 - a/d));
// the paper prints it as ceil((2b-1)/2 + sqrt(((1-2b)/2)^2 - (a + d(b^2-b))/d)).
// Both must agree for every negative delta (the sqrt arguments are equal:
// (1-2b)^2/4 - a/d - b^2 + b == 1/4 - a/d).
TEST(PaperFormulas, PDeltaMatchesPublishedExpression) {
  VertexModel v;
  v.p_min = 1;
  v.p_max = 100000;
  v.elastic = true;
  for (const double a : {0.001, 0.05, 0.7}) {
    for (const double b : {0.5, 3.2, 41.0}) {
      v.a = a;
      v.b = b;
      for (const double delta : {-1e-2, -1e-4, -1e-6}) {
        const double paper =
            std::ceil((2 * b - 1) / 2 +
                      std::sqrt(std::pow((1 - 2 * b) / 2, 2) -
                                (a + delta * (b * b - b)) / delta));
        const std::uint32_t mine = v.ParallelismForDelta(delta);
        // The implementation additionally clamps to the stability point
        // (> b); the paper's raw expression can fall below it.
        const double clamped = std::max(paper, std::floor(b) + 1);
        EXPECT_EQ(mine, static_cast<std::uint32_t>(clamped))
            << "a=" << a << " b=" << b << " delta=" << delta;
      }
    }
  }
}

// P_W printed as ceil(a/w + b): identical modulo the stability clamp.
TEST(PaperFormulas, PWMatchesPublishedExpression) {
  VertexModel v;
  v.p_min = 1;
  v.p_max = 100000;
  v.elastic = true;
  for (const double a : {0.002, 0.3}) {
    for (const double b : {0.9, 12.4}) {
      v.a = a;
      v.b = b;
      for (const double w : {0.1, 0.001}) {
        const double paper = std::ceil(a / w + b);
        const auto mine = v.MinParallelismForWait(w);
        ASSERT_TRUE(mine.has_value());
        const double clamped = std::max(paper, std::floor(b) + 1);
        EXPECT_EQ(*mine, static_cast<std::uint32_t>(clamped))
            << "a=" << a << " b=" << b << " w=" << w;
      }
    }
  }
}

// --------------------------------------------------------- simulator stress

// Rapid large rate oscillations force many scale-ups and scale-downs in
// sequence; the invariants: nothing crashes, every emitted item that is not
// in flight at cutoff reaches a sink, drains complete (running task count
// returns to sources + sinks + current parallelism).
TEST(SimulatorStress, RepeatedRescaleKeepsInvariants) {
  workloads::PrimeTesterParams p;
  p.sources = 8;
  p.sinks = 8;
  p.prime_testers = 4;
  p.pt_min_parallelism = 1;
  p.pt_max_parallelism = 64;
  p.elastic = true;
  p.warmup_rate = 500;
  p.rate_increment = 3000;  // violent swings
  p.increments = 3;
  p.step_duration = FromSeconds(12);
  p.service_mean = 0.004;

  SimConfig cfg;
  cfg.workers = 30;
  cfg.shipping = ShippingStrategy::kAdaptive;
  cfg.scaler.enabled = true;
  cfg.seed = 77;

  auto pt = BuildPrimeTesterSim(p, cfg);
  const RunResult r = pt.sim->Run(pt.schedule_length);

  EXPECT_GT(r.total_items_emitted, 10000u);
  EXPECT_GT(r.total_items_delivered, r.total_items_emitted * 95 / 100);
  EXPECT_LE(r.total_items_delivered, r.total_items_emitted);

  // Back at the warm-up rate the parallelism must have come down again
  // and no draining task may linger: the running count can be at most
  // sources + sinks + p (freshly started tasks may still be below it).
  const auto& last = r.windows.back();
  std::uint32_t p_pt = 0;
  for (const auto& ps : last.parallelism) {
    if (ps.vertex == "PrimeTester") p_pt = ps.parallelism;
  }
  EXPECT_LT(p_pt, 32u);
  EXPECT_LE(last.running_tasks, 8u + 8u + p_pt);
  EXPECT_GE(last.running_tasks, 8u + 8u + 1u);
}

TEST(SimulatorStress, DeterministicUnderRescaling) {
  auto run = [] {
    workloads::PrimeTesterParams p;
    p.sources = 4;
    p.sinks = 4;
    p.prime_testers = 2;
    p.pt_min_parallelism = 1;
    p.pt_max_parallelism = 32;
    p.elastic = true;
    p.warmup_rate = 300;
    p.rate_increment = 1500;
    p.increments = 2;
    p.step_duration = FromSeconds(10);
    SimConfig cfg;
    cfg.workers = 16;
    cfg.scaler.enabled = true;
    cfg.seed = 5;
    auto pt = BuildPrimeTesterSim(p, cfg);
    return pt.sim->Run(pt.schedule_length);
  };
  const RunResult r1 = run();
  const RunResult r2 = run();
  EXPECT_EQ(r1.total_items_emitted, r2.total_items_emitted);
  EXPECT_EQ(r1.total_items_delivered, r2.total_items_delivered);
  EXPECT_DOUBLE_EQ(r1.task_hours, r2.task_hours);
  ASSERT_EQ(r1.adjustments.size(), r2.adjustments.size());
  for (std::size_t i = 0; i < r1.adjustments.size(); ++i) {
    ASSERT_EQ(r1.adjustments[i].parallelism.size(), r2.adjustments[i].parallelism.size());
    for (std::size_t j = 0; j < r1.adjustments[i].parallelism.size(); ++j) {
      EXPECT_EQ(r1.adjustments[i].parallelism[j].parallelism,
                r2.adjustments[i].parallelism[j].parallelism);
    }
  }
}

// -------------------------------------------- key partitioning + skew (§IV-A)

struct SkewFixture {
  // Source -> Worker(key-partitioned) -> Sink; the key distribution's skew
  // is the experiment variable.
  static RunResult Run(double hot_key_share, std::uint64_t seed) {
    JobGraph g;
    const auto src =
        g.AddVertex({.name = "Source", .parallelism = 2, .max_parallelism = 2});
    const auto mid = g.AddVertex({.name = "Worker",
                                  .parallelism = 8,
                                  .min_parallelism = 8,
                                  .max_parallelism = 8});
    const auto snk = g.AddVertex({.name = "Sink", .parallelism = 2, .max_parallelism = 2});
    const auto e1 = g.Connect(src, mid, WiringPattern::kKeyPartitioned);
    const auto e2 = g.Connect(mid, snk, WiringPattern::kRoundRobin);
    const LatencyConstraint c{JobSequence::FromEdgeChain(g, {e1, e2}), FromMillis(100),
                              FromSeconds(10), "c"};

    SimConfig cfg;
    cfg.workers = 8;
    cfg.shipping = ShippingStrategy::kInstantFlush;
    cfg.scaler.enabled = false;
    cfg.seed = seed;

    auto schedule =
        std::make_shared<PiecewiseRate>(PiecewiseRate({{FromSeconds(30), 700.0}}));
    ClusterSimulation sim(std::move(g), cfg);
    sim.SetSource("Source", [schedule, hot_key_share](std::uint32_t, Rng) {
      SourceLogic::Params p;
      p.schedule = schedule;
      p.key_fn = [hot_key_share](SimTime, Rng& rng) -> std::uint64_t {
        // hot_key_share of the traffic hits ONE key (one partition).
        if (rng.Bernoulli(hot_key_share)) return 0;
        return rng.Next();
      };
      return std::make_unique<SourceLogic>(p);
    });
    sim.SetLogic("Worker", [](std::uint32_t, Rng) {
      StatelessLogic::Params p;
      // ~2 ms UDF + ~1.9 ms unbatched shipping overhead = ~3.9 ms/item:
      // 8 balanced tasks at 175/s run at rho ~0.7; a 30% hot key pushes one
      // partition to ~540/s, far beyond its ~256/s capacity.
      p.service_mean = 0.002;
      p.outputs = {{.output_index = 0}};
      return std::make_unique<StatelessLogic>(p);
    });
    sim.SetLogic("Sink", [](std::uint32_t, Rng) {
      StatelessLogic::Params p;
      p.service_mean = 0.00002;
      return std::make_unique<StatelessLogic>(p);
    });
    sim.AddConstraint(c);
    return sim.Run(FromSeconds(30));
  }
};

TEST(SimulatorSkew, HotKeyCreatesHotSpotLatency) {
  // Balanced keys: per-task load 200/s vs 250/s capacity -> stable.
  const RunResult balanced = SkewFixture::Run(/*hot_key_share=*/0.0, 91);
  // 30% of traffic on one key: that partition gets 480/s + share of the
  // rest -> saturated hot spot, exactly the §IV-A-b failure mode.
  const RunResult skewed = SkewFixture::Run(/*hot_key_share=*/0.3, 91);

  const double balanced_latency = balanced.windows.back().constraints[0].mean_latency;
  const double skewed_latency = skewed.windows.back().constraints[0].mean_latency;
  EXPECT_LT(balanced_latency, 0.05);
  EXPECT_GT(skewed_latency, balanced_latency * 5)
      << "balanced=" << balanced_latency << " skewed=" << skewed_latency;
  // The hot spot also throttles throughput via backpressure.
  EXPECT_LT(skewed.windows.back().effective_rate,
            balanced.windows.back().effective_rate);
}

}  // namespace
}  // namespace esp
