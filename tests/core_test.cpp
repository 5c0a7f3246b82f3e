// Unit and property tests for the scaling strategy: Rebalance,
// ResolveBottlenecks, ScaleReactively, the batching policy and the
// ElasticScaler controller.
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/batching.h"
#include "core/elastic_scaler.h"
#include "core/rebalance.h"
#include "core/scale_reactively.h"
#include "model/latency_model.h"

namespace esp {
namespace {

struct WorkerSpec {
  double lambda;   // per-task arrival rate at parallelism p
  double service;  // mean service time
  double cva = 1.0;
  double cvs = 1.0;
  std::uint32_t p = 4;
  std::uint32_t p_min = 1;
  std::uint32_t p_max = 64;
  bool elastic = true;
  double task_latency = 0.0;
};

// Source -> W1 -> ... -> Wn -> Sink pipeline with a per-worker summary.
struct Pipeline {
  JobGraph graph;
  GlobalSummary summary;
  std::vector<JobVertexId> workers;

  explicit Pipeline(const std::vector<WorkerSpec>& specs) {
    JobVertexId prev =
        graph.AddVertex({.name = "Source", .parallelism = 1, .max_parallelism = 1});
    int i = 0;
    for (const WorkerSpec& s : specs) {
      // append, not `"W" + ...`: g++ 12 -Wrestrict false positive at -O3.
      const JobVertexId w = graph.AddVertex({.name = std::string("W").append(std::to_string(i++)),
                                             .parallelism = s.p,
                                             .min_parallelism = s.p_min,
                                             .max_parallelism = s.p_max,
                                             .elastic = s.elastic});
      graph.Connect(prev, w);
      workers.push_back(w);
      VertexSummary vs;
      vs.task_latency = s.task_latency;
      vs.service_mean = s.service;
      vs.service_cv = s.cvs;
      vs.interarrival_mean = s.lambda > 0 ? 1.0 / s.lambda : 0.0;
      vs.interarrival_cv = s.cva;
      vs.arrival_rate = s.lambda;
      vs.measured_parallelism = s.p;
      summary.vertices[Value(w)] = vs;
      prev = w;
    }
    const JobVertexId sink =
        graph.AddVertex({.name = "Sink", .parallelism = 1, .max_parallelism = 1});
    graph.Connect(prev, sink);
    // No edge summaries: error coefficients stay at their neutral value 1,
    // keeping the closed-form expectations below easy to derive by hand.
  }

  JobSequence Sequence() const {
    std::vector<JobEdgeId> edges;
    for (std::uint32_t e = 0; e < graph.edge_count(); ++e) edges.push_back(JobEdgeId{e});
    return JobSequence::FromEdgeChain(graph, edges);
  }

  LatencyModel Model(const LatencyModelOptions& opts = {}) const {
    return LatencyModel::Build(graph, summary, Sequence(), opts);
  }

  LatencyConstraint Constraint(SimDuration bound, const std::string& name = "c") const {
    return LatencyConstraint{Sequence(), bound, FromSeconds(10), name};
  }
};

// Exhaustive minimum total parallelism subject to TotalWait <= limit,
// for small models only.
std::uint64_t BruteForceOptimum(const LatencyModel& model, double limit) {
  const auto& vs = model.vertices();
  std::vector<std::uint32_t> p(vs.size());
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  // Recursive enumeration.
  auto recurse = [&](auto&& self, std::size_t i) -> void {
    if (i == vs.size()) {
      if (model.TotalWait(p) <= limit) {
        std::uint64_t total = 0;
        for (std::uint32_t x : p) total += x;
        best = std::min(best, total);
      }
      return;
    }
    for (std::uint32_t x = vs[i].p_min; x <= vs[i].p_max; ++x) {
      p[i] = x;
      self(self, i + 1);
    }
  };
  recurse(recurse, 0);
  return best;
}

// ---------------------------------------------------------------- Rebalance

TEST(Rebalance, SatisfiesWaitLimit) {
  const Pipeline pipe({{80.0, 0.010}, {40.0, 0.005}});
  const LatencyModel model = pipe.Model();
  const RebalanceResult res = Rebalance(model, 0.004);
  ASSERT_TRUE(res.feasible);
  EXPECT_LE(model.TotalWait(res.parallelism), 0.004);
  EXPECT_DOUBLE_EQ(res.predicted_wait, model.TotalWait(res.parallelism));
}

TEST(Rebalance, MatchesBruteForceOptimum) {
  const Pipeline pipe({{80.0, 0.010, 1.0, 1.0, 4, 1, 25},
                       {120.0, 0.004, 0.7, 1.3, 4, 1, 25}});
  const LatencyModel model = pipe.Model();
  for (const double limit : {0.05, 0.01, 0.004, 0.002}) {
    const RebalanceResult res = Rebalance(model, limit);
    ASSERT_TRUE(res.feasible) << "limit=" << limit;
    std::uint64_t total = 0;
    for (std::uint32_t x : res.parallelism) total += x;
    EXPECT_EQ(total, BruteForceOptimum(model, limit)) << "limit=" << limit;
  }
}

TEST(Rebalance, ThreeVertexBruteForceOptimum) {
  const Pipeline pipe({{60.0, 0.012, 1.0, 1.0, 4, 1, 18},
                       {150.0, 0.005, 0.7, 1.3, 4, 1, 18},
                       {40.0, 0.018, 1.2, 0.6, 4, 1, 18}});
  const LatencyModel model = pipe.Model();
  for (const double limit : {0.05, 0.02, 0.01}) {
    const RebalanceResult res = Rebalance(model, limit);
    ASSERT_TRUE(res.feasible) << "limit=" << limit;
    std::uint64_t total = 0;
    for (std::uint32_t x : res.parallelism) total += x;
    EXPECT_EQ(total, BruteForceOptimum(model, limit)) << "limit=" << limit;
  }
}

TEST(Rebalance, InfeasibleReturnsMaxScaleOut) {
  const Pipeline pipe({{100.0, 0.010, 1.0, 1.0, 2, 1, 4}});  // p_max = 4 < b = 2
  const LatencyModel model = pipe.Model();
  const RebalanceResult res = Rebalance(model, 0.001);
  EXPECT_FALSE(res.feasible);
  EXPECT_EQ(res.parallelism[0], 4u);
}

TEST(Rebalance, RespectsParallelismFloor) {
  const Pipeline pipe({{80.0, 0.010}, {40.0, 0.005}});
  const LatencyModel model = pipe.Model();
  ParallelismFloor floor;
  floor[Value(pipe.workers[1])] = 20;
  const RebalanceResult res = Rebalance(model, 0.05, floor);
  ASSERT_TRUE(res.feasible);
  EXPECT_GE(res.parallelism[1], 20u);
}

TEST(Rebalance, NonElasticVertexStaysPinned) {
  // Pinned vertex contributes Wait(8) = 2.5 ms; the elastic vertex must
  // absorb the rest of the 10 ms budget.
  const Pipeline pipe({{20.0, 0.010, 1.0, 1.0, 8, 1, 64, /*elastic=*/false},
                       {40.0, 0.005}});
  const LatencyModel model = pipe.Model();
  const RebalanceResult res = Rebalance(model, 0.01);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.parallelism[0], 8u);
}

TEST(Rebalance, LiftsSaturatedVerticesBeforeDescent) {
  // At the p_min floor (1 task) the worker would be saturated (b = 3.2).
  const Pipeline pipe({{80.0, 0.010, 1.0, 1.0, 4, 1, 64}});
  const RebalanceResult res = Rebalance(pipe.Model(), 0.5);
  ASSERT_TRUE(res.feasible);
  EXPECT_GE(res.parallelism[0], 4u);  // must exceed b = 3.2
  EXPECT_TRUE(std::isfinite(res.predicted_wait));
}

TEST(Rebalance, UnitStepAgreesWithVariableStep) {
  const Pipeline pipe({{200.0, 0.004, 0.8, 1.2, 4, 1, 200},
                       {500.0, 0.002, 1.5, 0.5, 4, 1, 200},
                       {100.0, 0.008, 1.0, 1.0, 4, 1, 200}});
  const LatencyModel model = pipe.Model();
  for (const double limit : {0.02, 0.005, 0.001}) {
    const RebalanceResult fast = Rebalance(model, limit);
    const RebalanceResult slow = RebalanceUnitStep(model, limit);
    ASSERT_TRUE(fast.feasible);
    ASSERT_TRUE(slow.feasible);
    std::uint64_t total_fast = 0;
    std::uint64_t total_slow = 0;
    for (std::uint32_t x : fast.parallelism) total_fast += x;
    for (std::uint32_t x : slow.parallelism) total_slow += x;
    EXPECT_EQ(total_fast, total_slow) << "limit=" << limit;
    EXPECT_LE(fast.iterations, slow.iterations) << "limit=" << limit;
  }
}

TEST(Rebalance, VariableStepNeedsFarFewerIterations) {
  const Pipeline pipe({{2000.0, 0.002, 1.0, 1.0, 4, 1, 100000}});
  const LatencyModel model = pipe.Model();
  const RebalanceResult fast = Rebalance(model, 0.00001);
  const RebalanceResult slow = RebalanceUnitStep(model, 0.00001);
  ASSERT_TRUE(fast.feasible);
  EXPECT_GT(slow.iterations, 100u);
  EXPECT_LE(fast.iterations, 4u);
}

// Property sweep: random-ish loads, the result is always feasible and a
// "solution candidate" in the paper's sense for the final vertex touched.
struct RebalanceCase {
  double lambda1, service1, lambda2, service2;
  double limit;
};

class RebalanceSweep : public ::testing::TestWithParam<RebalanceCase> {};

TEST_P(RebalanceSweep, FeasibleAndFloorClamped) {
  const RebalanceCase c = GetParam();
  const Pipeline pipe({{c.lambda1, c.service1, 1.1, 0.9, 4, 2, 300},
                       {c.lambda2, c.service2, 0.6, 1.4, 4, 3, 300}});
  const LatencyModel model = pipe.Model();
  const RebalanceResult res = Rebalance(model, c.limit);
  ASSERT_TRUE(res.feasible);
  EXPECT_LE(model.TotalWait(res.parallelism), c.limit);
  EXPECT_GE(res.parallelism[0], 2u);
  EXPECT_GE(res.parallelism[1], 3u);
  EXPECT_LE(res.parallelism[0], 300u);
  EXPECT_LE(res.parallelism[1], 300u);
}

INSTANTIATE_TEST_SUITE_P(
    LoadGrid, RebalanceSweep,
    ::testing::Values(RebalanceCase{80, 0.01, 40, 0.005, 0.01},
                      RebalanceCase{500, 0.002, 100, 0.001, 0.0005},
                      RebalanceCase{50, 0.02, 900, 0.0005, 0.002},
                      RebalanceCase{1500, 0.0008, 1200, 0.0011, 0.0001},
                      RebalanceCase{10, 0.05, 10, 0.05, 0.1}));

// ------------------------------------------------------- ResolveBottlenecks

TEST(ResolveBottlenecks, DoublesOrMatchesOfferedLoad) {
  // rho = 0.95 -> bottleneck; offered load b = lambda * S * p = 3.8.
  const Pipeline pipe({{95.0, 0.010, 1.0, 1.0, 4, 1, 64}});
  const BottleneckResolution res = ResolveBottlenecks(pipe.Model());
  ASSERT_EQ(res.parallelism.size(), 1u);
  // max(2p, ceil(2 * 3.8)) = max(8, 8) = 8.
  EXPECT_EQ(res.parallelism.at(Value(pipe.workers[0])), 8u);
  EXPECT_TRUE(res.unresolvable.empty());
}

TEST(ResolveBottlenecks, LoadTermDominatesWhenBackpressureInflates) {
  // Measured per-task utilization 2.5 (queue growth): offered = 10 servers.
  const Pipeline pipe({{250.0, 0.010, 1.0, 1.0, 4, 1, 64}});
  const BottleneckResolution res = ResolveBottlenecks(pipe.Model());
  // max(2*4, ceil(2*10)) = 20.
  EXPECT_EQ(res.parallelism.at(Value(pipe.workers[0])), 20u);
}

TEST(ResolveBottlenecks, ClampsToMaxParallelism) {
  const Pipeline pipe({{95.0, 0.010, 1.0, 1.0, 4, 1, 6}});
  const BottleneckResolution res = ResolveBottlenecks(pipe.Model());
  EXPECT_EQ(res.parallelism.at(Value(pipe.workers[0])), 6u);
}

TEST(ResolveBottlenecks, ReportsUnresolvableVertices) {
  const Pipeline at_max({{95.0, 0.010, 1.0, 1.0, 64, 1, 64}});
  EXPECT_EQ(ResolveBottlenecks(at_max.Model()).unresolvable.size(), 1u);

  const Pipeline rigid({{95.0, 0.010, 1.0, 1.0, 4, 1, 64, /*elastic=*/false}});
  EXPECT_EQ(ResolveBottlenecks(rigid.Model()).unresolvable.size(), 1u);
}

TEST(ResolveBottlenecks, IgnoresHealthyVertices) {
  const Pipeline pipe({{50.0, 0.010, 1.0, 1.0, 4, 1, 64},
                       {95.0, 0.010, 1.0, 1.0, 4, 1, 64}});
  const BottleneckResolution res = ResolveBottlenecks(pipe.Model());
  EXPECT_EQ(res.parallelism.size(), 1u);
  EXPECT_EQ(res.parallelism.count(Value(pipe.workers[1])), 1u);
}

// --------------------------------------------------------- ScaleReactively

TEST(ScaleReactively, UsesRebalanceWhenHealthy) {
  // rho = 0.5 per task at p = 40 (b = 20, a = 0.2): with a 150 ms bound the
  // wait budget is ~29.8 ms, met from p = 27 on -> scale-down expected.
  Pipeline pipe({{50.0, 0.010, 1.0, 1.0, 40, 1, 64, true, 0.001}});
  const auto decision = ScaleReactively(pipe.graph, {pipe.Constraint(FromMillis(150))},
                                        pipe.summary, {});
  ASSERT_EQ(decision.outcomes.size(), 1u);
  EXPECT_EQ(decision.outcomes[0].action, ConstraintAction::kRebalanced);
  EXPECT_NEAR(decision.outcomes[0].wait_budget, 0.2 * 0.149, 1e-12);
  EXPECT_LT(decision.parallelism.at(Value(pipe.workers[0])),
            pipe.graph.vertex(pipe.workers[0]).parallelism);
}

TEST(ScaleReactively, UsesResolveBottlenecksUnderOverload) {
  Pipeline pipe({{95.0, 0.010, 1.0, 1.0, 4, 1, 64}});
  const auto decision = ScaleReactively(pipe.graph, {pipe.Constraint(FromMillis(50))},
                                        pipe.summary, {});
  EXPECT_EQ(decision.outcomes[0].action, ConstraintAction::kBottleneckResolved);
  EXPECT_EQ(decision.parallelism.at(Value(pipe.workers[0])), 8u);
  EXPECT_GT(decision.parallelism.at(Value(pipe.workers[0])),
            pipe.graph.vertex(pipe.workers[0]).parallelism);
}

TEST(ScaleReactively, ReportsStuckBottleneck) {
  Pipeline pipe({{95.0, 0.010, 1.0, 1.0, 64, 1, 64}});
  const auto decision = ScaleReactively(pipe.graph, {pipe.Constraint(FromMillis(50))},
                                        pipe.summary, {});
  EXPECT_EQ(decision.outcomes[0].action, ConstraintAction::kBottleneckStuck);
}

TEST(ScaleReactively, SkipsConstraintsWithoutData) {
  Pipeline pipe({{80.0, 0.010}});
  GlobalSummary empty;
  const auto decision =
      ScaleReactively(pipe.graph, {pipe.Constraint(FromMillis(50))}, empty, {});
  EXPECT_EQ(decision.outcomes[0].action, ConstraintAction::kNoData);
  EXPECT_TRUE(decision.parallelism.empty());
}

TEST(ScaleReactively, LaterConstraintCannotLowerEarlierChoice) {
  // Two constraints over the same sequence: a tight one first, a loose one
  // second.  The loose one alone would pick less parallelism, but the floor
  // P must preserve the tight one's choice.
  // rho = 0.6 per task keeps the Rebalance (non-bottleneck) path active.
  Pipeline pipe({{150.0, 0.004, 1.0, 1.0, 4, 1, 300}});
  const auto tight = pipe.Constraint(FromMillis(8), "tight");
  const auto loose = pipe.Constraint(FromMillis(500), "loose");

  const auto both = ScaleReactively(pipe.graph, {tight, loose}, pipe.summary, {});
  const auto only_loose = ScaleReactively(pipe.graph, {loose}, pipe.summary, {});

  const std::uint32_t p_both = both.parallelism.at(Value(pipe.workers[0]));
  const std::uint32_t p_loose = only_loose.parallelism.at(Value(pipe.workers[0]));
  EXPECT_GT(p_both, p_loose);

  const auto only_tight = ScaleReactively(pipe.graph, {tight}, pipe.summary, {});
  EXPECT_EQ(p_both, only_tight.parallelism.at(Value(pipe.workers[0])));
}

TEST(ScaleReactively, InfeasibleBudgetIsReported) {
  // Task latency alone exceeds the bound -> negative wait budget.
  Pipeline pipe({{80.0, 0.010, 1.0, 1.0, 4, 1, 8, true, 0.100}});
  const auto decision = ScaleReactively(pipe.graph, {pipe.Constraint(FromMillis(20))},
                                        pipe.summary, {});
  EXPECT_EQ(decision.outcomes[0].action, ConstraintAction::kRebalanceInfeasible);
}

// ----------------------------------------------------------- BatchingPolicy

TEST(BatchingPolicy, SplitsBatchBudgetEvenlyOverEdges) {
  Pipeline pipe({{80.0, 0.010, 1.0, 1.0, 4, 1, 64, true, 0.002}});
  const auto constraint = pipe.Constraint(FromMillis(22));
  const FlushDeadlines deadlines =
      ComputeFlushDeadlines(pipe.graph, {constraint}, pipe.summary);
  ASSERT_EQ(deadlines.size(), 2u);
  // Budget = 0.8 * (0.022 - 0.002) = 16 ms over 2 edges -> 8 ms each,
  // discounted by the 0.75 safety factor -> 6 ms.
  EXPECT_EQ(deadlines.at(0), FromMillis(6));
  EXPECT_EQ(deadlines.at(1), FromMillis(6));
}

TEST(BatchingPolicy, FusedEdgesAreExcludedFromTheBudgetSplit) {
  // Same pipeline as SplitsBatchBudgetEvenlyOverEdges, but edge 1 is fused
  // by task chaining: it ships synchronously inside one thread, so it gets
  // NO deadline and its budget share flows to the remaining real edge --
  // 16 ms over 1 edge instead of 2, discounted to 12 ms by the 0.75 factor.
  Pipeline pipe({{80.0, 0.010, 1.0, 1.0, 4, 1, 64, true, 0.002}});
  const auto constraint = pipe.Constraint(FromMillis(22));
  const FlushDeadlines deadlines =
      ComputeFlushDeadlines(pipe.graph, {constraint}, pipe.summary, 0.2, {}, {1});
  ASSERT_EQ(deadlines.size(), 1u);
  EXPECT_EQ(deadlines.count(1), 0u);
  EXPECT_EQ(deadlines.at(0), FromMillis(12));
}

TEST(BatchingPolicy, OverlappingConstraintsTakeTightestDeadline) {
  Pipeline pipe({{80.0, 0.010}});
  const auto loose = pipe.Constraint(FromMillis(100), "loose");
  const auto tight = pipe.Constraint(FromMillis(10), "tight");
  const FlushDeadlines deadlines =
      ComputeFlushDeadlines(pipe.graph, {loose, tight}, pipe.summary);
  EXPECT_EQ(deadlines.at(0), FromMillis(3));  // 0.75 * 0.8 * 10ms / 2 edges
}

TEST(BatchingPolicy, ClampsToMinimumDeadline) {
  Pipeline pipe({{80.0, 0.010, 1.0, 1.0, 4, 1, 64, true, 0.500}});
  const auto constraint = pipe.Constraint(FromMillis(1));  // negative budget
  BatchingPolicyOptions opts;
  opts.min_deadline = FromMicros(100);
  const FlushDeadlines deadlines =
      ComputeFlushDeadlines(pipe.graph, {constraint}, pipe.summary, 0.2, opts);
  EXPECT_EQ(deadlines.at(0), FromMicros(100));
}

// ------------------------------------------------------------ ElasticScaler

TEST(ElasticScaler, EmitsActionsAndArmsInactivityAfterScaleUp) {
  Pipeline pipe({{95.0, 0.010, 1.0, 1.0, 4, 1, 64}});
  ElasticScaler scaler;
  const auto constraints = std::vector<LatencyConstraint>{pipe.Constraint(FromMillis(50))};

  auto actions = scaler.Adjust(pipe.graph, constraints, pipe.summary);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].new_parallelism, 8u);

  // Apply and notify: the next two adjustment rounds must be skipped.
  pipe.graph.SetParallelism(actions[0].vertex, actions[0].new_parallelism);
  scaler.NotifyApplied(actions);
  EXPECT_TRUE(scaler.IsInactive());
  EXPECT_TRUE(scaler.Adjust(pipe.graph, constraints, pipe.summary).empty());
  EXPECT_TRUE(scaler.Adjust(pipe.graph, constraints, pipe.summary).empty());
  EXPECT_FALSE(scaler.IsInactive());
}

TEST(ElasticScaler, ScaleDownNeedsNoInactivity) {
  Pipeline pipe({{10.0, 0.010, 1.0, 1.0, 40, 1, 64, true, 0.001}});
  ElasticScaler scaler;
  const auto constraints = std::vector<LatencyConstraint>{pipe.Constraint(FromMillis(50))};
  auto actions = scaler.Adjust(pipe.graph, constraints, pipe.summary);
  ASSERT_FALSE(actions.empty());
  EXPECT_LT(actions[0].new_parallelism, actions[0].old_parallelism);
  scaler.NotifyApplied(actions);
  EXPECT_FALSE(scaler.IsInactive());
}

TEST(ElasticScaler, ScaleDownHysteresisDelaysShrinks) {
  // Over-provisioned at p = 40; with 2 rounds of hysteresis the shrink
  // must be withheld twice and released on the third consistent round.
  Pipeline pipe({{50.0, 0.010, 1.0, 1.0, 40, 1, 64, true, 0.001}});
  ElasticScalerOptions opts;
  opts.scale_down_hysteresis_rounds = 2;
  ElasticScaler scaler(opts);
  const auto constraints = std::vector<LatencyConstraint>{pipe.Constraint(FromMillis(150))};

  EXPECT_TRUE(scaler.Adjust(pipe.graph, constraints, pipe.summary).empty());
  EXPECT_TRUE(scaler.Adjust(pipe.graph, constraints, pipe.summary).empty());
  const auto actions = scaler.Adjust(pipe.graph, constraints, pipe.summary);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_LT(actions[0].new_parallelism, 40u);
}

TEST(ElasticScaler, ScaleUpBypassesHysteresis) {
  Pipeline pipe({{95.0, 0.010, 1.0, 1.0, 4, 1, 64}});
  ElasticScalerOptions opts;
  opts.scale_down_hysteresis_rounds = 5;
  ElasticScaler scaler(opts);
  const auto actions =
      scaler.Adjust(pipe.graph, {pipe.Constraint(FromMillis(50))}, pipe.summary);
  ASSERT_EQ(actions.size(), 1u);  // bottleneck doubling fires immediately
  EXPECT_GT(actions[0].new_parallelism, 4u);
}

TEST(ElasticScaler, ScaleUpResetsShrinkStreak) {
  // One shrink proposal, then a bottleneck (scale-up), then shrink again:
  // the earlier streak must not carry across the scale-up.
  Pipeline idle({{50.0, 0.010, 1.0, 1.0, 40, 1, 64, true, 0.001}});
  Pipeline busy({{95.0, 0.010, 1.0, 1.0, 40, 1, 512, true, 0.001}});
  ElasticScalerOptions opts;
  opts.scale_down_hysteresis_rounds = 1;
  opts.scale_up_inactivity_intervals = 0;
  ElasticScaler scaler(opts);
  const auto loose = std::vector<LatencyConstraint>{idle.Constraint(FromMillis(150))};

  EXPECT_TRUE(scaler.Adjust(idle.graph, loose, idle.summary).empty());  // streak 1
  const auto up =
      scaler.Adjust(busy.graph, {busy.Constraint(FromMillis(150))}, busy.summary);
  EXPECT_FALSE(up.empty());  // scale-up resets the streak
  EXPECT_TRUE(scaler.Adjust(idle.graph, loose, idle.summary).empty());  // streak 1 again
  EXPECT_FALSE(scaler.Adjust(idle.graph, loose, idle.summary).empty());
}

TEST(ElasticScaler, SuppressForPausesAdjustmentRounds) {
  // Bottlenecked pipeline that would normally scale up immediately.
  Pipeline pipe({{95.0, 0.010, 1.0, 1.0, 4, 1, 64}});
  ElasticScaler scaler;
  const auto constraints = std::vector<LatencyConstraint>{pipe.Constraint(FromMillis(50))};

  scaler.SuppressFor(1);
  EXPECT_TRUE(scaler.IsInactive());
  EXPECT_TRUE(scaler.Adjust(pipe.graph, constraints, pipe.summary).empty());
  // The window is spent; the round after must act again.
  EXPECT_FALSE(scaler.IsInactive());
  EXPECT_FALSE(scaler.Adjust(pipe.graph, constraints, pipe.summary).empty());
}

TEST(ElasticScaler, SuppressForNeverShortensAnArmedWindow) {
  Pipeline pipe({{95.0, 0.010, 1.0, 1.0, 4, 1, 64}});
  ElasticScaler scaler;
  const auto constraints = std::vector<LatencyConstraint>{pipe.Constraint(FromMillis(50))};
  auto actions = scaler.Adjust(pipe.graph, constraints, pipe.summary);
  ASSERT_FALSE(actions.empty());
  pipe.graph.SetParallelism(actions[0].vertex, actions[0].new_parallelism);
  scaler.NotifyApplied(actions);  // arms the default 2-interval window

  scaler.SuppressFor(1);  // shorter than what is armed: must be a no-op
  EXPECT_TRUE(scaler.Adjust(pipe.graph, constraints, pipe.summary).empty());
  EXPECT_TRUE(scaler.Adjust(pipe.graph, constraints, pipe.summary).empty());
  EXPECT_FALSE(scaler.IsInactive());
}

TEST(ElasticScaler, DisabledScalerDoesNothing) {
  Pipeline pipe({{95.0, 0.010}});
  ElasticScalerOptions opts;
  opts.enabled = false;
  ElasticScaler scaler(opts);
  EXPECT_TRUE(
      scaler.Adjust(pipe.graph, {pipe.Constraint(FromMillis(50))}, pipe.summary).empty());
}

TEST(ElasticScaler, NoActionsWhenAlreadyBalanced) {
  Pipeline pipe({{80.0, 0.010, 1.0, 1.0, 5, 1, 64, true, 0.001}});
  ElasticScaler scaler;
  const auto constraints = std::vector<LatencyConstraint>{pipe.Constraint(FromMillis(50))};
  auto actions = scaler.Adjust(pipe.graph, constraints, pipe.summary);
  // Whatever Rebalance picks, applying it and re-running with the same
  // summary-derived model must converge (b and a rescale with p).
  for (const ScalingAction& a : actions) {
    pipe.graph.SetParallelism(a.vertex, a.new_parallelism);
  }
  scaler.NotifyApplied(actions);
  while (scaler.IsInactive()) scaler.Adjust(pipe.graph, constraints, pipe.summary);
  // Note: the summary still reflects the old parallelism, so the model's
  // a/b terms (which embed p) stay consistent and the same target results.
  auto again = scaler.Adjust(pipe.graph, constraints, pipe.summary);
  EXPECT_TRUE(again.empty());
}

}  // namespace
}  // namespace esp
