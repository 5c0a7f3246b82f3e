// Unit and property tests for the queueing latency model (paper §IV-C):
// Kingman's approximation, the error-coefficient fit, and the closed-form
// step formulas P_W / P_Delta.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "graph/job_graph.h"
#include "graph/sequence.h"
#include "model/latency_model.h"
#include "qos/summary.h"

namespace esp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One worker stage between a source and a sink, so the worker has an
// inbound edge within the sequence for the error-coefficient fit.
struct Fixture {
  JobGraph graph;
  GlobalSummary summary;
  JobVertexId worker;

  Fixture(double lambda, double service, double cva, double cvs, std::uint32_t p,
          std::uint32_t p_max, double edge_latency = 0.0, double edge_obl = 0.0) {
    graph.AddVertex({.name = "Source", .parallelism = 1, .max_parallelism = 1});
    worker = graph.AddVertex({.name = "Worker", .parallelism = p, .min_parallelism = 1,
                              .max_parallelism = p_max, .elastic = true});
    graph.AddVertex({.name = "Sink", .parallelism = 1, .max_parallelism = 1});
    graph.Connect(graph.VertexByName("Source"), worker);
    graph.Connect(worker, graph.VertexByName("Sink"));

    VertexSummary vs;
    vs.service_mean = service;
    vs.service_cv = cvs;
    vs.interarrival_mean = lambda > 0 ? 1.0 / lambda : 0.0;
    vs.interarrival_cv = cva;
    vs.arrival_rate = lambda;
    vs.measured_parallelism = p;
    summary.vertices[Value(worker)] = vs;
    // Only register inbound-edge data when the test actually measures it;
    // otherwise the error coefficient must stay at its neutral value 1.
    if (edge_latency > 0.0 || edge_obl > 0.0) {
      summary.edges[0] = EdgeSummary{edge_latency, edge_obl};
    }
  }

  JobSequence Sequence() const {
    return JobSequence::FromEdgeChain(graph, {JobEdgeId{0}, JobEdgeId{1}});
  }

  LatencyModel Model(const LatencyModelOptions& opts = {}) const {
    return LatencyModel::Build(graph, summary, Sequence(), opts);
  }
};

TEST(KingmanWait, MatchesMm1ExpectedWait) {
  // For M/M/1 (cva = cvs = 1) Kingman is exact: W = rho * S / (1 - rho).
  const double rho = 0.8;
  const double service = 0.01;
  EXPECT_NEAR(KingmanWait(rho, service, 1.0, 1.0), 0.8 * 0.01 / 0.2, 1e-12);
}

TEST(KingmanWait, DeterministicSystemHasNoWait) {
  EXPECT_DOUBLE_EQ(KingmanWait(0.9, 0.01, 0.0, 0.0), 0.0);
}

TEST(KingmanWait, SaturationYieldsInfinity) {
  EXPECT_TRUE(std::isinf(KingmanWait(1.0, 0.01, 1.0, 1.0)));
  EXPECT_TRUE(std::isinf(KingmanWait(1.5, 0.01, 1.0, 1.0)));
}

TEST(KingmanWait, ZeroLoadYieldsZero) {
  EXPECT_DOUBLE_EQ(KingmanWait(0.0, 0.01, 1.0, 1.0), 0.0);
}

TEST(LatencyModel, WaitFollowsClosedForm) {
  // lambda=80/s per task, S=10ms, p=4 -> b = 3.2, cv term = 1.
  const Fixture f(80.0, 0.010, 1.0, 1.0, 4, 64);
  const LatencyModel model = f.Model();
  ASSERT_EQ(model.vertices().size(), 1u);
  const VertexModel& v = model.vertices()[0];
  EXPECT_NEAR(v.b, 3.2, 1e-12);
  // Without an inbound-edge wait measurement e stays 1:
  // a = 1 * 80 * 0.0001 * 4 * 1 = 0.032.
  EXPECT_NEAR(v.a, 0.032, 1e-12);
  EXPECT_NEAR(v.Wait(4), 0.032 / 0.8, 1e-12);
  EXPECT_NEAR(v.Wait(8), 0.032 / 4.8, 1e-12);
  EXPECT_TRUE(std::isinf(v.Wait(3)));  // p <= b saturates
}

TEST(LatencyModel, ErrorCoefficientReproducesMeasuredWait) {
  // Measured queue wait on the inbound edge = l_e - obl_e = 60 ms while
  // Kingman predicts 40 ms -> e = 1.5, and the fitted model must return the
  // measured wait at the current parallelism (the whole point of Eq. 4).
  const double lambda = 80.0;
  const double service = 0.010;
  const double kingman = KingmanWait(0.8, service, 1.0, 1.0);  // 40 ms
  const Fixture f(lambda, service, 1.0, 1.0, 4, 64,
                  /*edge_latency=*/kingman * 1.5 + 0.002, /*edge_obl=*/0.002);
  const VertexModel& v = f.Model().vertices()[0];
  EXPECT_NEAR(v.error_coefficient, 1.5, 1e-9);
  EXPECT_NEAR(v.Wait(4), kingman * 1.5, 1e-9);
}

TEST(LatencyModel, ErrorCoefficientClampsToConfiguredRange) {
  const double kingman = KingmanWait(0.8, 0.010, 1.0, 1.0);
  Fixture f(80.0, 0.010, 1.0, 1.0, 4, 64, kingman * 1e6, 0.0);
  LatencyModelOptions opts;
  opts.max_error_coefficient = 10.0;
  EXPECT_NEAR(f.Model(opts).vertices()[0].error_coefficient, 10.0, 1e-9);

  // A near-zero measured wait drives the raw fit toward 0; the lower clamp
  // must catch it.
  Fixture g(80.0, 0.010, 1.0, 1.0, 4, 64, /*edge_latency=*/1e-9, /*edge_obl=*/0.0);
  opts.min_error_coefficient = 0.25;
  EXPECT_NEAR(g.Model(opts).vertices()[0].error_coefficient, 0.25, 1e-9);
}

TEST(LatencyModel, ErrorCoefficientDisabledByOption) {
  const double kingman = KingmanWait(0.8, 0.010, 1.0, 1.0);
  Fixture f(80.0, 0.010, 1.0, 1.0, 4, 64, kingman * 3.0, 0.0);
  LatencyModelOptions opts;
  opts.use_error_coefficient = false;
  EXPECT_DOUBLE_EQ(f.Model(opts).vertices()[0].error_coefficient, 1.0);
}

TEST(LatencyModel, BuildThrowsWithoutVertexData) {
  Fixture f(80.0, 0.010, 1.0, 1.0, 4, 64);
  f.summary.vertices.clear();
  EXPECT_THROW(f.Model(), std::invalid_argument);
}

TEST(LatencyModel, BottleneckDetectionUsesThreshold) {
  const Fixture busy(95.0, 0.010, 1.0, 1.0, 1, 64);  // rho = 0.95
  EXPECT_TRUE(busy.Model().HasBottleneck());

  const Fixture relaxed(50.0, 0.010, 1.0, 1.0, 1, 64);  // rho = 0.5
  EXPECT_FALSE(relaxed.Model().HasBottleneck());

  LatencyModelOptions strict;
  strict.bottleneck_utilization = 0.4;
  EXPECT_TRUE(relaxed.Model(strict).HasBottleneck());
}

TEST(LatencyModel, TotalWaitSumsAndPropagatesInfinity) {
  const Fixture f(80.0, 0.010, 1.0, 1.0, 4, 64);
  const LatencyModel model = f.Model();
  EXPECT_NEAR(model.TotalWait({4}), model.vertices()[0].Wait(4), 1e-12);
  EXPECT_TRUE(std::isinf(model.TotalWait({2})));
  EXPECT_THROW(model.TotalWait({4, 4}), std::invalid_argument);
}


// --- Property tests for the closed-form step formulas -----------------

struct StepCase {
  double lambda;
  double service;
  double cva;
  double cvs;
  std::uint32_t p;
  // gtest names each case by the struct's printed bytes; an explicit,
  // zeroed tail instead of padding keeps those names the same in every build.
  std::uint32_t zero_tail = 0;
};

class StepFormulaTest : public ::testing::TestWithParam<StepCase> {};

TEST_P(StepFormulaTest, MinParallelismForWaitIsMinimal) {
  const StepCase c = GetParam();
  const Fixture f(c.lambda, c.service, c.cva, c.cvs, c.p, 100000);
  const VertexModel& v = f.Model().vertices()[0];
  for (const double w : {0.1, 0.01, 0.001, 0.0001}) {
    const auto p_star = v.MinParallelismForWait(w);
    ASSERT_TRUE(p_star.has_value()) << "w=" << w;
    EXPECT_LE(v.Wait(*p_star), w) << "w=" << w;
    if (*p_star > 1) {
      EXPECT_GT(v.Wait(*p_star - 1), w) << "w=" << w << " not minimal";
    }
  }
}

TEST_P(StepFormulaTest, ParallelismForDeltaIsMinimal) {
  const StepCase c = GetParam();
  const Fixture f(c.lambda, c.service, c.cva, c.cvs, c.p, 100000);
  const VertexModel& v = f.Model().vertices()[0];
  // Pick runner-up deltas of varying magnitude.
  for (const double delta : {-1e-3, -1e-4, -1e-5, -1e-6}) {
    const std::uint32_t p_star = v.ParallelismForDelta(delta);
    // At p_star the improvement must be no better than delta ...
    EXPECT_GE(v.Delta(p_star), delta) << "delta=" << delta;
    // ... and p_star must be minimal with that property.
    if (p_star > 1 && std::isfinite(v.Wait(p_star - 1))) {
      EXPECT_LT(v.Delta(p_star - 1), delta) << "delta=" << delta << " not minimal";
    }
  }
}

TEST_P(StepFormulaTest, WaitIsMonotonicallyDecreasing) {
  const StepCase c = GetParam();
  const Fixture f(c.lambda, c.service, c.cva, c.cvs, c.p, 100000);
  const VertexModel& v = f.Model().vertices()[0];
  double prev = kInf;
  const std::uint32_t start = static_cast<std::uint32_t>(std::floor(v.b)) + 1;
  for (std::uint32_t p = start; p < start + 50; ++p) {
    const double w = v.Wait(p);
    EXPECT_LE(w, prev) << "p=" << p;
    prev = w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LoadSweep, StepFormulaTest,
    ::testing::Values(StepCase{80.0, 0.010, 1.0, 1.0, 4},
                      StepCase{200.0, 0.004, 0.5, 1.5, 8},
                      StepCase{1000.0, 0.001, 2.0, 0.3, 2},
                      StepCase{10.0, 0.050, 1.2, 1.2, 16},
                      StepCase{5000.0, 0.0005, 0.8, 0.8, 32}));

TEST(LatencyModel, DeltaOfSaturatedVertexIsNegativeInfinity) {
  const Fixture f(80.0, 0.010, 1.0, 1.0, 4, 64);
  const VertexModel& v = f.Model().vertices()[0];
  EXPECT_TRUE(std::isinf(v.Delta(3)));
  EXPECT_LT(v.Delta(3), 0.0);
}

TEST(LatencyModel, SequenceOpeningVertexHasUnitErrorCoefficient) {
  // Build a sequence that starts at the worker vertex itself; with no
  // inbound edge inside the sequence, e must stay 1.
  Fixture f(80.0, 0.010, 1.0, 1.0, 4, 64, /*edge_latency=*/0.5, /*edge_obl=*/0.0);
  const JobSequence seq(f.graph, {SequenceElement{f.worker}, SequenceElement{JobEdgeId{1}}});
  const LatencyModel model = LatencyModel::Build(f.graph, f.summary, seq, {});
  EXPECT_DOUBLE_EQ(model.vertices()[0].error_coefficient, 1.0);
}

}  // namespace
}  // namespace esp
