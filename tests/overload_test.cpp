// Unit tests for the overload guard (DESIGN.md §11): watchdog
// classification, the AIMD shed controller, and the
// QosManager recovery-hygiene interaction with quarantine -- stale estimates
// from a quarantined vertex must never trigger shedding on healthy
// constraints.
#include <gtest/gtest.h>

#include "graph/job_graph.h"
#include "graph/sequence.h"
#include "qos/manager.h"
#include "qos/overload.h"
#include "qos/summary.h"

namespace esp {
namespace {

OverloadOptions EnabledOptions() {
  OverloadOptions o;
  o.enabled = true;
  return o;
}

// ---------------------------------------------------------------------------
// ClassifyConstraint
// ---------------------------------------------------------------------------

TEST(ClassifyConstraint, HealthyWellUnderBound) {
  EXPECT_EQ(ClassifyConstraint(0.010, 0.100, EnabledOptions(), {}),
            ConstraintHealth::kHealthy);
}

TEST(ClassifyConstraint, AtRiskAboveFractionOfBound) {
  // Default at_risk_fraction = 0.8: 85 ms against a 100 ms bound.
  EXPECT_EQ(ClassifyConstraint(0.085, 0.100, EnabledOptions(), {}),
            ConstraintHealth::kAtRisk);
}

TEST(ClassifyConstraint, ViolatedOverBound) {
  EXPECT_EQ(ClassifyConstraint(0.150, 0.100, EnabledOptions(), {}),
            ConstraintHealth::kViolated);
}

TEST(ClassifyConstraint, SaturationUpgradesHealthyToAtRisk) {
  SaturationSignals sig;
  sig.max_queue_fill = 0.95;   // above the 0.8 watermark
  sig.backlog_growth = 100.0;  // and growing
  EXPECT_EQ(ClassifyConstraint(0.010, 0.100, EnabledOptions(), sig),
            ConstraintHealth::kAtRisk);
}

TEST(ClassifyConstraint, FullButDrainingQueueStaysHealthy) {
  SaturationSignals sig;
  sig.max_queue_fill = 0.95;
  sig.backlog_growth = -50.0;  // draining: a backlog being worked off
  EXPECT_EQ(ClassifyConstraint(0.010, 0.100, EnabledOptions(), sig),
            ConstraintHealth::kHealthy);
}

TEST(ClassifyConstraint, NoDataIsHealthyUnlessSaturated) {
  EXPECT_EQ(ClassifyConstraint(-1.0, 0.100, EnabledOptions(), {}),
            ConstraintHealth::kHealthy);
  SaturationSignals sig;
  sig.max_queue_fill = 1.0;
  sig.backlog_growth = 10.0;
  EXPECT_EQ(ClassifyConstraint(-1.0, 0.100, EnabledOptions(), sig),
            ConstraintHealth::kAtRisk);
}

// ---------------------------------------------------------------------------
// OverloadController: the AIMD shed controller
// ---------------------------------------------------------------------------

TEST(OverloadController, DisabledControllerNeverSheds) {
  OverloadController c;  // default options: enabled = false
  for (int i = 0; i < 10; ++i) {
    const OverloadDecision d = c.Tick(ConstraintHealth::kViolated);
    EXPECT_DOUBLE_EQ(d.shed_ratio, 0.0);
    EXPECT_FALSE(d.shed_entered);
  }
}

TEST(OverloadController, EntersSheddingAfterViolatedRounds) {
  OverloadOptions o = EnabledOptions();
  o.violated_rounds_to_shed = 2;
  OverloadController c(o);
  OverloadDecision d = c.Tick(ConstraintHealth::kViolated);
  EXPECT_FALSE(d.shed_entered);  // one round is not enough
  EXPECT_DOUBLE_EQ(d.shed_ratio, 0.0);
  d = c.Tick(ConstraintHealth::kViolated);
  EXPECT_TRUE(d.shed_entered);
  EXPECT_DOUBLE_EQ(d.shed_ratio, o.shed_step);
}

TEST(OverloadController, HealthyRoundResetsViolatedStreak) {
  OverloadOptions o = EnabledOptions();
  o.violated_rounds_to_shed = 2;
  OverloadController c(o);
  c.Tick(ConstraintHealth::kViolated);
  c.Tick(ConstraintHealth::kHealthy);  // streak broken
  const OverloadDecision d = c.Tick(ConstraintHealth::kViolated);
  EXPECT_FALSE(d.shed_entered);
  EXPECT_DOUBLE_EQ(d.shed_ratio, 0.0);
}

TEST(OverloadController, AdditiveIncreaseCapsAtCeiling) {
  OverloadController c(EnabledOptions());
  double prev = 0.0;
  for (int i = 0; i < 6; ++i) {
    const OverloadDecision d = c.Tick(ConstraintHealth::kViolated);
    EXPECT_GE(d.shed_ratio, prev);
    EXPECT_LE(d.shed_ratio, c.options().max_shed_ratio);
    prev = d.shed_ratio;
  }
  EXPECT_DOUBLE_EQ(prev, c.options().max_shed_ratio);
}

TEST(OverloadController, AtRiskFreezesRatio) {
  OverloadController c(EnabledOptions());
  c.Tick(ConstraintHealth::kViolated);  // enter shedding at shed_step
  const double entered = c.shed_ratio();
  for (int i = 0; i < 5; ++i) {
    const OverloadDecision d = c.Tick(ConstraintHealth::kAtRisk);
    EXPECT_FALSE(d.shed_exited);
    EXPECT_DOUBLE_EQ(d.shed_ratio, entered);  // hysteresis: hold steady
  }
}

TEST(OverloadController, HealthyRoundsDecayAndExit) {
  OverloadController c(EnabledOptions());
  c.Tick(ConstraintHealth::kViolated);  // ratio = 0.15
  // healthy_exit_rounds = 2: the first healthy round only builds the streak.
  OverloadDecision d = c.Tick(ConstraintHealth::kHealthy);
  EXPECT_DOUBLE_EQ(d.shed_ratio, 0.15);
  d = c.Tick(ConstraintHealth::kHealthy);  // decay: 0.075
  EXPECT_NEAR(d.shed_ratio, 0.075, 1e-12);
  EXPECT_FALSE(d.shed_exited);
  d = c.Tick(ConstraintHealth::kHealthy);  // 0.0375
  EXPECT_FALSE(d.shed_exited);
  d = c.Tick(ConstraintHealth::kHealthy);  // 0.01875 < min 0.02 -> exit
  EXPECT_TRUE(d.shed_exited);
  EXPECT_DOUBLE_EQ(d.shed_ratio, 0.0);
}

TEST(OverloadController, SustainedViolationHoldsTheCeilingThenDecays) {
  OverloadController c(EnabledOptions());
  // 0.15 -> 0.30 -> ... -> 0.90 at round 6.
  for (int i = 0; i < 6; ++i) c.Tick(ConstraintHealth::kViolated);
  ASSERT_DOUBLE_EQ(c.shed_ratio(), c.options().max_shed_ratio);
  // Violation that shedding cannot cure: the ratio stays at the ceiling and
  // nothing else happens -- there is no rung above shedding.
  for (int i = 0; i < 12; ++i) {
    const OverloadDecision d = c.Tick(ConstraintHealth::kViolated);
    EXPECT_DOUBLE_EQ(d.shed_ratio, c.options().max_shed_ratio);
    EXPECT_FALSE(d.shed_entered);
    EXPECT_FALSE(d.shed_exited);
  }
  c.Tick(ConstraintHealth::kHealthy);  // builds the healthy streak
  const OverloadDecision d = c.Tick(ConstraintHealth::kHealthy);
  EXPECT_FALSE(d.shed_exited);
  EXPECT_NEAR(d.shed_ratio, 0.45, 1e-12);  // 0.9 * shed_decay
}

// ---------------------------------------------------------------------------
// Recovery hygiene: quarantine x QosManager::MarkStale / DropVertex
// ---------------------------------------------------------------------------

// Source fans out to a Hot path (to be quarantined) and a Cold path; both
// rejoin at the Sink.  Edges: 0 Source->Hot, 1 Source->Cold, 2 Hot->Sink,
// 3 Cold->Sink.
JobGraph DiamondGraph() {
  JobGraph g;
  g.AddVertex({.name = "Source", .parallelism = 1, .max_parallelism = 1});
  g.AddVertex({.name = "Hot", .parallelism = 1, .max_parallelism = 4});
  g.AddVertex({.name = "Cold", .parallelism = 1, .max_parallelism = 4});
  g.AddVertex({.name = "Sink", .parallelism = 1, .max_parallelism = 1});
  g.Connect(g.VertexByName("Source"), g.VertexByName("Hot"));
  g.Connect(g.VertexByName("Source"), g.VertexByName("Cold"));
  g.Connect(g.VertexByName("Hot"), g.VertexByName("Sink"));
  g.Connect(g.VertexByName("Cold"), g.VertexByName("Sink"));
  return g;
}

QosReport MakeTaskReport(SimTime t, TaskId task, double service,
                         double interarrival, double latency,
                         std::uint64_t items = 100) {
  QosReport r;
  r.time = t;
  TaskMeasurement m;
  m.service_mean = service;
  m.interarrival_mean = interarrival;
  m.task_latency = latency;
  m.items = items;
  r.tasks.emplace_back(task, m);
  return r;
}

QosReport MakeChannelReport(SimTime t, std::initializer_list<JobEdgeId> edges,
                            double channel_latency) {
  QosReport r;
  r.time = t;
  ChannelMeasurement cm;
  cm.channel_latency = channel_latency;
  cm.items = 100;
  for (const JobEdgeId e : edges) r.channels.emplace_back(ChannelId{e, 0, 0}, cm);
  return r;
}

ConstraintHealth ClassifySequence(const QosManager& manager, SimTime now,
                                  const JobSequence& seq, double bound) {
  const GlobalSummary global = MergeSummaries({manager.MakePartialSummary(now)});
  double latency = 0.0;
  const double estimate =
      EstimateSequenceLatency(global, seq, &latency) ? latency : -1.0;
  return ClassifyConstraint(estimate, bound, EnabledOptions(), {});
}

TEST(QuarantineHygiene, StaleEstimatesFromQuarantinedVertexDoNotShed) {
  const JobGraph g = DiamondGraph();
  const JobVertexId hot = g.VertexByName("Hot");
  const JobVertexId cold = g.VertexByName("Cold");
  const JobSequence hot_seq =
      JobSequence::FromEdgeChain(g, {JobEdgeId{0}, JobEdgeId{2}});
  const JobSequence cold_seq =
      JobSequence::FromEdgeChain(g, {JobEdgeId{1}, JobEdgeId{3}});
  const double kBound = 0.100;

  QosManager manager(/*history_length=*/5);
  // The Hot task is wedged: its last reports before the watchdog fires carry
  // garbage latencies far over the bound.  Cold is comfortably healthy.
  manager.Ingest(MakeTaskReport(FromSeconds(1), TaskId{hot, 0}, 0.002, 0.01, 5.0));
  manager.Ingest(MakeTaskReport(FromSeconds(1), TaskId{cold, 0}, 0.002, 0.01, 0.005));
  manager.Ingest(MakeChannelReport(FromSeconds(1),
                                   {JobEdgeId{0}, JobEdgeId{1}, JobEdgeId{2},
                                    JobEdgeId{3}},
                                   0.001));

  // Sanity: without hygiene the wedged numbers WOULD classify as Violated --
  // exactly the false-shed hazard the quarantine path must prevent.
  ASSERT_EQ(ClassifySequence(manager, FromSeconds(1), hot_seq, kBound),
            ConstraintHealth::kViolated);

  // Quarantine Hot at t=2s: the engine marks the outage window stale and
  // drops the vertex plus its adjacent edges from the QoS state.
  manager.MarkStale(FromSeconds(2));
  manager.DropVertex(hot, {JobEdgeId{0}, JobEdgeId{2}});

  // The hot constraint reverts to no-data (Healthy, no shedding) instead of
  // Violated-on-garbage; the cold constraint still measures Healthy.
  EXPECT_EQ(ClassifySequence(manager, FromSeconds(2), hot_seq, kBound),
            ConstraintHealth::kHealthy);
  EXPECT_EQ(ClassifySequence(manager, FromSeconds(2), cold_seq, kBound),
            ConstraintHealth::kHealthy);

  // A straggler report from the quarantined task, stamped inside the outage
  // window, must be dropped whole -- it cannot resurrect the garbage.
  manager.Ingest(MakeTaskReport(FromSeconds(1.5), TaskId{hot, 0}, 0.002, 0.01, 5.0));
  manager.Ingest(MakeChannelReport(FromSeconds(1.5), {JobEdgeId{0}, JobEdgeId{2}},
                                   0.001));
  EXPECT_EQ(ClassifySequence(manager, FromSeconds(2), hot_seq, kBound),
            ConstraintHealth::kHealthy);

  // Fresh post-recovery reports flow again and are classified on their own
  // merits: the replacement task is healthy.
  manager.Ingest(MakeTaskReport(FromSeconds(3), TaskId{hot, 0}, 0.002, 0.01, 0.004));
  manager.Ingest(MakeChannelReport(FromSeconds(3), {JobEdgeId{0}, JobEdgeId{2}},
                                   0.001));
  EXPECT_EQ(ClassifySequence(manager, FromSeconds(3), hot_seq, kBound),
            ConstraintHealth::kHealthy);
}

}  // namespace
}  // namespace esp
