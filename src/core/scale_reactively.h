// ResolveBottlenecks (paper §IV-E) and the overall ScaleReactively strategy
// (paper §IV-F, Algorithm 2).
//
// ScaleReactively walks all latency constraints.  Sequences with a
// bottleneck (utilization >= rho_max) get the last-resort doubling of
// ResolveBottlenecks, because queueing inputs are unusable under
// backpressure.  Otherwise Rebalance minimises parallelism against the
// queue-wait budget W_hat = queue_wait_fraction * (l - sum of task
// latencies); the rest of the budget is reserved for adaptive output
// batching.  A running floor P ensures later constraints never undo an
// earlier constraint's scale-up.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rebalance.h"
#include "graph/job_graph.h"
#include "graph/sequence.h"
#include "model/latency_model.h"
#include "qos/summary.h"

namespace esp {

/// Knobs for the reactive strategy.
struct ScaleReactivelyOptions {
  LatencyModelOptions model;

  /// Fraction of the shipping-time budget given to queue waiting (paper
  /// uses 0.2; the remaining 0.8 is left to output batching).
  double queue_wait_fraction = 0.2;

  /// Utilization headroom: Rebalance's P_min floor is raised so no vertex
  /// is scaled to a predicted utilization above this value.  Kingman is a
  /// steady-state mean; operating just below saturation (rho ~0.95) makes
  /// queues explode on ordinary bursts, which the wait budget alone does
  /// not prevent.  Set to 1.0 to recover the paper's bare Algorithm 2.
  double max_target_utilization = 0.85;
};

/// New parallelism for the bottleneck vertices of one model:
/// p* = min(p_max, max(2 p, ceil(2 lambda p S))) (Eq. 10).  Non-elastic or
/// fully scaled-out bottlenecks are reported in `unresolvable`.
struct BottleneckResolution {
  std::unordered_map<std::uint32_t, std::uint32_t> parallelism;
  std::vector<JobVertexId> unresolvable;
};
BottleneckResolution ResolveBottlenecks(const LatencyModel& model);

/// Why a constraint got the treatment it did, for operator visibility.
enum class ConstraintAction {
  kRebalanced,          ///< Rebalance produced a feasible assignment
  kRebalanceInfeasible, ///< even max scale-out misses the wait budget
  kBottleneckResolved,  ///< ResolveBottlenecks scaled the bottlenecks
  kBottleneckStuck,     ///< bottleneck exists but cannot be scaled out
  kNoData,              ///< summary lacks data for the sequence
};

/// Per-constraint diagnostic record.
struct ConstraintOutcome {
  std::string constraint_name;
  ConstraintAction action = ConstraintAction::kNoData;
  double wait_budget = 0.0;     ///< W_hat handed to Rebalance (seconds)
  double predicted_wait = 0.0;  ///< model wait at the chosen parallelism
  std::uint32_t rebalance_iterations = 0;
};

/// The scaling decision for one adjustment interval.
struct ScalingDecision {
  /// Target parallelism per vertex (raw JobVertexId -> p).  Only vertices
  /// appearing in some constrained sequence are present; unchanged vertices
  /// may map to their current value.
  std::unordered_map<std::uint32_t, std::uint32_t> parallelism;

  std::vector<ConstraintOutcome> outcomes;
};

/// Runs Algorithm 2 against the latest global summary.  Constraints whose
/// sequences lack summary data are skipped (kNoData).
ScalingDecision ScaleReactively(const JobGraph& graph,
                                const std::vector<LatencyConstraint>& constraints,
                                const GlobalSummary& summary,
                                const ScaleReactivelyOptions& options = {});

}  // namespace esp
