// The Elastic Scaler (paper Fig. 4, §V): the master-side controller that
// turns global summaries into scaling actions.
//
// Once per adjustment interval the engine hands the scaler the freshest
// global summary; the scaler runs ScaleReactively and returns the scaling
// actions to apply.  After any scale-up it stays inactive for a configurable
// number of adjustment intervals (the paper uses 2, i.e. 10 s), because new
// tasks need time to show up in the measurements and fresh TCP connections
// transiently worsen channel latency.  Scale-downs need no inactivity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/time.h"
#include "core/scale_reactively.h"
#include "graph/job_graph.h"
#include "graph/sequence.h"
#include "qos/summary.h"

namespace esp {

struct ElasticScalerOptions {
  ScaleReactivelyOptions strategy;

  /// Adjustment intervals to skip after a decision containing a scale-up.
  std::uint32_t scale_up_inactivity_intervals = 2;

  /// Scale-down hysteresis: a vertex is only shrunk after this many
  /// CONSECUTIVE adjustment rounds proposed shrinking it.  Scale-ups pass
  /// immediately (reaction speed is sacred); delayed scale-downs merely
  /// cost some temporary over-provisioning.  Implements the paper's stated
  /// future work of "reducing the number of scaling actions"; 0 restores
  /// the bare strategy.
  std::uint32_t scale_down_hysteresis_rounds = 0;

  /// When false the scaler only reports what it would do (dry run).
  bool enabled = true;
};

/// One concrete action the scheduler must execute.
struct ScalingAction {
  JobVertexId vertex;
  std::uint32_t old_parallelism = 0;
  std::uint32_t new_parallelism = 0;
};

/// Stateful controller; one instance per job.
class ElasticScaler {
 public:
  explicit ElasticScaler(ElasticScalerOptions options = {});

  /// Runs one adjustment round.  Returns the actions to execute (empty when
  /// inactive, disabled, or nothing changes).  Does NOT mutate the graph;
  /// the scheduler applies actions and then calls NotifyApplied().
  std::vector<ScalingAction> Adjust(const JobGraph& graph,
                                    const std::vector<LatencyConstraint>& constraints,
                                    const GlobalSummary& summary);

  /// Tells the scaler its actions were executed, arming the inactivity
  /// window when any action scaled up.
  void NotifyApplied(const std::vector<ScalingAction>& actions);

  /// True when the scaler is inside a post-scale-up inactivity window.
  bool IsInactive() const { return inactivity_remaining_ > 0; }

  /// Forces at least `intervals` inactive adjustment rounds, without
  /// shortening an already-armed window.  Called after a failure recovery:
  /// the first post-restart summary reflects the outage and the replay
  /// burst, and reacting to it would scale a healthy vertex.
  void SuppressFor(std::uint32_t intervals) {
    inactivity_remaining_ = std::max(inactivity_remaining_, intervals);
  }

 private:
  ElasticScalerOptions options_;
  std::uint32_t inactivity_remaining_ = 0;
  /// Consecutive rounds each vertex was proposed for shrinking.
  std::unordered_map<std::uint32_t, std::uint32_t> shrink_streak_;
};

}  // namespace esp
