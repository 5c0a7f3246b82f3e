#include "core/elastic_scaler.h"

#include "common/logging.h"

namespace esp {

ElasticScaler::ElasticScaler(ElasticScalerOptions options) : options_(options) {}

std::vector<ScalingAction> ElasticScaler::Adjust(
    const JobGraph& graph, const std::vector<LatencyConstraint>& constraints,
    const GlobalSummary& summary) {
  if (!options_.enabled) return {};
  if (inactivity_remaining_ > 0) {
    --inactivity_remaining_;
    return {};
  }

  const ScalingDecision decision =
      ScaleReactively(graph, constraints, summary, options_.strategy);

  std::vector<ScalingAction> actions;
  for (const auto& [vid, target] : decision.parallelism) {
    const JobVertexId vertex{vid};
    const std::uint32_t current = graph.vertex(vertex).parallelism;
    if (target > current) {
      shrink_streak_.erase(vid);
      actions.push_back(ScalingAction{vertex, current, target});
    } else if (target < current) {
      // Scale-down hysteresis: require a consistent shrink signal.
      if (++shrink_streak_[vid] > options_.scale_down_hysteresis_rounds) {
        shrink_streak_.erase(vid);
        actions.push_back(ScalingAction{vertex, current, target});
      }
    } else {
      shrink_streak_.erase(vid);
    }
  }
  return actions;
}

void ElasticScaler::NotifyApplied(const std::vector<ScalingAction>& actions) {
  for (const ScalingAction& a : actions) {
    if (a.new_parallelism > a.old_parallelism) {
      inactivity_remaining_ = options_.scale_up_inactivity_intervals;
      ESP_LOG_DEBUG << "scale-up applied; scaler inactive for " << inactivity_remaining_
                    << " adjustment intervals";
      return;
    }
  }
}

}  // namespace esp
