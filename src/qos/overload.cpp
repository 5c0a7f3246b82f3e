#include "qos/overload.h"

#include <algorithm>

namespace esp {

const char* ToString(ConstraintHealth health) {
  switch (health) {
    case ConstraintHealth::kHealthy:
      return "healthy";
    case ConstraintHealth::kAtRisk:
      return "at-risk";
    case ConstraintHealth::kViolated:
      return "violated";
  }
  return "?";
}

ConstraintHealth ClassifyConstraint(double estimate_seconds, double bound_seconds,
                                    const OverloadOptions& options,
                                    const SaturationSignals& signals) {
  const bool saturated =
      signals.max_queue_fill >= options.queue_watermark && signals.backlog_growth > 0.0;
  if (estimate_seconds < 0.0) {
    // No measurement data yet.  Saturated-and-growing queues are still an
    // early warning (the model will confirm once samples flow).
    return saturated ? ConstraintHealth::kAtRisk : ConstraintHealth::kHealthy;
  }
  if (estimate_seconds > bound_seconds) return ConstraintHealth::kViolated;
  if (estimate_seconds > options.at_risk_fraction * bound_seconds || saturated) {
    return ConstraintHealth::kAtRisk;
  }
  return ConstraintHealth::kHealthy;
}

OverloadController::OverloadController(OverloadOptions options)
    : options_(options) {}

OverloadDecision OverloadController::Tick(ConstraintHealth worst) {
  OverloadDecision d;
  if (!options_.enabled) return d;

  const bool violated = worst == ConstraintHealth::kViolated;
  healthy_streak_ = worst == ConstraintHealth::kHealthy ? healthy_streak_ + 1 : 0;
  violated_streak_ = violated ? violated_streak_ + 1 : 0;

  if (!shedding_) {
    if (violated_streak_ >= options_.violated_rounds_to_shed) {
      shedding_ = true;
      shed_ratio_ = std::min(options_.shed_step, options_.max_shed_ratio);
      shed_ratio_ = std::max(shed_ratio_, options_.min_shed_ratio);
      d.shed_entered = true;
    }
  } else if (violated) {
    // Additive increase toward the ceiling.
    shed_ratio_ = std::min(shed_ratio_ + options_.shed_step, options_.max_shed_ratio);
  } else if (healthy_streak_ >= options_.healthy_exit_rounds) {
    // Multiplicative decrease; landing under the floor exits shedding.
    shed_ratio_ *= options_.shed_decay;
    if (shed_ratio_ < options_.min_shed_ratio) {
      shed_ratio_ = 0.0;
      shedding_ = false;
      d.shed_exited = true;
    }
  }
  // Otherwise AtRisk (or not yet enough healthy rounds): hysteresis -- hold
  // the ratio steady rather than oscillating on a borderline estimate.

  d.shed_ratio = shed_ratio_;
  return d;
}

}  // namespace esp
