#include "core/scale_reactively.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace esp {

BottleneckResolution ResolveBottlenecks(const LatencyModel& model) {
  BottleneckResolution res;
  for (const VertexModel& v : model.vertices()) {
    if (v.utilization < model.options().bottleneck_utilization) continue;
    if (!v.elastic || v.p_current >= v.p_max) {
      res.unresolvable.push_back(v.id);
      continue;
    }
    // Eq. 10: at least double; if the offered load (lambda p S, measured in
    // busy servers) calls for more, take that instead.
    const double offered = 2.0 * v.b;
    const std::uint32_t by_load =
        static_cast<std::uint32_t>(std::min<double>(std::ceil(offered), v.p_max));
    const std::uint32_t doubled = std::min<std::uint32_t>(2 * v.p_current, v.p_max);
    res.parallelism[Value(v.id)] = std::max(doubled, by_load);
  }
  return res;
}

ScalingDecision ScaleReactively(const JobGraph& graph,
                                const std::vector<LatencyConstraint>& constraints,
                                const GlobalSummary& summary,
                                const ScaleReactivelyOptions& options) {
  ScalingDecision decision;
  // P in Algorithm 2: the running floor that later constraints must respect.
  ParallelismFloor floor;

  for (const LatencyConstraint& constraint : constraints) {
    ConstraintOutcome outcome;
    outcome.constraint_name = constraint.name;

    // Skip constraints whose sequence has no measurement data yet.
    bool have_data = true;
    for (JobVertexId v : constraint.sequence.vertices()) {
      if (!summary.HasVertex(v)) {
        have_data = false;
        break;
      }
    }
    if (!have_data) {
      outcome.action = ConstraintAction::kNoData;
      decision.outcomes.push_back(std::move(outcome));
      continue;
    }

    const LatencyModel model =
        LatencyModel::Build(graph, summary, constraint.sequence, options.model);

    std::unordered_map<std::uint32_t, std::uint32_t> chosen;
    if (model.HasBottleneck()) {
      BottleneckResolution res = ResolveBottlenecks(model);
      chosen = std::move(res.parallelism);
      outcome.action = res.unresolvable.empty() ? ConstraintAction::kBottleneckResolved
                                                : ConstraintAction::kBottleneckStuck;
      for (JobVertexId v : res.unresolvable) {
        ESP_LOG_WARN << "constraint '" << constraint.name << "': bottleneck at vertex '"
                     << graph.vertex(v).name << "' cannot be resolved by scaling out";
      }
    } else {
      // W_hat = fraction * (l - sum of task latencies); the rest is the
      // adaptive-batching budget (Algorithm 2, line 7).
      double task_latency_sum = 0.0;
      for (JobVertexId v : constraint.sequence.vertices()) {
        task_latency_sum += summary.vertex(v).task_latency;
      }
      const double budget =
          options.queue_wait_fraction * (ToSeconds(constraint.bound) - task_latency_sum);
      outcome.wait_budget = budget;

      // P_min: the floor accumulated so far, at least each vertex's p_min
      // (Algorithm 2, line 6), raised further so predicted utilization
      // stays at or below the configured target.
      ParallelismFloor local_floor = floor;
      if (options.max_target_utilization < 1.0) {
        for (const VertexModel& v : model.vertices()) {
          if (!v.elastic || v.b <= 0.0) continue;
          const std::uint32_t u_floor = static_cast<std::uint32_t>(
              std::ceil(v.b / options.max_target_utilization));
          const std::uint32_t clamped = std::min(u_floor, v.p_max);
          auto [it, inserted] = local_floor.emplace(Value(v.id), clamped);
          if (!inserted) it->second = std::max(it->second, clamped);
        }
      }
      if (GetLogLevel() <= LogLevel::kDebug) {
        for (const VertexModel& v : model.vertices()) {
          ESP_LOG_DEBUG << "rebalance '" << constraint.name << "' vertex '"
                        << graph.vertex(v.id).name << "': p=" << v.p_current
                        << " a=" << v.a << " b=" << v.b << " e=" << v.error_coefficient
                        << " rho=" << v.utilization << " budget=" << budget;
        }
      }
      const RebalanceResult res = Rebalance(model, budget, local_floor);
      outcome.predicted_wait = res.predicted_wait;
      outcome.rebalance_iterations = res.iterations;
      outcome.action = res.feasible ? ConstraintAction::kRebalanced
                                    : ConstraintAction::kRebalanceInfeasible;
      for (std::size_t i = 0; i < model.vertices().size(); ++i) {
        const VertexModel& v = model.vertices()[i];
        if (v.elastic) chosen[Value(v.id)] = res.parallelism[i];
      }
    }

    // P.jv <- max(P.jv, p*) (Algorithm 2, line 10).
    for (const auto& [vid, p] : chosen) {
      auto [it, inserted] = floor.emplace(vid, p);
      if (!inserted) it->second = std::max(it->second, p);
      auto [dit, dinserted] = decision.parallelism.emplace(vid, p);
      if (!dinserted) dit->second = std::max(dit->second, p);
    }

    decision.outcomes.push_back(std::move(outcome));
  }

  return decision;
}

}  // namespace esp
