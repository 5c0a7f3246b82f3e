#include "core/batching.h"

#include <algorithm>
#include <unordered_set>

namespace esp {

FlushDeadlines ComputeFlushDeadlines(const JobGraph& /*graph*/,
                                     const std::vector<LatencyConstraint>& constraints,
                                     const GlobalSummary& summary,
                                     double queue_wait_fraction,
                                     const BatchingPolicyOptions& options,
                                     const std::vector<std::uint32_t>& fused_edges) {
  FlushDeadlines deadlines;
  const std::unordered_set<std::uint32_t> fused(fused_edges.begin(), fused_edges.end());

  for (const LatencyConstraint& constraint : constraints) {
    const auto& edges = constraint.sequence.edges();
    if (edges.empty()) continue;

    // Fused edges have no output buffer: they neither receive a deadline nor
    // count in the budget split, so their share flows to the real edges.
    std::size_t real_edges = 0;
    for (JobEdgeId e : edges) {
      if (fused.count(Value(e)) == 0) ++real_edges;
    }
    if (real_edges == 0) continue;

    double task_latency_sum = 0.0;
    for (JobVertexId v : constraint.sequence.vertices()) {
      if (summary.HasVertex(v)) task_latency_sum += summary.vertex(v).task_latency;
    }

    const double shipping_budget = ToSeconds(constraint.bound) - task_latency_sum;
    const double batching_budget =
        (1.0 - queue_wait_fraction) * std::max(0.0, shipping_budget);
    const double share = options.deadline_safety_factor * batching_budget /
                         static_cast<double>(real_edges);
    const SimDuration share_deadline = std::max(options.min_deadline, FromSeconds(share));

    for (JobEdgeId e : edges) {
      if (fused.count(Value(e)) != 0) continue;
      auto [it, inserted] = deadlines.emplace(Value(e), share_deadline);
      if (!inserted) it->second = std::min(it->second, share_deadline);
    }
  }

  return deadlines;
}

}  // namespace esp
