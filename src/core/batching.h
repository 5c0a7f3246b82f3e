// Adaptive output batching policy (paper §III, §IV-B; detail from the
// authors' prior Nephele-streaming work).
//
// Output batching trades latency for throughput: items are serialised into a
// per-channel output buffer that is flushed either when full or when its
// oldest item has waited `flush deadline` time units.  The QoS manager picks
// each constrained edge's flush deadline so the total expected batching
// delay fits the share of the constraint bound not consumed by task
// latencies and queue waits.  Here we implement the budget split the paper
// states: (1 - queue_wait_fraction) of the available shipping time is spread
// evenly over the sequence's edges.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "core/scale_reactively.h"
#include "graph/job_graph.h"
#include "graph/sequence.h"
#include "qos/summary.h"

namespace esp {

/// How channels ship data (the paper's evaluation configurations).
enum class ShippingStrategy {
  kInstantFlush,   ///< every item ships immediately (Storm / Nephele-IF)
  kFixedBuffer,    ///< flush only when the buffer is full (Nephele-16KiB)
  kAdaptive,       ///< deadline-based flush from the constraint budget
};

/// Per-edge output-batching deadline assignment (raw JobEdgeId -> deadline).
using FlushDeadlines = std::unordered_map<std::uint32_t, SimDuration>;

struct BatchingPolicyOptions {
  /// Deadlines below this are clamped up; guards against zero/negative
  /// budgets producing busy flush loops.
  SimDuration min_deadline = FromMicros(50);

  /// The flush deadline is this fraction of the per-edge budget share.  At
  /// low per-channel rates nearly every batch holds one item that waits the
  /// FULL deadline, so an undiscounted share makes the mean batching delay
  /// consume the entire 80 % budget and the sequence mean rides its bound.
  double deadline_safety_factor = 0.75;
};

/// Computes flush deadlines for every edge covered by a constraint.  The
/// per-sequence batching budget is
///     (1 - queue_wait_fraction) * (bound - sum of measured task latencies)
/// split evenly over the sequence's edges; an edge covered by several
/// constraints receives the tightest deadline.  `queue_wait_fraction` is the
/// scaler's (ScaleReactivelyOptions): batching gets the complement of the
/// queue-wait share Rebalance plans for.  When the summary lacks task
/// latencies (job just started), task latencies are assumed 0, yielding
/// conservative (small) deadlines that only grow as data arrives.
///
/// `fused_edges` lists edges (raw JobEdgeId values) currently eliminated by
/// task chaining: a fused edge ships synchronously inside one thread, so it
/// has no output buffer to assign a deadline to AND it should not dilute the
/// budget split -- excluding it hands its share to the remaining real edges,
/// which is precisely the latency headroom fusion bought.
///
/// `graph` is unused; it stays because perfbench/cpp/twitter_sim.cpp calls
/// the three-argument form.
FlushDeadlines ComputeFlushDeadlines(
    const JobGraph& graph, const std::vector<LatencyConstraint>& constraints,
    const GlobalSummary& summary,
    double queue_wait_fraction = ScaleReactivelyOptions{}.queue_wait_fraction,
    const BatchingPolicyOptions& options = {},
    const std::vector<std::uint32_t>& fused_edges = {});

}  // namespace esp
