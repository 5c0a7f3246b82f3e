// Task-chaining support types (DESIGN.md §10).
//
// Task chaining is the paper's second enforcement lever next to adaptive
// output batching: when an edge is pointwise (non-shuffling) and both
// endpoints run at equal parallelism, the k-th downstream subtask only ever
// receives from the k-th upstream subtask, so LocalEngine fuses the two
// UDFs into ONE task thread that invokes the downstream UDF synchronously
// per emitted record -- no queue hop, no batch envelope, no extra clock
// reads.  The companion Nephele Streaming work measures this as the
// dominant latency win for co-located tasks; Röger & Mayer survey it as the
// canonical fusion/parallelism trade.
//
// Chains are DYNAMIC: they dissolve at every stop-the-world rebuild
// (rescale, kRestartEpoch) and re-form from the chainability analysis of
// the new parallelism vector (graph::ChainableEdges), so the ElasticScaler
// trades fusion for parallelism without knowing chains exist.  Fused
// members keep their identity for everything observable: metric samplers
// stay per-vertex, failures name the member vertex that threw, and
// EngineResult::final_parallelism is reported from the graph, not from
// thread counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/function_effects.h"

namespace esp::runtime {

/// Sampled timing cadence for fused members.  A chained member charges its
/// TaskSampler a measured service time / task latency on every
/// kChainTimingInterval-th record and accounts the remaining records
/// arithmetically, so fusion adds no steady-state clock reads while the
/// latency model still sees per-vertex service times.  Matches the pop
/// batch size, so a member samples about once per head batch under load.
inline constexpr std::uint64_t kChainTimingInterval = 64;

/// Head-thread-local metric staging for one fused member.
///
/// ChainInvoke runs on the chain head's thread, but a member's samplers are
/// guarded by the member's sampler mutex (the control thread harvests them
/// concurrently).  Taking that lock per record would reintroduce the very
/// cost fusion removes, so per-record attribution lands here lock-free and
/// the head flushes the whole batch's worth under ONE lock acquisition
/// (LocalEngine::FlushChainMetrics).  The vectors reach a steady capacity
/// after warm-up, so the per-record path stays allocation-free.
struct ChainMetricStaging {
  std::uint64_t arrivals = 0;   ///< records handed to the member this batch
  std::uint64_t delivered = 0;  ///< sink members: records consumed this batch
  /// Lifetime record count; drives the kChainTimingInterval cadence.
  std::uint64_t count = 0;
  std::vector<double> service;  ///< sampled segment service times (s)
  /// Sink members, one entry per record consumed: entries before
  /// `sink_ended` are source-to-sink latencies (ns), later ones are the
  /// records' source stamps still waiting for EndRecords.
  std::vector<std::int64_t> sink_latency_ns;
  std::size_t sink_ended = 0;

  bool empty() const noexcept ESP_NONBLOCKING { return arrivals == 0; }

  /// Ends the records staged since the last call at `end_ns`, the head's
  /// clock read after the UDF call that delivered them.  Clamped at 0 so a
  /// late stamp cannot drop a sample from the latency histogram.
  void EndRecords(std::int64_t end_ns) noexcept ESP_NONBLOCKING {
    for (; sink_ended < sink_latency_ns.size(); ++sink_ended) {
      std::int64_t& v = sink_latency_ns[sink_ended];
      v = std::max<std::int64_t>(0, end_ns - v);
    }
  }

  /// Clears one batch's staging; `count` survives (it paces the sampling
  /// cadence across batches, not within one).
  void Flush() noexcept ESP_NONBLOCKING {
    arrivals = 0;
    delivered = 0;
    service.clear();
    sink_latency_ns.clear();
    sink_ended = 0;
  }
};

}  // namespace esp::runtime
