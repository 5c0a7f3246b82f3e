// QoS reporters and managers (paper §IV-B, Fig. 4).
//
// A QosReporter lives next to the tasks of one worker: it owns their
// samplers and emits a QosReport once per measurement interval.  A
// QosManager is responsible for a subset of all constrained tasks/channels;
// it keeps the last m measurements per task/channel and folds them into a
// PartialSummary once per adjustment interval (Eq. 2).  The master merges
// partial summaries with MergeSummaries() (summary.h).
#pragma once

#include <cstddef>
#include <deque>  // esp-lint: allow(unbounded-queue) -- measurement history, trimmed to history_length_ on every push
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "graph/job_graph.h"
#include "graph/runtime_graph.h"
#include "graph/sequence.h"
#include "qos/sampler.h"
#include "qos/summary.h"

namespace esp {

/// Owns the samplers of co-located tasks and channels and periodically
/// harvests them into a QosReport.
class QosReporter {
 public:
  QosReporter(double latency_sample_probability, std::uint64_t rng_seed);

  /// Registers a task with this reporter; returns its sampler.  The sampler
  /// remains owned by the reporter and valid until RemoveTask.
  TaskSampler& AddTask(const TaskId& task);

  /// Registers a channel (sampled at its consumer side, like Nephele).
  ChannelSampler& AddChannel(const ChannelId& channel);

  void RemoveTask(const TaskId& task);
  void RemoveChannel(const ChannelId& channel);

  bool HasChannel(const ChannelId& channel) const { return channels_.count(channel) != 0; }

  TaskSampler& task_sampler(const TaskId& task);
  ChannelSampler& channel_sampler(const ChannelId& channel);

  /// Harvests all samplers into one report stamped with `now`.
  QosReport TakeReport(SimTime now);

 private:
  double sample_probability_;
  Rng rng_;
  std::unordered_map<TaskId, std::unique_ptr<TaskSampler>> tasks_;
  std::unordered_map<ChannelId, std::unique_ptr<ChannelSampler>> channels_;
};

/// Aggregates reports for a subset of tasks/channels into partial summaries.
///
/// Internally synchronised: Ingest/Prune/DropVertex/MarkStale may race with
/// MakePartialSummary.  Today the engine drives every method from its
/// control thread, but ROADMAP scaling work (sharded managers, async
/// backends) will ingest reports from worker threads, so the histories are
/// mutex-guarded now and the contract is compiler-checked.
class QosManager {
 public:
  /// `history_length` is m in Eq. 2: how many past measurement intervals are
  /// averaged per task/channel.
  explicit QosManager(std::size_t history_length = 5);

  /// Folds one report into the measurement history.  Tasks/channels that
  /// disappear from reports (scaled down) age out: call Prune() with the
  /// live runtime graph to drop them.
  void Ingest(const QosReport& report);

  /// Drops history for tasks/channels not present in `rg` (after scaling).
  void Prune(const RuntimeGraph& rg);

  /// Drops ALL history for a vertex's tasks and the given adjacent edges.
  /// Called when the vertex is rescaled: pre-action measurements describe a
  /// different parallelism and would poison the next summary (per-task
  /// rates, batch sizes and channel latencies all shift with p).
  void DropVertex(JobVertexId vertex, const std::vector<JobEdgeId>& adjacent_edges);

  /// Discards every report stamped earlier than `until`.  Called after a
  /// failure recovery: measurement windows overlapping the outage mix the
  /// stall and the replay burst into the arrival/service statistics, which
  /// would poison the Kingman-model inputs for up to history_length rounds.
  void MarkStale(SimTime until);

  /// Computes the partial summary over the manager's current history
  /// (vertex/edge averages per Eq. 2, weighted by task/channel counts).
  PartialSummary MakePartialSummary(SimTime now) const;

  std::size_t tracked_tasks() const {
    MutexLock lock(*mutex_);
    return task_history_.size();
  }
  std::size_t tracked_channels() const {
    MutexLock lock(*mutex_);
    return channel_history_.size();
  }

 private:
  std::size_t history_length_;  ///< immutable after construction
  /// Heap-held so the manager stays movable (engine + simulator keep pools
  /// in std::vector).  Moves only happen during single-threaded setup.
  std::unique_ptr<Mutex> mutex_ = std::make_unique<Mutex>();
  SimTime stale_until_ ESP_GUARDED_BY(*mutex_) = 0;  ///< reports stamped before this are discarded
  std::unordered_map<TaskId, std::deque<TaskMeasurement>> task_history_
      ESP_GUARDED_BY(*mutex_);
  std::unordered_map<ChannelId, std::deque<ChannelMeasurement>> channel_history_
      ESP_GUARDED_BY(*mutex_);
};

/// Estimated mean latency of a job sequence from the global summary: the sum
/// of the member vertices' task latencies and member edges' channel
/// latencies.  Returns false if any member lacks measurement data.
bool EstimateSequenceLatency(const GlobalSummary& summary, const JobSequence& sequence,
                             double* latency_seconds);

}  // namespace esp
