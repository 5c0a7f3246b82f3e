// LocalEngine: a threaded, in-process mini-SPE.
//
// The cluster simulator (sim/cluster.h) reproduces the paper's experiments
// at scale; LocalEngine demonstrates the same architecture on REAL threads
// for laptop-scale jobs and powers the runnable examples:
//   * one thread per task, bounded input queues (blocking push =
//     backpressure) with one lock-free SPSC lane per producer task
//     (DESIGN.md §14), eliminated entirely for chainable edges, whose
//     consumer UDF is fused into the producer's thread (DESIGN.md §10),
//   * per-channel output batching with instant / fixed-size / adaptive
//     deadline flushing, where adaptive buffers also ship as soon as
//     their consumer is idle (flush on idle, DESIGN.md §14),
//   * live QoS reporters/managers feeding the latency model, and
//   * the elastic scaler, actuated via stop-the-world rescaling: pause
//     sources, drain, rebuild the runtime graph at the new parallelism,
//     resume (the approach of Flink's reactive mode; UDF instances are
//     recreated, so non-source UDF state does not survive a rescale).
//
// Time is wall-clock nanoseconds since Run() started, so SimTime/QoS types
// are shared with the simulator.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/function_effects.h"
#include "common/histogram.h"
#include "common/thread_annotations.h"
#include "core/batching.h"
#include "core/elastic_scaler.h"
#include "graph/job_graph.h"
#include "graph/runtime_graph.h"
#include "graph/sequence.h"
#include "qos/manager.h"
#include "qos/overload.h"
#include "runtime/fault.h"
#include "runtime/record.h"
#include "runtime/udf.h"

namespace esp::runtime {

/// What the supervisor does when a task thread dies on an exception.
enum class FailurePolicy : std::uint8_t {
  /// Terminate the run at the next supervision point; the failure is
  /// reported in EngineResult::failures.
  kFailFast,
  /// Restart only the failed subtask in place (new UDF instance, same
  /// queue/channel wiring); its input backlog is preserved and replayed.
  kRestartTask,
  /// Stop the world and rebuild the whole epoch (every non-source task),
  /// re-admitting the failed tasks' salvaged backlogs into the new epoch.
  kRestartEpoch,
};

/// Supervision knobs (LocalEngineOptions::recovery).
struct FailureRecoveryOptions {
  FailurePolicy policy = FailurePolicy::kFailFast;
  /// Restarts allowed per (vertex, subtask) before the supervisor gives up
  /// and fails the run (budget exhaustion degrades to fail-fast).
  std::uint32_t max_restarts_per_task = 3;
  SimDuration backoff_initial = FromMillis(20);  ///< doubles per restart
  SimDuration backoff_max = FromSeconds(2);
  double backoff_jitter = 0.2;     ///< +/- fraction applied to the backoff
  std::uint64_t jitter_seed = 0x5EEDF417ULL;
  /// How long shutdown waits for task threads to acknowledge before
  /// declaring them stuck (reported, not hung on).
  SimDuration teardown_timeout = FromSeconds(10);
  /// How long an epoch rebuild waits for in-flight records to settle before
  /// aborting the restart attempt.
  SimDuration drain_timeout = FromSeconds(10);
};

struct LocalEngineOptions {
  std::size_t queue_capacity = 1024;     ///< records per task input queue
  ShippingStrategy shipping = ShippingStrategy::kAdaptive;
  std::uint32_t batch_capacity = 64;     ///< records per output batch buffer
  SimDuration measurement_interval = FromSeconds(1);
  SimDuration adjustment_interval = FromSeconds(5);
  std::size_t qos_history = 5;
  std::size_t qos_manager_count = 2;
  double latency_sample_probability = 0.25;
  ElasticScalerOptions scaler;  ///< scaler.enabled turns on elasticity
  BatchingPolicyOptions batching;
  FailureRecoveryOptions recovery;
  /// Fuse chainable edges (equal parallelism, pointwise wiring) into single
  /// task threads at every epoch (re)build; see graph::ChainableEdges and
  /// DESIGN.md §10.  Chains break and re-form dynamically as the scaler
  /// changes parallelism.
  bool chaining = true;
  /// Optional fault-injection harness (non-owning; must outlive Run).
  FaultInjector* fault_injector = nullptr;
  /// Overload protection: SLO watchdog + AIMD load shedding
  /// (qos/overload.h, DESIGN.md §11).  Off by default; when enabled
  /// the engine sheds at source admission once a constraint is Violated with
  /// no scaling headroom, and quarantines wedged tasks within
  /// overload.wedge_deadline.
  OverloadOptions overload;
};

/// What the supervisor did about a FailureEvent (or which overload action an
/// event records).
enum class FailureAction : std::uint8_t {
  kNone,       ///< reported only (fail-fast, budget exhausted, teardown)
  kRestart,    ///< task restarted in place or via an epoch rebuild
  kQuarantine, ///< wedged task isolated; producers unparked, epoch rebuilt
  kShedEnter,  ///< admission shedding engaged for a violated constraint
  kShedExit,   ///< shedding disengaged after sustained healthy rounds
};

const char* ToString(FailureAction action);

/// One task failure observed by the supervisor.
struct FailureEvent {
  std::string vertex;
  std::uint32_t subtask = 0;
  SimTime time = 0;        ///< engine time (ns since Run started)
  std::string what;        ///< exception message
  bool recovered = false;  ///< true once the supervisor restarted the task
  /// What the supervisor did (kRestart/kQuarantine) or, for overload events,
  /// which shed transition the event records (kShedEnter/kShedExit).
  FailureAction action = FailureAction::kNone;

  std::string Format() const {
    return vertex + "[" + std::to_string(subtask) + "]: " + what;
  }
};

/// What one engine run produced.
struct EngineResult {
  std::uint64_t records_emitted = 0;    ///< by all sources
  std::uint64_t records_delivered = 0;  ///< consumed by sink tasks
  /// End-to-end latency (source emit -> sink consume), seconds.
  LogHistogram latency{1e-6, 1.05};
  /// Engine-estimated sequence latency per constraint at each adjustment
  /// interval (negative = no data yet).
  std::vector<std::vector<double>> estimated_latency;
  /// Parallelism per vertex at the end of the run.
  std::unordered_map<std::string, std::uint32_t> final_parallelism;
  std::uint32_t rescales = 0;  ///< stop-the-world rescaling rounds
  /// Task-chaining dynamics: chained edges fuse at every epoch build
  /// (chain_forms) and dissolve at every rebuild (chain_breaks), so
  /// forms - breaks = edges fused in the final epoch and a rescaling run
  /// shows both counters advance.
  std::uint64_t chain_forms = 0;
  std::uint64_t chain_breaks = 0;
  /// Every task failure in order of detection; empty on a clean run.
  std::vector<FailureEvent> failures;
  std::uint32_t restarts = 0;  ///< task/epoch restarts performed
  /// Records salvaged from failed tasks' backlogs and replayed.  Delivered
  /// counts may exceed the no-fault run by at most this bound when a
  /// failure struck mid-batch.
  std::uint64_t records_redelivered = 0;
  // ---- overload accounting (qos/overload.h, DESIGN.md §11).  Every record
  // a source emits is delivered, shed, or (after a mid-batch failure)
  // covered by the redelivery bound:
  //   emitted <= delivered + shed <= emitted + redelivered
  // with exact equality emitted == delivered + shed on runs whose only
  // interventions are shedding and loop-level quarantines.
  /// Records dropped at source admission plus records dropped at a
  /// quarantined task's closed queue (attributed to that task's vertex).
  std::uint64_t records_shed = 0;
  /// Adjustment rounds during which a non-zero shed ratio was active.
  std::uint32_t shed_windows = 0;
  /// Shed counts by the vertex that absorbed the drop (source vertices for
  /// admission shedding, the wedged vertex for quarantine drops).
  std::unordered_map<std::string, std::uint64_t> shed_by_vertex;
  /// Wedged tasks isolated by the watchdog (graveyard epoch rebuilds).
  std::uint32_t quarantines = 0;

  /// First failure formatted as "Vertex[subtask]: what"; empty on success.
  std::string first_failure() const {
    return failures.empty() ? std::string() : failures.front().Format();
  }
  /// True when the run saw no failure at all (recovered or not).
  bool clean() const { return failures.empty(); }
};

class LocalEngine {
 public:
  LocalEngine(JobGraph graph, LocalEngineOptions options = {});
  ~LocalEngine();

  LocalEngine(const LocalEngine&) = delete;
  LocalEngine& operator=(const LocalEngine&) = delete;

  /// Registers the UDF factory for a non-source vertex.
  void SetUdf(const std::string& vertex_name, UdfFactory factory);

  /// Registers the source function factory for a source vertex.
  void SetSource(const std::string& vertex_name, SourceFunctionFactory factory);

  /// Adds a latency constraint (drives adaptive batching + the scaler).
  void AddConstraint(const LatencyConstraint& constraint);

  /// Runs until every source finished and the flow drained, or until
  /// `max_duration` of wall-clock time elapsed (0 = no limit).  Blocking;
  /// can only be called once.
  EngineResult Run(SimDuration max_duration = 0);

  const JobGraph& graph() const { return graph_; }

 private:
  // The unit the batch buffers, queues and salvage paths move around.
  // Layout matters: Record's 48-byte budget plus the two routing fields
  // packs one envelope per 64-byte cache line (asserted in engine.cpp).
  struct Envelope {
    Record record;
    std::int64_t channel_emit_ns = 0;
    std::uint32_t channel = 0;  // dense channel index (per epoch)
  };
  // A padding regression (e.g. a field added in the wrong place) fails the
  // build instead of quietly growing every queue slot and batch buffer.
  static_assert(sizeof(Envelope) <= 64,
                "Envelope outgrew one cache line; check Record/field packing");
  static_assert(alignof(Envelope) == 8);

  struct Channel;     // output batcher + consumer queue binding
  struct LocalTask;   // task state + thread
  class RoutingCollector;

  std::int64_t NowNs() const noexcept ESP_NONBLOCKING;
  void BuildEpoch();
  void TeardownEpoch();
  void StartThreads();
  void SourceLoop(LocalTask* task);
  void SourceLoopBody(LocalTask* task, RoutingCollector& collector);
  void TaskLoop(LocalTask* task);
  void TaskLoopBody(LocalTask* task, RoutingCollector& collector);
  /// Runs a fused member's UDF synchronously on the chain head's thread:
  /// no queue, no envelope, and (off the sampling cadence) no clock read.
  /// Per-record metric attribution lands in the member's ChainMetricStaging.
  void ChainInvoke(LocalTask* member, Record record, std::int64_t now_hint_ns)
      ESP_NONALLOCATING;
  /// The inner TaskLoop batch step: runs the UDF over `batch[0, n)` with
  /// shared timestamp boundaries (record i's end is record i+1's start).
  /// `processed` tracks the completed prefix AS the loop runs, so the
  /// caller's catch can bank metrics for exactly the records that finished
  /// and salvage the rest.  ESP_NONALLOCATING: the engine-side per-record
  /// path performs no heap traffic; the UDF body itself is escaped (its
  /// effects are the UDF author's contract, not the engine's).
  void RunUdfBatch(LocalTask* task, RoutingCollector& collector,
                   std::vector<Envelope>& batch, std::size_t n,
                   std::vector<std::int64_t>& start_ns,
                   std::vector<std::int64_t>& end_ns,
                   std::vector<bool>& emitted_any, std::size_t& processed)
      ESP_NONALLOCATING;
  /// Flushes every chain member's staged metrics into its samplers and its
  /// chained-edge channel sampler -- one lock acquisition per member per
  /// head batch.
  void FlushChainMetrics(LocalTask* head, std::int64_t now_ns);
  /// `origin` (default: the failing task itself) names the vertex the
  /// failure arose in; a chain head passes the fused member whose UDF threw
  /// so FailureEvent reports the ORIGINAL vertex, not the chain head.
  void ReportTaskFailure(LocalTask* task, const std::string& what,
                         LocalTask* origin = nullptr);
  /// Appends one record to the channel's producer-owned staging buffer
  /// under the channel's ProducerClaim -- no mutex on the per-record path
  /// (DESIGN.md §14) -- and flushes at the strategy's batch boundary or on a
  /// stealer's delegated flush request.
  void Append(Channel& channel, Record record, std::int64_t now);
  /// Ships every adaptive output buffer the task's thread owns (fused
  /// members' included) that ShipPartialBuffer finds due: its consumer is
  /// asleep, or spinning while this producer is `idle` (its Produce call
  /// emitted nothing / its pop came back short), or its deadline passed
  /// (DESIGN.md §14 "flush on idle").  `now_hint` (0 = none) lends the
  /// caller's latest clock read to the not-due prechecks, skipping one
  /// NowNs per loop iteration; it is at most one Produce/batch old, inside
  /// the deadline tolerance.
  void FlushDue(LocalTask* task, bool idle, std::int64_t now_hint = 0);
  /// Flushes a channel's staging buffer.  Non-forced calls run on the
  /// owning producer thread (flush on idle + deadline flushing, adaptive
  /// only; `producer_idle` is FlushDue's `idle`) and are try-only: one
  /// TryAcquire, never RequestFlush or a spin.  Forced calls may also come
  /// from the control thread, which STEALS the claim under the bounded
  /// grace protocol -- an active owner keeps the claim and honors the
  /// raised flush_requested at its next append/flush boundary instead.
  void FlushChannel(Channel& channel, bool force, std::int64_t now_hint = 0,
                    bool producer_idle = false);
  /// Offers a flushed batch's output-batch latencies + item counts to the
  /// channel sampler.  Runs AFTER the claim is released: the sampler has
  /// its own (rare) mutex, so O(batch) sampler work never extends the
  /// buffer critical section appends contend with.
  void OfferBatchSamples(Channel& channel, const std::vector<Envelope>& batch,
                         std::int64_t now);
  /// Ships a flushed batch to the consumer's queue.  On return `batch` is
  /// empty but recharged with recycled capacity (from the lane's ring
  /// slot), which is parked in the channel's spare buffer for the
  /// next flush -- the steady-state hand-off allocates nothing.
  void DeliverBatch(Channel& channel, std::vector<Envelope>& batch);
  void CloseDownstream(LocalTask* task);
  void ControlTick();
  void HarvestTaskMetrics(LocalTask* task);
  bool AllTasksFinished();
  SimDuration FlushDeadlineForEdge(std::uint32_t edge) const;

  // ---- failure recovery (control thread only) ----------------------------
  /// Scans for newly failed tasks and applies the failure policy; returns
  /// false when the run must terminate (fail-fast or budget exhausted).
  bool Supervise();
  /// Restarts one failed subtask in place: salvages its backlog + mid-batch
  /// remainder, re-instantiates the UDF, re-admits the backlog, restarts the
  /// thread.  True on success.
  bool RestartTask(LocalTask* task);
  /// Stop-the-world epoch rebuild shared by Rescale, restart-epoch and
  /// quarantine.  `actions` may be empty (pure restart).  `quarantined`
  /// names a wedged task whose thread must NOT be joined (it is parked in
  /// the graveyard instead; its queue is already closed and drained).  True
  /// on success; false when the drain timed out and the epoch was left
  /// as-is.
  bool RebuildEpoch(const std::vector<ScalingAction>& actions,
                    LocalTask* quarantined = nullptr);
  /// Pumps failed tasks' queues into their salvage buffers so blocked
  /// producers can make progress during a pause/drain.
  void PumpFailedTasks();
  /// Re-admits a task's salvaged records to the subtask that now owns them.
  void ReadmitSalvage();
  /// Tells QoS managers + scaler a recovery happened at `now_ns` so the next
  /// measurement window is discarded and reactive scaling pauses one round.
  void MarkRecoveryTransient(std::int64_t now_ns,
                             const std::vector<std::string>& vertices);
  SimDuration NextBackoff(std::uint32_t restart_count);

  // ---- overload guard (control thread only) ------------------------------
  /// One watchdog + shed-controller round per adjustment interval:
  /// classifies every constraint (estimates + saturation signals), ticks the
  /// shed controller, and actuates the decision (shed ratio, shed-enter/exit
  /// events).
  void OverloadTick(const std::vector<double>& estimates);
  /// Scans for a task whose loop made no progress for wedge_deadline while
  /// its input queue is non-empty.  Returns the MOST DOWNSTREAM such task
  /// (reverse topological order): an upstream task blocked on a wedged
  /// consumer's backpressure is also stale, but not the culprit.
  LocalTask* FindWedgedTask(std::int64_t now);
  /// Isolates a wedged task: closes its queue FIRST (waking producers parked
  /// on its full lanes -- the wedge x queue fix), salvages
  /// its backlog, counts its unflushable output buffers as shed, then
  /// rebuilds the epoch around it, parking the unjoinable thread in the
  /// graveyard.  Returns false when the run must terminate (fail-fast
  /// policy or quarantine budget exhausted).
  bool QuarantineTask(LocalTask* task);

  JobGraph graph_;
  LocalEngineOptions options_;
  std::vector<LatencyConstraint> constraints_;
  std::unordered_map<std::string, UdfFactory> udf_factories_;
  std::unordered_map<std::string, SourceFunctionFactory> source_factories_;

  std::chrono::steady_clock::time_point epoch_zero_;
  bool ran_ = false;

  // Epoch state (rebuilt on rescale).  Guarded by the control thread; task
  // threads only touch their own entries plus channels via raw pointers
  // that stay valid for the epoch.
  std::vector<std::unique_ptr<LocalTask>> tasks_;
  std::vector<std::unique_ptr<Channel>> channels_;
  // Graveyard: quarantined epochs' tasks and channels.  A wedged thread is
  // unjoinable until its wedge releases, and it may still touch its own
  // queue, its output channels, and sibling consumers on the way out, so the
  // WHOLE old epoch's non-source state stays allocated here (queues closed,
  // so late pushes are dropped no-ops).  The destructor joins these threads
  // after shutdown_ releases the wedge.  Control thread only.
  std::vector<std::unique_ptr<LocalTask>> quarantined_tasks_;
  std::vector<std::unique_ptr<Channel>> quarantined_channels_;

  // Pause/teardown signalling.  control_mutex_ orders the park handshake:
  // a source increments parked_sources_ and waits on control_cv_ under it;
  // the control thread reads the count under it, so "parked" is never
  // observed before the source is actually committed to the wait.
  Mutex control_mutex_;
  CondVar control_cv_;
  std::atomic<bool> pause_requested_{false};
  std::atomic<bool> shutdown_{false};
  std::uint32_t parked_sources_ ESP_GUARDED_BY(control_mutex_) = 0;

  // QoS + scaling (control thread only).
  std::vector<QosManager> managers_;
  ElasticScaler scaler_;
  GlobalSummary last_summary_;
  std::unordered_map<std::uint32_t, std::atomic<SimDuration>> edge_deadlines_;
  /// Raw JobEdgeIds fused in the CURRENT epoch (control thread only):
  /// excluded from the adaptive flush-deadline split, so the latency
  /// headroom fusion buys flows to the remaining real edges.
  std::vector<std::uint32_t> chained_edge_list_;
  /// Chained-edge count of the previous epoch; every rebuild dissolves
  /// those chains, which is what EngineResult::chain_breaks counts.
  std::size_t prev_chained_edges_ = 0;

  // Metrics live in per-task shards (LocalTask::emitted_n/delivered_n
  // counters and LocalTask::latency_shard) that HarvestTaskMetrics folds
  // into result_ at ControlTick, rescale teardown and end of run -- the hot
  // path never touches a global counter or lock.  result_ belongs to the
  // control thread exclusively; the one cross-thread stream -- failure
  // events published by dying task threads -- lives in failures_ under
  // failure_mutex_ and is folded into result_.failures when Run returns.
  Mutex failure_mutex_;
  std::vector<FailureEvent> failures_ ESP_GUARDED_BY(failure_mutex_);
  EngineResult result_;  // esp-lint: allow(unguarded-mutex-field) -- control-thread exclusive; see comment above

  // Supervision.  failure_pending_ is raised by a dying task thread after
  // publishing its FailureEvent; the control thread clears it FIRST, then
  // scans task failed flags (so a raise between scan and clear is never
  // lost), and re-raises it itself while restarts are backoff-pending.
  std::atomic<bool> failure_pending_{false};
  std::atomic<bool> terminate_{false};  ///< fail-fast / budget exhausted
  struct RestartState {
    std::uint32_t count = 0;          ///< restarts consumed
    std::int64_t next_restart_ns = 0; ///< backoff gate (engine time)
  };
  /// Keyed by stable (vertex, subtask) id; survives epoch rebuilds.
  std::unordered_map<std::uint64_t, RestartState> restart_state_;
  Rng backoff_rng_{0x5EEDF417ULL};
  /// Per-vertex salvage kept across an epoch rebuild: records drained from
  /// failed tasks' queues, keyed by (vertex name, old subtask).
  std::vector<std::pair<TaskId, std::vector<Envelope>>> salvage_;

  // ---- overload guard state ----------------------------------------------
  /// AIMD shed controller; ticked once per adjustment interval.
  OverloadController overload_;
  /// Current admission-shed probability in parts-per-million, written by
  /// OverloadTick and read lock-free by source threads in Emit.
  std::atomic<std::uint32_t> shed_ratio_ppm_{0};
  /// Backlog (total queued records) of the previous adjustment round, for
  /// the growth-rate saturation signal.  Control thread only.
  std::uint64_t last_backlog_ = 0;
  std::int64_t last_backlog_ns_ = -1;
  /// failures_ index of the open shed-entered event; marked recovered when
  /// shedding exits.  Control thread only (index into a guarded vector).
  std::size_t shed_enter_event_ = static_cast<std::size_t>(-1);
};

}  // namespace esp::runtime
