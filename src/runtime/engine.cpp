#include "runtime/engine.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"
#include "qos/sampler.h"
#include "runtime/chain.h"
#include "runtime/claim.h"
#include "runtime/fanin_lanes.h"

namespace esp::runtime {

using std::chrono::nanoseconds;
using std::chrono::steady_clock;

namespace {
/// Records drained per queue lock acquisition in TaskLoopBody.  Amortizes
/// the lock, the wakeup, and the metric bookkeeping over the batch.
constexpr std::size_t kPopBatch = 64;
/// How long a control-thread force-flush spins for a channel's claim before
/// delegating the flush to the active owner via flush_requested.  Claim
/// holds are tens of nanoseconds, so 2ms is pure defense in depth.
constexpr nanoseconds kClaimStealGrace{2'000'000};
}  // namespace

const char* ToString(FailureAction action) {
  switch (action) {
    case FailureAction::kNone:
      return "none";
    case FailureAction::kRestart:
      return "restart";
    case FailureAction::kQuarantine:
      return "quarantine";
    case FailureAction::kShedEnter:
      return "shed-enter";
    case FailureAction::kShedExit:
      return "shed-exit";
  }
  return "?";
}

// ---------------------------------------------------------------- entities

struct LocalEngine::Channel {
  ChannelId id{};
  std::uint32_t edge = 0;
  std::uint32_t index = 0;
  LocalTask* consumer = nullptr;
  LocalTask* producer = nullptr;
  /// A chained (fused) edge's channel is METRICS-ONLY: it is wired into
  /// neither the producer's outputs nor a queue -- records cross the edge
  /// synchronously via ChainInvoke -- but its sampler still reports the
  /// edge's Table-I metrics (zero latency, true item count) so the latency
  /// model never sees a hole in a constrained sequence.
  bool chained = false;
  /// This producer's lane index in the consumer's input queue.  Assigned at
  /// epoch build, read by DeliverBatch on every flush.
  std::uint32_t lane = 0;

  // Producer-owned staging (DESIGN.md §14): `buffer`/`spare` are touched
  // ONLY while `claim` is held.  The steady-state claimer is the one thread
  // that flushes this producer's channels (the task's own thread, or its
  // chain head's); the control thread STEALS the claim only through
  // FlushChannel(force)'s bounded grace protocol or shed-accounting's
  // unbounded-but-terminating spin, both against bounded claim holds.  The
  // claim replaces the old per-record channel mutex -- appends are
  // lock-free on the producer side.
  ProducerClaim claim;
  std::vector<Envelope> buffer;
  // Recycled batch storage: when a flush swaps `buffer` out, `spare` (the
  // empty-but-with-capacity vector DeliverBatch got back from the consumer
  // lane's ring slot on the previous flush) swaps in, so the next Append
  // starts with capacity instead of allocating.
  std::vector<Envelope> spare;

  // The mutex now guards ONLY the sampler (harvested by the control thread,
  // offered to by producer flushes and the consumer's per-batch pass); the
  // buffer critical section no longer takes it.
  Mutex mutex;
  ChannelSampler sampler ESP_GUARDED_BY(mutex){1.0, 1};

  // Written under the claim, read lock-free: FlushDue's not-due
  // pre-check and the rescale drain detector rely on the invariant
  // `first_entry_ns != 0  <=>  buffer non-empty`.  The deadline caches
  // edge_deadlines_ so the per-record path skips the hash lookup.
  std::atomic<std::int64_t> first_entry_ns{0};
  std::atomic<SimDuration> flush_deadline{0};
};

struct LocalEngine::LocalTask {
  TaskId id{};
  std::string vertex_name;
  bool is_source = false;
  bool is_sink = false;
  LatencyMode latency_mode = LatencyMode::kReadReady;

  std::unique_ptr<Udf> udf;
  std::unique_ptr<SourceFunction> source;
  // Input queue (BuildEpoch): one SPSC lane per producer task feeding this
  // task over real (non-fused) channels, merged on the consumer side
  // (fanin_lanes.h, DESIGN.md §14).  Null for sources and for fused chain
  // members.
  std::unique_ptr<FaninLanes<Envelope>> queue;
  std::thread thread;

  std::vector<std::vector<Channel*>> outputs;  // per output edge, per epoch
  std::vector<WiringPattern> out_pattern;      // cached edge patterns, per slot
  std::vector<std::uint32_t> rr;               // round-robin counters
  std::atomic<int> remaining_producers{0};
  std::atomic<bool> busy{false};
  std::atomic<bool> done{false};
  bool epoch_member = true;  // false once replaced by a rescale

  Mutex sampler_mutex;
  TaskSampler sampler ESP_GUARDED_BY(sampler_mutex){1.0, 1};
  // rw_pending and rng are touched only inside sampler_mutex sections (the
  // post-batch metric pass and the timer path), so they share its guard.
  std::vector<std::int64_t> rw_pending ESP_GUARDED_BY(sampler_mutex);
  Rng rng ESP_GUARDED_BY(sampler_mutex){1};
  std::int64_t next_timer_ns = 0;  // esp-lint: allow(unguarded-mutex-field) -- task-thread only, never read cross-thread

  // Per-task metric shards, merged by HarvestTaskMetrics (control thread).
  // The counters are uncontended relaxed atomics (one writer, harvested via
  // exchange); the latency shard shares sampler_mutex with the sampler so
  // the sink's post-batch pass pays a single lock.
  std::atomic<std::uint64_t> emitted_n{0};    // sources: records emitted
  std::atomic<std::uint64_t> delivered_n{0};  // sinks: records consumed
  LogHistogram latency_shard ESP_GUARDED_BY(sampler_mutex){1e-6, 1.05};

  // Failure/recovery state.  `failed` is raised by the dying task thread
  // (after its FailureEvent is published) and cleared by the supervisor on
  // restart.  `salvage` holds the mid-batch remainder the dying thread left
  // behind plus anything the supervisor pumped out of the queue; it is only
  // touched by the task thread before done=true and by the control thread
  // after, so it needs no lock.  `fault` is the task's resolved injection
  // binding: the record/crash/wedge parts are task-thread-only, while
  // `fault.delay` is read by producer threads inside DeliverBatch -- it is
  // assigned once per epoch before threads start and never reassigned on an
  // in-place restart.
  std::atomic<bool> failed{false};
  std::vector<Envelope> salvage;

  // ---- overload guard (qos/overload.h, DESIGN.md §11).
  // Records this task absorbed as shed: admission drops for sources,
  // records stranded in / dropped at the closed queue for a quarantined
  // task.  Harvested (exchange) like the other counter shards.
  std::atomic<std::uint64_t> shed_n{0};
  // Admission-shed RNG (source threads only): seeded deterministically from
  // OverloadOptions::shed_seed and the (vertex, subtask) id at epoch build,
  // so a fixed seed sheds an identical record set run-to-run.
  Rng shed_rng{1};
  // Raised by the control thread when the watchdog isolates this task.  The
  // task thread checks it before every queue pop (and inside the injected
  // wedge loop) and exits WITHOUT touching the queue once raised -- that is
  // what lets the control thread account the stranded backlog race-free
  // against the lock-free lanes.  Producers read it to attribute drops
  // at the closed queue.
  std::atomic<bool> quarantined{false};
  // Progress heartbeat: engine-time ns of the last queue-pop return,
  // stamped by the task thread every loop iteration (>= 1 kHz when idle,
  // thanks to the 1 ms pop timeout), read by the watchdog.  Non-empty queue
  // + stale heartbeat = wedged.
  std::atomic<std::int64_t> last_progress_ns{0};
  std::size_t last_failure_index = static_cast<std::size_t>(-1);  // failure_mutex_
  bool abandoned = false;  ///< reported stuck at teardown (control thread only)
  FaultBinding fault;

  // ---- task chaining (chain.h).  All fields are written by the control
  // thread between epochs (BuildEpoch, before threads start) and read by
  // the chain head's thread during one, so they need no locks.
  bool chained = false;             ///< fused member: no queue, no thread
  LocalTask* chain_head = nullptr;  ///< members: task whose thread runs us
  std::vector<LocalTask*> chain_members;  ///< heads: flat fused-member list
  std::vector<LocalTask*> chain_out;  ///< per output slot: fused consumer or null
  Channel* chain_in = nullptr;  ///< members: the metrics-only fused channel
  std::unique_ptr<RoutingCollector> chain_collector;  ///< members: for ChainInvoke
  ChainMetricStaging chain_stage;  ///< members: head-thread-local metric staging
  /// Deepest fused member that threw, tagged during ChainInvoke's unwind and
  /// consumed by TaskLoop's catch so the FailureEvent names the true origin.
  LocalTask* chain_origin_task = nullptr;
};

// Routes a UDF's emissions onto the task's output channels.
class LocalEngine::RoutingCollector final : public Collector {
 public:
  RoutingCollector(LocalEngine* engine, LocalTask* task) : engine_(engine), task_(task) {}

  /// TaskLoopBody lends Emit the timestamp it already read for the current
  /// record (0 = none); the emission path then skips its own clock read.
  /// The hint is at most one UDF invocation old, far below the microsecond+
  /// granularity of the batching deadlines and latency metrics it feeds.
  /// `lineage_ns` is the source_emit_ns of the input record being processed
  /// (0 = none): a record the UDF builds fresh inherits it, so the sink's
  /// latency runs from the source, not from the last hop.
  void SetNowHint(std::int64_t now_ns, std::int64_t lineage_ns = 0) {
    now_hint_ns_ = now_ns;
    lineage_ns_ = lineage_ns;
  }

  // ESP_NONALLOCATING, not nonblocking: routing legitimately takes the
  // lock-striped channel mutex (and the fused path runs the downstream UDF
  // inline); what the contract forbids is per-record heap traffic.
  void Emit(Record record, std::uint32_t output_index) override ESP_NONALLOCATING {
    if (output_index >= task_->outputs.size()) {
      ESP_EFFECTS_ESCAPE_BEGIN  // wiring-contract violation: throwing out of the hot path is the correct failure mode
      throw std::out_of_range("Collector::Emit: bad output index in '" +
                              task_->vertex_name + "'");
      ESP_EFFECTS_ESCAPE_END
    }
    const std::int64_t now = now_hint_ns_ != 0 ? now_hint_ns_ : engine_->NowNs();
    last_now_ns_ = now;  // lent to FlushDue's not-due precheck
    if (record.source_emit_ns == 0) {
      record.source_emit_ns = lineage_ns_ != 0 ? lineage_ns_ : now;
    }
    ++emitted_;

    // Admission shedding (sources only): the overload guard's shed ratio is
    // one lock-free ppm load; the drop decision is deterministic in the
    // per-task seeded RNG.  The record counts as emitted AND shed -- never
    // entering the flow -- which keeps emitted == delivered + shed exact.
    if (task_->is_source) {
      const std::uint32_t shed_ppm =
          engine_->shed_ratio_ppm_.load(std::memory_order_relaxed);
      if (shed_ppm != 0 &&
          task_->shed_rng.Bernoulli(static_cast<double>(shed_ppm) * 1e-6)) {
        task_->shed_n.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }

    // Fused edge: hand the record to the chained downstream UDF synchronously
    // -- no channel buffer, no envelope, no queue hop.
    if (LocalTask* fused = task_->chain_out[output_index]; fused != nullptr) {
      engine_->ChainInvoke(fused, std::move(record), now);
      return;
    }

    auto& targets = task_->outputs[output_index];
    if (targets.empty()) return;  // transient during rescale
    ESP_EFFECTS_ESCAPE_BEGIN  // channel append: lock-striped buffered handoff whose blocking backpressure edge (DeliverBatch) is the sanctioned slow path
    switch (task_->out_pattern[output_index]) {
      case WiringPattern::kBroadcast:
        for (Channel* ch : targets) {
          engine_->Append(*ch, record, now);  // copies; payload is shared
        }
        break;
      case WiringPattern::kKeyPartitioned:
        engine_->Append(*targets[record.key % targets.size()], std::move(record), now);
        break;
      case WiringPattern::kRoundRobin:
      case WiringPattern::kPointwise:
        engine_->Append(*targets[task_->rr[output_index]++ % targets.size()],
                        std::move(record), now);
        break;
    }
    ESP_EFFECTS_ESCAPE_END
  }

  std::uint64_t TakeEmitted() {
    const std::uint64_t n = emitted_;
    emitted_ = 0;
    return n;
  }

  /// Timestamp of the latest Emit (0 = never).  The source loop lends it to
  /// FlushDue's not-due precheck so an emitting iteration skips a clock
  /// read; it is at most one Produce call old there, the same tolerance as
  /// SetNowHint.
  std::int64_t LastNowNs() const { return last_now_ns_; }

 private:
  LocalEngine* engine_;
  LocalTask* task_;
  std::uint64_t emitted_ = 0;
  std::int64_t now_hint_ns_ = 0;
  std::int64_t lineage_ns_ = 0;
  std::int64_t last_now_ns_ = 0;
};

// ------------------------------------------------------------ construction

LocalEngine::LocalEngine(JobGraph graph, LocalEngineOptions options)
    : graph_(std::move(graph)),
      options_(options),
      scaler_(options.scaler),
      overload_(options.overload) {
  backoff_rng_ = Rng(options_.recovery.jitter_seed);
  managers_.reserve(options_.qos_manager_count);
  for (std::size_t i = 0; i < options_.qos_manager_count; ++i) {
    managers_.emplace_back(options_.qos_history);
  }
  for (JobEdgeId e : graph_.EdgeIds()) {
    edge_deadlines_[Value(e)].store(options_.batching.min_deadline);
  }
}

// NOLINTNEXTLINE(bugprone-exception-escape) thread::join can raise system_error; if collecting threads fails, terminating beats returning with live threads over freed state
LocalEngine::~LocalEngine() {
  shutdown_.store(true);
  control_cv_.NotifyAll();
  TeardownEpoch();
  // Threads abandoned by the bounded teardown must be collected before the
  // engine state they reference is destroyed; blocking here is the only
  // memory-safe option (a detached thread waking later would touch freed
  // queues and condition variables).
  for (auto& task : tasks_) {
    if (task->thread.joinable()) task->thread.join();
  }
  // Quarantined (wedged) threads release on shutdown_ at the latest; they
  // reference graveyarded queues/channels, so they too must be collected
  // before destruction proceeds.
  for (auto& task : quarantined_tasks_) {
    if (task->thread.joinable()) task->thread.join();
  }
}

void LocalEngine::SetUdf(const std::string& vertex_name, UdfFactory factory) {
  graph_.VertexByName(vertex_name);
  udf_factories_[vertex_name] = std::move(factory);
}

void LocalEngine::SetSource(const std::string& vertex_name, SourceFunctionFactory factory) {
  const JobVertexId v = graph_.VertexByName(vertex_name);
  if (!graph_.vertex(v).inputs.empty()) {
    throw std::invalid_argument("SetSource: vertex '" + vertex_name + "' has inputs");
  }
  source_factories_[vertex_name] = std::move(factory);
}

void LocalEngine::AddConstraint(const LatencyConstraint& constraint) {
  ValidateConstraint(constraint);
  constraints_.push_back(constraint);
}

std::int64_t LocalEngine::NowNs() const noexcept ESP_NONBLOCKING {
  ESP_EFFECTS_ESCAPE_BEGIN  // steady_clock::now is a VDSO clock read, not a blocking syscall
  return std::chrono::duration_cast<nanoseconds>(steady_clock::now() - epoch_zero_)
      .count();
  ESP_EFFECTS_ESCAPE_END
}

SimDuration LocalEngine::FlushDeadlineForEdge(std::uint32_t edge) const {
  const auto it = edge_deadlines_.find(edge);
  return it == edge_deadlines_.end() ? options_.batching.min_deadline : it->second.load();
}

// ------------------------------------------------------------- batch paths

void LocalEngine::Append(Channel& channel, Record record, std::int64_t now) {
  std::vector<Envelope> flushed;
  // Owner claim: one uncontended CAS in the steady state.  The spin fallback
  // only runs while a control-thread stealer holds the claim, and stealer
  // holds are bounded and short by the §14 contract.
  channel.claim.Acquire();
  if (channel.buffer.empty()) {
    // Steady state the buffer already carries recycled capacity (spare
    // cycling); the reserve only fires on the cold start of a channel.
    // Instant flush relies on it too: the reserved capacity sizes the
    // queue's coalesced tail chunks, closing the recycling cycle for
    // one-envelope batches.
    if (channel.buffer.capacity() == 0) {
      channel.buffer.reserve(options_.batch_capacity);
    }
    channel.first_entry_ns.store(now, std::memory_order_relaxed);
  }
  // In-place aggregate construction (C++20 parenthesized init): one Record
  // move into the buffer slot instead of a stack envelope plus a second move.
  channel.buffer.emplace_back(std::move(record), now, channel.index);

  bool flush_now = false;
  switch (options_.shipping) {
    case ShippingStrategy::kInstantFlush:
      flush_now = true;
      break;
    case ShippingStrategy::kFixedBuffer:
      flush_now = channel.buffer.size() >= options_.batch_capacity;
      break;
    case ShippingStrategy::kAdaptive:
      // buffer.front().channel_emit_ns IS first_entry_ns, already cache-hot
      // under the claim -- the atomic mirror is only for lock-free readers.
      flush_now = channel.buffer.size() >= options_.batch_capacity ||
                  now - channel.buffer.front().channel_emit_ns >=
                      channel.flush_deadline.load(std::memory_order_relaxed);
      break;
  }
  // The append boundary is also where a stealer's delegated flush request is
  // honored (the flush-delegation handshake, DESIGN.md §14).
  if (flush_now || channel.claim.FlushRequested()) {
    flushed.swap(channel.buffer);
    channel.buffer.swap(channel.spare);  // recharge with recycled capacity
    channel.first_entry_ns.store(0, std::memory_order_relaxed);
    channel.claim.ClearFlushRequest();
  }
  channel.claim.Release();
  if (!flushed.empty()) {
    OfferBatchSamples(channel, flushed, now);
    DeliverBatch(channel, flushed);
  }
}

void LocalEngine::FlushChannel(Channel& channel, bool force,
                               std::int64_t now_hint, bool producer_idle) {
  if (!force) {
    // Lock-free not-due check: non-forced flushes only ever fire for the
    // adaptive strategy, on the flush-on-idle rule (ShipPartialBuffer).
    // `now_hint` (when lent by the caller's loop) is at most one
    // Produce/batch old -- a not-due verdict it produces is re-examined
    // within microseconds, far inside the millisecond deadline scale.
    if (options_.shipping != ShippingStrategy::kAdaptive) return;
    const std::int64_t fe = channel.first_entry_ns.load(std::memory_order_relaxed);
    if (fe == 0) return;
    if (!ShipPartialBuffer(channel.consumer->queue->consumer_state(), producer_idle,
                           (now_hint != 0 ? now_hint : NowNs()) - fe,
                           channel.flush_deadline.load(std::memory_order_relaxed))) {
      return;
    }
  }
  if (!channel.claim.TryAcquire()) {
    // Non-forced flushes run on the owner's own thread and never raise
    // RequestFlush or spin, so a failed try means a stealer has the claim
    // -- it will flush; retry next tick.  Forced flushes may be the control
    // thread racing an ACTIVE owner: raise the delegation flag first, then
    // spin out the bounded grace.  If the owner keeps the claim the whole
    // grace, it is live and appending, and will honor flush_requested at
    // its next boundary -- deadline enforcement holds either way.
    if (!force) return;
    channel.claim.RequestFlush();
    if (!channel.claim.TryAcquireFor(kClaimStealGrace)) return;
  }
  if (channel.buffer.empty()) {
    channel.claim.ClearFlushRequest();
    channel.claim.Release();
    return;
  }
  const std::int64_t now = NowNs();
  // A non-forced flush got here because the precheck found the buffer due
  // (ShipPartialBuffer).  Only a stealer can have touched the buffer since,
  // and it would have emptied it, so a non-empty buffer is still due: ship
  // it even if the consumer woke meanwhile.
  std::vector<Envelope> flushed;
  flushed.swap(channel.buffer);
  channel.buffer.swap(channel.spare);  // recharge with recycled capacity
  channel.first_entry_ns.store(0, std::memory_order_relaxed);
  channel.claim.ClearFlushRequest();
  channel.claim.Release();
  OfferBatchSamples(channel, flushed, now);
  DeliverBatch(channel, flushed);
}

void LocalEngine::OfferBatchSamples(Channel& channel,
                                    const std::vector<Envelope>& batch,
                                    std::int64_t now) {
  // O(batch) sampler work on the producer side, but OUTSIDE the buffer
  // critical section: the sampler mutex is contended only by the consumer's
  // per-batch latency pass and the control thread's harvest, never by the
  // per-record append path.
  MutexLock lock(channel.mutex);
  for (const Envelope& e : batch) {
    channel.sampler.OfferOutputBatchLatency(
        static_cast<double>(now - e.channel_emit_ns) * 1e-9);
    channel.sampler.CountItem();
  }
}

void LocalEngine::DeliverBatch(Channel& channel, std::vector<Envelope>& batch) {
  // Injected delivery delay (slow link / GC pause).  `fault.delay` is bound
  // before the epoch's threads start and never reassigned, so this
  // producer-side read is race-free; the null check is the entire cost when
  // injection is off.
  auto* delay = channel.consumer->fault.delay;
  if (delay != nullptr && delay->TryConsume()) {
    std::this_thread::sleep_for(nanoseconds(delay->duration));
  }
  // Blocking push: this is the backpressure path.  The push recharges
  // `batch` with the capacity the lane's ring slot held; park that
  // capacity in the channel's spare buffer so the next flush cycle reuses
  // it.  (The spare may legitimately be occupied -- e.g. a control-thread
  // force-flush raced a task-thread flush -- then the chunk is just freed.)
  //
  // A false return means the queue is CLOSED and the records were dropped.
  // When either endpoint is quarantined that drop is the overload guard
  // working as designed -- account it as shed against the wedged vertex.
  // Either way the batch must be emptied here: parking a still-full batch
  // as the spare would re-deliver the dropped records on a later flush.
  if (!channel.consumer->queue->PushAll(channel.lane, batch)) {
    LocalTask* blame =
        channel.consumer->quarantined.load(std::memory_order_seq_cst)
            ? channel.consumer
        : channel.producer->quarantined.load(std::memory_order_seq_cst)
            ? channel.producer
            : nullptr;
    if (blame != nullptr) {
      blame->shed_n.fetch_add(batch.size(), std::memory_order_relaxed);
    }
    batch.clear();
  }
  if (batch.capacity() == 0) return;
  // Parking the recycled capacity needs the claim (spare is claim-owned).
  // The claim is free here in the steady state -- the flusher released it
  // before delivering -- so a failed try means a stealer is mid-flush;
  // dropping the capacity is cheaper than waiting for it.
  if (!channel.claim.TryAcquire()) return;
  if (channel.spare.capacity() == 0) channel.spare = std::move(batch);
  channel.claim.Release();
}

void LocalEngine::FlushDue(LocalTask* task, bool idle, std::int64_t now_hint) {
  for (auto& per_edge : task->outputs) {
    for (Channel* ch : per_edge) FlushChannel(*ch, /*force=*/false, now_hint, idle);
  }
  // Fused members' real output channels are also owned by this thread.
  for (LocalTask* m : task->chain_members) {
    for (auto& per_edge : m->outputs) {
      for (Channel* ch : per_edge) FlushChannel(*ch, /*force=*/false, now_hint, idle);
    }
  }
}

// ------------------------------------------------------------ thread loops

void LocalEngine::ReportTaskFailure(LocalTask* task, const std::string& what,
                                    LocalTask* origin) {
  // `origin` names the vertex whose UDF actually threw; for a fused chain
  // that is the member ChainInvoke tagged, while `task` (the chain head)
  // keeps the restart bookkeeping -- its thread is the unit of recovery.
  if (origin == nullptr) origin = task;
  ESP_LOG_ERROR << "task " << origin->vertex_name << "[" << origin->id.subtask
                << "] failed: " << what;
  {
    MutexLock lock(failure_mutex_);
    FailureEvent ev;
    ev.vertex = origin->vertex_name;
    ev.subtask = origin->id.subtask;
    ev.time = NowNs();
    ev.what = what;
    task->last_failure_index = failures_.size();
    failures_.push_back(std::move(ev));
  }
  // Publish AFTER the event so the supervisor (which clears
  // failure_pending_ before scanning failed flags) always finds the event.
  task->failed.store(true);
  failure_pending_.store(true);
}

void LocalEngine::SourceLoop(LocalTask* task) {
  RoutingCollector collector(this, task);
  bool crashed = false;
  try {
    SourceLoopBody(task, collector);
  } catch (const std::exception& e) {
    crashed = true;
    // Bank the emissions between the last harvest and the throw.
    task->emitted_n.fetch_add(collector.TakeEmitted(), std::memory_order_relaxed);
    ReportTaskFailure(task, e.what());
  }
  for (auto& per_edge : task->outputs) {
    for (Channel* ch : per_edge) FlushChannel(*ch, /*force=*/true);
  }
  // A crashed source may be restarted by the supervisor, so it must not
  // close downstream queues -- only a clean end-of-stream does.
  if (!crashed) CloseDownstream(task);
  task->done.store(true);
  control_cv_.NotifyAll();
}

void LocalEngine::SourceLoopBody(LocalTask* task, RoutingCollector& collector) {
  for (;;) {
    if (shutdown_.load()) break;
    if (pause_requested_.load()) {
      MutexLock lock(control_mutex_);
      ++parked_sources_;
      control_cv_.NotifyAll();
      while (pause_requested_.load() && !shutdown_.load()) control_cv_.Wait(lock);
      --parked_sources_;
      continue;
    }
    if (task->fault.crash != nullptr) {
      task->fault.TickCrash(task->vertex_name, task->id.subtask, NowNs());
    }
    // No busy flag here: the drain detector only consults non-source tasks
    // (sources are parked, not drained, during a rescale).
    const bool more = task->source->Produce(collector);
    const std::uint64_t emitted = collector.TakeEmitted();
    task->emitted_n.fetch_add(emitted, std::memory_order_relaxed);
    // After EVERY Produce call: ships buffers that are due (flush on idle,
    // deadline).  A call that emitted nothing is the source's idle signal.
    // An emitting iteration lends Emit's clock read to the deadline
    // precheck; an idle one must read fresh -- a frozen hint would postpone
    // the deadline flush indefinitely.
    FlushDue(task, /*idle=*/emitted == 0, emitted > 0 ? collector.LastNowNs() : 0);
    if (!more) break;
  }
}

void LocalEngine::TaskLoop(LocalTask* task) {
  RoutingCollector collector(this, task);
  bool crashed = false;
  try {
    TaskLoopBody(task, collector);
  } catch (const std::exception& e) {
    crashed = true;
    LocalTask* origin =
        task->chain_origin_task != nullptr ? task->chain_origin_task : task;
    task->chain_origin_task = nullptr;
    ReportTaskFailure(task, e.what(), origin);
  }
  for (auto& per_edge : task->outputs) {
    for (Channel* ch : per_edge) FlushChannel(*ch, /*force=*/true);
  }
  for (LocalTask* m : task->chain_members) {
    for (auto& per_edge : m->outputs) {
      for (Channel* ch : per_edge) FlushChannel(*ch, /*force=*/true);
    }
  }
  // A crashed task keeps its downstream open (the supervisor may restart it
  // and it will produce again); it also drops the busy flag its aborted
  // batch left raised so the drain detector can settle.
  if (!shutdown_.load() && !crashed) CloseDownstream(task);
  if (crashed) task->busy.store(false);
  // Fused members live and die with their head's thread.
  for (LocalTask* m : task->chain_members) m->done.store(true);
  task->done.store(true);
  control_cv_.NotifyAll();
}

void LocalEngine::TaskLoopBody(LocalTask* task, RoutingCollector& collector) {
  task->udf->Open();
  for (LocalTask* m : task->chain_members) m->udf->Open();
  const SimDuration timer_period = task->udf->TimerPeriod();
  if (timer_period > 0) task->next_timer_ns = NowNs() + timer_period;
  // Fused members with timers fire on the head's loop, preserving their
  // period; `member_timers` is the (member, period) list driving that.
  std::vector<std::pair<LocalTask*, SimDuration>> member_timers;
  for (LocalTask* m : task->chain_members) {
    const SimDuration p = m->udf->TimerPeriod();
    if (p > 0) {
      m->next_timer_ns = NowNs() + p;
      member_timers.emplace_back(m, p);
    }
  }

  // Reused across iterations: the dequeued batch plus per-record start/end
  // timestamps and emit flags for the post-batch metric pass.
  std::vector<Envelope> batch;
  batch.reserve(kPopBatch);
  std::vector<std::int64_t> start_ns(kPopBatch);
  std::vector<std::int64_t> end_ns(kPopBatch);
  std::vector<bool> emitted_any(kPopBatch);

  // Post-batch metric pass under a single sampler lock: service times, task
  // latencies, and the sink's latency shard + delivered counter.  Shared by
  // the happy path (count == n) and the mid-batch-failure path, where it
  // covers exactly the completed prefix so redelivery cannot double-count.
  const auto post_batch_metrics = [&](std::size_t count) {
    std::uint64_t delivered = 0;
    {
      MutexLock lock(task->sampler_mutex);
      for (std::size_t i = 0; i < count; ++i) {
        const double service = static_cast<double>(end_ns[i] - start_ns[i]) * 1e-9;
        task->sampler.RecordServiceTime(service);
        if (task->latency_mode == LatencyMode::kReadReady) {
          task->sampler.OfferTaskLatency(service);
        } else {
          if (task->rw_pending.size() < 256 &&
              task->rng.Bernoulli(options_.latency_sample_probability)) {
            task->rw_pending.push_back(start_ns[i]);
          }
          if (emitted_any[i]) {
            for (std::int64_t t : task->rw_pending) {
              task->sampler.OfferTaskLatency(static_cast<double>(end_ns[i] - t) * 1e-9);
            }
            task->rw_pending.clear();
          }
        }
        if (task->is_sink && batch[i].record.source_emit_ns != 0) {
          ++delivered;
          task->latency_shard.Add(
              static_cast<double>(end_ns[i] - batch[i].record.source_emit_ns) * 1e-9);
        }
      }
    }
    if (delivered > 0) task->delivered_n.fetch_add(delivered, std::memory_order_relaxed);
  };

  for (;;) {
    if (shutdown_.load()) break;
    // Quarantined by the watchdog: exit WITHOUT touching the queue again --
    // the control thread owns the stranded backlog's accounting from here.
    if (task->quarantined.load(std::memory_order_seq_cst)) break;
    if (task->fault.crash != nullptr) {
      task->fault.TickCrash(task->vertex_name, task->id.subtask, NowNs());
    }
    for (LocalTask* m : task->chain_members) {
      if (m->fault.crash == nullptr) continue;
      try {
        m->fault.TickCrash(m->vertex_name, m->id.subtask, NowNs());
      } catch (...) {
        if (task->chain_origin_task == nullptr) task->chain_origin_task = m;
        throw;
      }
    }
    if (task->fault.wedge != nullptr) {
      // Injected wedge: stop consuming during [from, from+duration) (0 =
      // until shutdown).  Always releases on shutdown_ so teardown can join.
      const auto* w = task->fault.wedge;
      const std::int64_t wedge_end =
          w->duration > 0 ? w->at_time + w->duration
                          : std::numeric_limits<std::int64_t>::max();
      while (!shutdown_.load() &&
             !task->quarantined.load(std::memory_order_seq_cst)) {
        const std::int64_t t = NowNs();
        if (t < w->at_time || t >= wedge_end) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (shutdown_.load() ||
          task->quarantined.load(std::memory_order_seq_cst)) {
        break;
      }
    }
    // busy is raised under the queue lock so the rescale drain detector
    // never observes "queue empty + idle" while records are in hand; it
    // stays raised until the whole batch is processed.
    const std::size_t n =
        task->queue->PopBatchFor(kPopBatch, nanoseconds(1'000'000), batch, &task->busy);
    const std::int64_t now = NowNs();
    // Watchdog heartbeat: the 1 ms pop timeout bounds the stamp interval, so
    // a stale heartbeat means the loop is stuck, not merely idle.
    task->last_progress_ns.store(now, std::memory_order_relaxed);

    bool timer_fired = false;
    if (timer_period > 0 && now >= task->next_timer_ns) {
      timer_fired = true;
      task->busy.store(true);
      task->udf->OnTimer(collector);
      task->next_timer_ns += timer_period;
      if (collector.TakeEmitted() > 0) {
        MutexLock lock(task->sampler_mutex);
        if (!task->rw_pending.empty()) {
          const std::int64_t t1 = NowNs();
          for (std::int64_t t : task->rw_pending) {
            task->sampler.OfferTaskLatency(static_cast<double>(t1 - t) * 1e-9);
          }
          task->rw_pending.clear();
        }
      }
    }
    for (auto& entry : member_timers) {
      LocalTask* m = entry.first;
      if (now < m->next_timer_ns) continue;
      if (!timer_fired) task->busy.store(true);
      timer_fired = true;
      try {
        m->chain_collector->SetNowHint(0);
        m->udf->OnTimer(*m->chain_collector);
        (void)m->chain_collector->TakeEmitted();
      } catch (...) {
        if (task->chain_origin_task == nullptr) task->chain_origin_task = m;
        throw;
      }
      m->next_timer_ns += entry.second;
    }
    // Records a timer handed to a fused sink end now, not at the next batch.
    if (timer_fired && !task->chain_members.empty()) {
      const std::int64_t t = NowNs();
      for (LocalTask* m : task->chain_members) m->chain_stage.EndRecords(t);
    }

    if (n == 0) {
      FlushDue(task, /*idle=*/true, now);
      if (timer_fired) task->busy.store(false);
      if (task->queue->closed() && task->queue->Empty()) break;
      continue;
    }

    // Arrival + channel-latency bookkeeping once per batch: one sampler
    // lock, one channel lock per same-channel run of envelopes.
    {
      MutexLock lock(task->sampler_mutex);
      for (std::size_t i = 0; i < n; ++i) task->sampler.RecordArrival(now);
    }
    for (std::size_t i = 0; i < n;) {
      const std::uint32_t ch = batch[i].channel;
      Channel& in = *channels_[ch];
      MutexLock ch_lock(in.mutex);
      for (; i < n && batch[i].channel == ch; ++i) {
        in.sampler.OfferChannelLatency(
            static_cast<double>(now - batch[i].channel_emit_ns) * 1e-9);
      }
    }

    // Run the UDF over the batch (RunUdfBatch -- the annotated inner batch
    // step).  On a throw, bank metrics for the completed prefix [0,
    // processed) and leave the unprocessed remainder -- INCLUDING the record
    // that failed -- in task->salvage for the supervisor to redeliver
    // (at-least-once).
    std::size_t processed = 0;
    try {
      RunUdfBatch(task, collector, batch, n, start_ns, end_ns, emitted_any,
                  processed);
      collector.SetNowHint(0);  // timer/close emissions read a fresh clock
    } catch (...) {
      collector.SetNowHint(0);
      post_batch_metrics(processed);
      // Bank the fused members' staged attribution for the completed prefix
      // too -- the unflushed remainder dies with the restart otherwise.
      if (!task->chain_members.empty()) FlushChainMetrics(task, now);
      task->salvage.assign(std::make_move_iterator(batch.begin() +
                                                   static_cast<std::ptrdiff_t>(processed)),
                           std::make_move_iterator(batch.end()));
      throw;
    }

    post_batch_metrics(n);
    // One staged flush per head batch: every fused member's per-record
    // attribution lands under a single sampler-lock acquisition.
    if (!task->chain_members.empty()) FlushChainMetrics(task, now);
    // After EVERY popped batch, fused members' outputs included: the
    // batch's emissions ship now if they are due.  A batch short of
    // kPopBatch drained the input, which is the task's idle signal.  Still
    // busy, so the drain detector cannot see a flush in flight as drained;
    // the batch's last end stamp is a clock read from this instant.
    FlushDue(task, /*idle=*/n < kPopBatch, end_ns[n - 1]);
    task->busy.store(false);
  }

  // End of stream: fire a final window so buffered aggregates are not lost.
  if (timer_period > 0 && !shutdown_.load()) task->udf->OnTimer(collector);
  for (auto& entry : member_timers) {
    if (shutdown_.load()) break;
    LocalTask* m = entry.first;
    m->chain_collector->SetNowHint(0);
    m->udf->OnTimer(*m->chain_collector);
    (void)m->chain_collector->TakeEmitted();
  }
  task->udf->Close();
  for (LocalTask* m : task->chain_members) m->udf->Close();
  if (!task->chain_members.empty()) FlushChainMetrics(task, NowNs());
}

void LocalEngine::RunUdfBatch(LocalTask* task, RoutingCollector& collector,
                              std::vector<Envelope>& batch, std::size_t n,
                              std::vector<std::int64_t>& start_ns,
                              std::vector<std::int64_t>& end_ns,
                              std::vector<bool>& emitted_any,
                              std::size_t& processed) ESP_NONALLOCATING {
  // Consecutive records share a timestamp boundary (record i's end is record
  // i+1's start), halving clock reads.
  std::int64_t t_prev = NowNs();
  for (std::size_t i = 0; i < n; ++i) {
    start_ns[i] = t_prev;
    if (task->fault.has_record_faults()) {
      ESP_EFFECTS_ESCAPE_BEGIN  // fault injection: test-only path, off by a null check in production
      task->fault.TickRecord(task->vertex_name, task->id.subtask);
      ESP_EFFECTS_ESCAPE_END
    }
    // Emit reuses this read, skips its own; fresh records inherit lineage.
    collector.SetNowHint(t_prev, batch[i].record.source_emit_ns);
    ESP_EFFECTS_ESCAPE_BEGIN  // the UDF body's effects are the UDF author's contract, not the engine's
    task->udf->OnRecord(batch[i].record, collector);
    ESP_EFFECTS_ESCAPE_END
    t_prev = NowNs();
    end_ns[i] = t_prev;
    for (LocalTask* m : task->chain_members) m->chain_stage.EndRecords(t_prev);
    emitted_any[i] = collector.TakeEmitted() > 0;
    processed = i + 1;
  }
}

// Runs one record through a fused member's UDF on the chain head's thread.
// The steady-state path adds ZERO clock reads: the head's now-hint is reused
// for batching deadlines, a fused sink's latency ends at the head's own
// per-record clock read (ChainMetricStaging::EndRecords), and service time is
// only measured on every kChainTimingInterval-th record (chain.h).  Metric
// attribution is staged lock-free in the member's ChainMetricStaging;
// FlushChainMetrics publishes it once per head batch.
void LocalEngine::ChainInvoke(LocalTask* member, Record record,
                              std::int64_t now_hint_ns) ESP_NONALLOCATING {
  ChainMetricStaging& stage = member->chain_stage;
  ++stage.count;
  ++stage.arrivals;
  RoutingCollector& out = *member->chain_collector;
  try {
    if (member->fault.has_record_faults()) {
      ESP_EFFECTS_ESCAPE_BEGIN  // fault injection: test-only path, off by a null check in production
      member->fault.TickRecord(member->vertex_name, member->id.subtask);
      ESP_EFFECTS_ESCAPE_END
    }
    if (stage.count % kChainTimingInterval == 0) {
      // Sampled segment timing: two clock reads amortized over the interval.
      const std::int64_t t0 = NowNs();
      out.SetNowHint(t0, record.source_emit_ns);
      ESP_EFFECTS_ESCAPE_BEGIN  // the fused UDF body's effects are the UDF author's contract, not the engine's
      member->udf->OnRecord(record, out);
      ESP_EFFECTS_ESCAPE_END
      ESP_EFFECTS_ESCAPE_BEGIN  // staging vectors reach steady capacity after warm-up; growth is a cold edge
      stage.service.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
      ESP_EFFECTS_ESCAPE_END
    } else {
      out.SetNowHint(now_hint_ns, record.source_emit_ns);
      ESP_EFFECTS_ESCAPE_BEGIN  // the fused UDF body's effects are the UDF author's contract, not the engine's
      member->udf->OnRecord(record, out);
      ESP_EFFECTS_ESCAPE_END
    }
    (void)out.TakeEmitted();
  } catch (...) {
    // Deepest member wins: an inner ChainInvoke frame tags first and the
    // null-check keeps outer frames from overwriting it on the way up.
    if (member->chain_head->chain_origin_task == nullptr) {
      member->chain_head->chain_origin_task = member;
    }
    ESP_EFFECTS_ESCAPE_BEGIN  // rethrow to the chain head's supervisor: fused-member failure is the sanctioned slow path
    throw;
    ESP_EFFECTS_ESCAPE_END
  }
  // Delivery is staged only AFTER the member's UDF succeeded: a fused sink
  // that throws salvages the record for replay, and counting it here too
  // would double-count on the second (successful) pass.  The latency is
  // not ended here: `now_hint_ns` predates the upstream UDFs that ran for
  // this record, so it would leave their run time out.
  if (member->is_sink && record.source_emit_ns != 0) {
    ++stage.delivered;
    ESP_EFFECTS_ESCAPE_BEGIN  // staging vectors reach steady capacity after warm-up; growth is a cold edge
    stage.sink_latency_ns.push_back(record.source_emit_ns);
    ESP_EFFECTS_ESCAPE_END
  }
}

// Publishes every fused member's staged batch attribution: per-member one
// sampler-lock acquisition (arrivals, sampled service/task latencies, the
// sink latency shard) plus one channel-lock acquisition on the member's
// metrics-only fused channel, so EstimateSequenceLatency sees the edge with
// its true item count and zero queue/batch wait.
void LocalEngine::FlushChainMetrics(LocalTask* head, std::int64_t now_ns) {
  for (LocalTask* m : head->chain_members) {
    ChainMetricStaging& stage = m->chain_stage;
    if (stage.empty()) continue;
    {
      MutexLock lock(m->sampler_mutex);
      for (std::uint64_t i = 0; i < stage.arrivals; ++i) {
        m->sampler.RecordArrival(now_ns);
      }
      for (double s : stage.service) {
        m->sampler.RecordServiceTime(s);
        m->sampler.OfferTaskLatency(s);
      }
      stage.EndRecords(now_ns);  // timer and failure paths leave some open
      for (std::int64_t l : stage.sink_latency_ns) {
        m->latency_shard.Add(static_cast<double>(l) * 1e-9);
      }
    }
    if (stage.delivered > 0) {
      m->delivered_n.fetch_add(stage.delivered, std::memory_order_relaxed);
    }
    if (m->chain_in != nullptr) {
      Channel& in = *m->chain_in;
      MutexLock lock(in.mutex);
      in.sampler.CountItems(stage.arrivals);
      in.sampler.OfferChannelLatency(0.0);
      in.sampler.OfferOutputBatchLatency(0.0);
    }
    stage.Flush();
  }
}

void LocalEngine::CloseDownstream(LocalTask* task) {
  for (auto& per_edge : task->outputs) {
    for (Channel* ch : per_edge) {
      if (ch->consumer->remaining_producers.fetch_sub(1) == 1) {
        ch->consumer->queue->Close();
      }
    }
  }
  // Fused members' real (non-chained) outputs close with the head: their
  // records can only originate from this thread, which is exiting.
  for (LocalTask* m : task->chain_members) {
    for (auto& per_edge : m->outputs) {
      for (Channel* ch : per_edge) {
        if (ch->consumer->remaining_producers.fetch_sub(1) == 1) {
          ch->consumer->queue->Close();
        }
      }
    }
  }
}

// -------------------------------------------------------------- epoch mgmt

void LocalEngine::BuildEpoch() {
  const RuntimeGraph rg = RuntimeGraph::Expand(graph_);

  // Chain analysis.  A vertex that is owed salvaged records must keep a real
  // queue this epoch (ReadmitSalvage pushes into it), so it cannot be a
  // fused consumer now; the next rebuild is free to fuse it again.
  std::unordered_set<std::uint32_t> salvage_consumers;
  for (const auto& [tid, records] : salvage_) {
    if (!records.empty()) salvage_consumers.insert(Value(tid.vertex));
  }
  std::vector<JobEdgeId> chainable;
  if (options_.chaining) chainable = ChainableEdges(graph_, salvage_consumers);
  std::unordered_set<std::uint32_t> chained_edges;
  chained_edge_list_.clear();
  for (JobEdgeId e : chainable) {
    chained_edges.insert(Value(e));
    chained_edge_list_.push_back(Value(e));
  }
  // Chains are dynamic: every rebuild dissolves the previous epoch's chains
  // and re-forms from the new parallelism vector, so forms minus breaks is
  // the number of edges fused in the CURRENT epoch.
  result_.chain_breaks += prev_chained_edges_;
  result_.chain_forms += chainable.size();
  prev_chained_edges_ = chainable.size();

  // Keep source tasks (their SourceFunction state persists across
  // rescales); everything else is rebuilt.
  std::vector<std::unique_ptr<LocalTask>> kept;
  for (auto& task : tasks_) {
    if (task->is_source) kept.push_back(std::move(task));
  }
  tasks_.clear();
  channels_.clear();

  std::unordered_map<TaskId, LocalTask*> by_id;
  Rng seeder(0xE5Cu);

  for (JobVertexId v : graph_.VertexIds()) {
    const JobVertex& jv = graph_.vertex(v);
    const bool chained_member =
        jv.inputs.size() == 1 && chained_edges.count(Value(jv.inputs[0])) != 0;
    for (const TaskId& tid : rg.tasks(v)) {
      std::unique_ptr<LocalTask> task;
      if (jv.inputs.empty()) {
        // Reuse the existing source task if the epoch change kept it.
        for (auto& k : kept) {
          if (k && k->id == tid) {
            task = std::move(k);
            break;
          }
        }
      }
      if (!task) {
        task = std::make_unique<LocalTask>();
        task->id = tid;
        task->vertex_name = jv.name;
        task->is_source = jv.inputs.empty();
        task->is_sink = jv.outputs.empty();
        {
          // The task is not shared yet (its thread starts later), but the
          // guard contract is unconditional; the uncontended lock is free.
          MutexLock lock(task->sampler_mutex);
          task->rng = Rng(seeder.Next());
          task->sampler = TaskSampler(options_.latency_sample_probability, seeder.Next());
        }
        if (task->is_source) {
          const auto it = source_factories_.find(jv.name);
          if (it == source_factories_.end()) {
            throw std::logic_error("LocalEngine: no source factory for '" + jv.name + "'");
          }
          task->source = it->second(tid.subtask);
        } else {
          const auto it = udf_factories_.find(jv.name);
          if (it == udf_factories_.end()) {
            throw std::logic_error("LocalEngine: no UDF factory for '" + jv.name + "'");
          }
          task->udf = it->second(tid.subtask);
          task->latency_mode = task->udf->latency_mode();
          // Input queues are built after wiring: fused members get none,
          // and the lane count needs the wiring pass's fan-in counts.
        }
        if (options_.fault_injector != nullptr) {
          task->fault = options_.fault_injector->Resolve(jv.name, tid.subtask);
        }
        // Deterministic admission shedding: the drop stream is a pure
        // function of the configured seed and the task's stable id.
        task->shed_rng = Rng(
            options_.overload.shed_seed ^
            ((static_cast<std::uint64_t>(Value(tid.vertex)) << 32) | tid.subtask));
      }
      task->chained = chained_member;
      task->outputs.assign(jv.outputs.size(), {});
      task->out_pattern.clear();
      for (JobEdgeId out : jv.outputs) {
        task->out_pattern.push_back(graph_.edge(out).pattern);
      }
      task->rr.assign(jv.outputs.size(), 0);
      task->remaining_producers.store(0);
      task->chain_out.assign(jv.outputs.size(), nullptr);
      task->chain_head = nullptr;
      task->chain_members.clear();
      task->chain_in = nullptr;
      task->chain_origin_task = nullptr;
      by_id[tid] = task.get();
      tasks_.push_back(std::move(task));
    }
  }

  for (JobEdgeId e : graph_.EdgeIds()) {
    const JobEdge& edge = graph_.edge(e);
    const bool fused = chained_edges.count(Value(e)) != 0;
    // Which output slot of the source vertex this edge occupies.
    std::uint32_t slot = 0;
    const auto& outs = graph_.vertex(edge.source).outputs;
    for (std::uint32_t i = 0; i < outs.size(); ++i) {
      if (outs[i] == e) slot = i;
    }
    for (const ChannelId& cid : rg.channels(e)) {
      auto channel = std::make_unique<Channel>();
      channel->id = cid;
      channel->edge = Value(e);
      channel->chained = fused;
      channel->flush_deadline.store(FlushDeadlineForEdge(Value(e)),
                                    std::memory_order_relaxed);
      channel->sampler =
          ChannelSampler(options_.latency_sample_probability, seeder.Next());
      channel->index = static_cast<std::uint32_t>(channels_.size());
      channel->consumer = by_id.at(TaskId{edge.target, cid.consumer_subtask});
      channel->producer = by_id.at(TaskId{edge.source, cid.producer_subtask});
      if (fused) {
        // A fused channel carries no records (metrics only): the producer
        // dispatches straight to the consumer's UDF via ChainInvoke.
        channel->producer->chain_out[slot] = channel->consumer;
        channel->consumer->chain_in = channel.get();
      } else {
        channel->producer->outputs[slot].push_back(channel.get());
        channel->consumer->remaining_producers.fetch_add(1);
      }
      channels_.push_back(std::move(channel));
    }
  }

  // Input queues: every task that is neither a source nor a fused chain
  // member gets one SPSC lane PER PRODUCER TASK feeding it over real
  // (non-fused) channels, merged on the consumer side (fanin_lanes.h,
  // DESIGN.md §14); one producer means one lane, the plain SPSC ring, and
  // the no-producer corner still gets one lane for salvage re-admission.
  // The per-consumer producer list is kept in channel ITERATION order
  // (deterministic, first-channel-wins) because its indices become the
  // lane assignment below.
  std::unordered_map<LocalTask*, std::vector<LocalTask*>> producers_of;
  for (auto& channel : channels_) {
    if (channel->chained) continue;
    auto& producers = producers_of[channel->consumer];
    if (std::find(producers.begin(), producers.end(), channel->producer) ==
        producers.end()) {
      producers.push_back(channel->producer);
    }
  }
  for (auto& task : tasks_) {
    if (task->is_source || task->chained) continue;
    const auto it = producers_of.find(task.get());
    const std::size_t fan_in = it == producers_of.end() ? 0 : it->second.size();
    task->queue = std::make_unique<FaninLanes<Envelope>>(
        options_.queue_capacity, std::max<std::size_t>(fan_in, 1));
  }
  // Lane assignment: every channel pushes to the lane of ITS producer task.
  // A lane is SPSC because one thread flushes all of a producer task's
  // channels; two channels sharing (producer, consumer) share a lane, which
  // that same single-flusher argument keeps safe.
  for (auto& channel : channels_) {
    if (channel->chained) continue;
    const auto& producers = producers_of[channel->consumer];
    channel->lane = static_cast<std::uint32_t>(
        std::find(producers.begin(), producers.end(), channel->producer) -
        producers.begin());
  }

  // Chain-head resolution, in topological order so a member's head is known
  // before its own fused consumers attach: transitive chains collapse onto
  // the ultimate head's flat member list, and each member gets a collector
  // of its own for ChainInvoke emissions.
  for (JobVertexId v : graph_.TopologicalOrder()) {
    for (const TaskId& tid : rg.tasks(v)) {
      LocalTask* t = by_id.at(tid);
      for (LocalTask* m : t->chain_out) {
        if (m == nullptr) continue;
        LocalTask* head = t->chained ? t->chain_head : t;
        m->chain_head = head;
        head->chain_members.push_back(m);
        m->chain_collector = std::make_unique<RoutingCollector>(this, m);
      }
    }
  }
}

void LocalEngine::StartThreads() {
  for (auto& task : tasks_) {
    if (task->chained) continue;  // fused members run on their head's thread
    if (task->thread.joinable()) continue;  // surviving source thread
    LocalTask* raw = task.get();
    raw->last_progress_ns.store(NowNs(), std::memory_order_relaxed);
    task->thread = raw->is_source ? std::thread([this, raw] { SourceLoop(raw); })
                                  : std::thread([this, raw] { TaskLoop(raw); });
  }
}

// Bounded shutdown of the current epoch's threads.  Queues are closed so
// blocked producers/consumers unblock, then threads are polled for done up
// to recovery.teardown_timeout.  A thread that never acknowledges (a UDF
// stuck in user code -- the injected wedge always releases on shutdown_) is
// reported as a failure and left running so Run() can return on time; the
// destructor joins it before the engine state it references is destroyed.
void LocalEngine::TeardownEpoch() {
  for (auto& task : tasks_) {
    if (task->queue != nullptr) task->queue->Close();
  }
  const std::int64_t deadline = NowNs() + options_.recovery.teardown_timeout;
  for (;;) {
    bool pending = false;
    for (auto& task : tasks_) {
      if (task->thread.joinable() && !task->abandoned && !task->done.load()) {
        pending = true;
        break;
      }
    }
    if (!pending || NowNs() >= deadline) break;
    control_cv_.NotifyAll();  // re-nudge parked sources / wedged waiters
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& task : tasks_) {
    if (!task->thread.joinable()) continue;
    if (task->done.load()) {
      task->thread.join();
      continue;
    }
    if (!task->abandoned) {
      task->abandoned = true;
      ReportTaskFailure(task.get(),
                        "task thread did not exit within the teardown timeout");
    }
  }
}

// Drains the queues of dead (failed && done) tasks into their salvage
// buffers.  Keeps producers blocked on a dead task's full queue moving
// during a pause/drain; harmless otherwise (a dead task's queue has no
// consumer).  Control thread only.
void LocalEngine::PumpFailedTasks() {
  for (auto& task : tasks_) {
    if (task->is_source || task->queue == nullptr) continue;
    if (!task->failed.load() || !task->done.load()) continue;
    std::vector<Envelope> drained = task->queue->DrainAll();
    if (drained.empty()) continue;
    task->salvage.insert(task->salvage.end(), std::make_move_iterator(drained.begin()),
                         std::make_move_iterator(drained.end()));
  }
}

// Hands the records salvaged from the previous epoch's failed tasks to the
// subtasks that own them now.  The envelopes' dense channel indices belong
// to the dead epoch, so they are rewritten to an input channel of the new
// owner before re-admission.
void LocalEngine::ReadmitSalvage() {
  for (auto& [tid, records] : salvage_) {
    if (records.empty()) continue;
    LocalTask* target = nullptr;
    std::uint32_t parallelism = 0;
    for (auto& task : tasks_) {
      if (task->id.vertex == tid.vertex) ++parallelism;
    }
    if (parallelism == 0) continue;  // vertex gone (cannot happen today)
    const std::uint32_t want = tid.subtask % parallelism;
    for (auto& task : tasks_) {
      if (task->id.vertex == tid.vertex && task->id.subtask == want) {
        target = task.get();
        break;
      }
    }
    if (target == nullptr || target->queue == nullptr) continue;
    std::uint32_t in_channel = 0;
    for (auto& channel : channels_) {
      if (channel->chained) continue;  // metrics-only, feeds no queue
      if (channel->consumer == target) {
        in_channel = channel->index;
        break;
      }
    }
    for (Envelope& env : records) env.channel = in_channel;
    result_.records_redelivered += records.size();
    target->queue->PushFront(std::move(records));
  }
  salvage_.clear();
}

bool LocalEngine::RebuildEpoch(const std::vector<ScalingAction>& actions,
                               LocalTask* quarantined) {
  const std::int64_t deadline = NowNs() + options_.recovery.drain_timeout;

  // 1. Park the sources.  A source can FINISH instead of parking (Produce
  // returned false just as the pause was requested), so the wait recounts
  // the still-live sources on every wakeup.  The wait also pumps dead
  // tasks' queues: a source blocked in PushAll toward a dead task can only
  // reach its park point once that queue moves.
  pause_requested_.store(true);
  {
    MutexLock lock(control_mutex_);
    for (;;) {
      std::uint32_t live = 0;
      for (auto& task : tasks_) {
        if (task->is_source && !task->done.load()) ++live;
      }
      if (parked_sources_ >= live) break;
      if (NowNs() >= deadline) {
        lock.Unlock();
        pause_requested_.store(false);
        control_cv_.NotifyAll();
        ESP_LOG_ERROR << "RebuildEpoch: sources failed to park within the drain "
                         "timeout; aborting";
        return false;
      }
      control_cv_.WaitFor(lock, std::chrono::milliseconds(2));
      lock.Unlock();
      PumpFailedTasks();
      lock.Lock();
    }
  }

  // 2. Flush parked sources' buffers and wait for the flow to drain.  Dead
  // tasks are exempt (their backlog is pumped to salvage instead); a WEDGED
  // task never drains, which is exactly what the timeout is for -- the
  // rebuild aborts and the world resumes unchanged.
  for (auto& task : tasks_) {
    if (!task->is_source) continue;
    for (auto& per_edge : task->outputs) {
      for (Channel* ch : per_edge) FlushChannel(*ch, /*force=*/true);
    }
  }
  const auto drained = [&] {
    for (auto& task : tasks_) {
      if (task->is_source || task->done.load()) continue;
      // Fused members have no queue or thread of their own; the head's busy
      // flag and the channel-buffer scan below cover their in-flight work.
      if (task->chained) continue;
      // The wedged task never drains -- its closed queue and its buffers are
      // accounted separately once its producers quiesce.
      if (task.get() == quarantined) continue;
      // Read the queue before the busy flag: busy is raised (published)
      // before a pop's items leave, so "empty then not busy" (in that
      // order) can never observe an in-flight record.
      if (!task->queue->Empty() || task->busy.load()) return false;
    }
    for (auto& channel : channels_) {
      // Channels into the wedged task are flushed after joins; channels OUT
      // of it (or out of its fused members) only its stuck thread could
      // flush -- both are accounted as shed in step 3a instead of drained.
      if (quarantined != nullptr &&
          (channel->consumer == quarantined || channel->producer == quarantined ||
           channel->producer->chain_head == quarantined)) {
        continue;
      }
      // Lock-free emptiness: first_entry_ns != 0 <=> buffer non-empty (both
      // transitions happen under the claim, for every shipping strategy).
      if (channel->first_entry_ns.load(std::memory_order_relaxed) != 0) {
        return false;
      }
    }
    return true;
  };
  int stable = 0;
  while (stable < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    PumpFailedTasks();
    stable = drained() ? stable + 1 : 0;
    if (stable < 3 && NowNs() >= deadline) {
      pause_requested_.store(false);
      control_cv_.NotifyAll();
      ESP_LOG_ERROR << "RebuildEpoch: flow failed to drain within the drain "
                       "timeout (wedged task?); aborting";
      return false;
    }
  }

  // 3. Stop and join the non-source task threads, then bank their metric
  // shards -- BuildEpoch is about to destroy those tasks.
  for (auto& task : tasks_) {
    if (task->queue != nullptr) task->queue->Close();
  }
  for (auto& task : tasks_) {
    if (task.get() == quarantined) continue;  // unjoinable until its wedge ends
    if (!task->is_source && task->thread.joinable()) task->thread.join();
  }

  // 3a (quarantine only).  Account the wedged task's stranded records now
  // that every producer is parked or joined: inbound channel buffers are
  // force-flushed into the closed queue (DeliverBatch counts the drop as
  // shed), the queue backlog is counted where it sits -- draining it from
  // here would race the wedged consumer if its wedge released at exactly
  // the wrong moment, and once the quarantined flag is up the task thread
  // exits without popping, so the count is stable -- and output batches only
  // the wedged thread could flush are counted and cleared.  If that thread
  // already force-flushed them on its way out, the closed downstream queues
  // counted them instead: exactly once either way.
  if (quarantined != nullptr) {
    for (auto& channel : channels_) {
      if (channel->consumer == quarantined) FlushChannel(*channel, /*force=*/true);
    }
    quarantined->shed_n.fetch_add(quarantined->queue->size(),
                                  std::memory_order_relaxed);
    const auto shed_outputs = [](LocalTask* t) {
      for (auto& per_edge : t->outputs) {
        for (Channel* ch : per_edge) {
          // The unbounded spin is the exactly-once guarantee: the wedged
          // thread may be force-flushing this very channel on its way out,
          // but its claim holds are bounded, so Acquire terminates and the
          // buffer is counted here XOR delivered into the closed queue
          // (which counts the drop as shed) -- never both.
          ch->claim.Acquire();
          t->shed_n.fetch_add(ch->buffer.size(), std::memory_order_relaxed);
          ch->buffer.clear();
          ch->first_entry_ns.store(0, std::memory_order_relaxed);
          ch->claim.Release();
        }
      }
    };
    shed_outputs(quarantined);
    for (LocalTask* m : quarantined->chain_members) shed_outputs(m);
  }

  for (auto& task : tasks_) {
    if (!task->is_source) HarvestTaskMetrics(task.get());
  }

  // 3b. Salvage dead tasks' backlogs (queue remainder + mid-batch remainder)
  // keyed by old TaskId, mark their failures recovered -- the rebuild IS
  // the restart for them -- and count the restarts.
  std::uint32_t recovered = 0;
  for (auto& task : tasks_) {
    if (task->is_source || task->queue == nullptr) continue;
    if (task.get() == quarantined) continue;  // backlog already counted shed
    std::vector<Envelope> s = std::move(task->salvage);
    task->salvage.clear();
    std::vector<Envelope> rest = task->queue->DrainAll();
    s.insert(s.end(), std::make_move_iterator(rest.begin()),
             std::make_move_iterator(rest.end()));
    if (!s.empty()) salvage_.emplace_back(task->id, std::move(s));
    if (task->failed.load()) {
      ++recovered;
      // The rebuild is this task's restart: clear any armed backoff gate so
      // a future failure of the slot starts a fresh backoff.
      const std::uint64_t key =
          (static_cast<std::uint64_t>(Value(task->id.vertex)) << 32) |
          task->id.subtask;
      restart_state_[key].next_restart_ns = 0;
      MutexLock lock(failure_mutex_);
      if (task->last_failure_index < failures_.size()) {
        failures_[task->last_failure_index].recovered = true;
        failures_[task->last_failure_index].action = FailureAction::kRestart;
      }
    }
  }
  result_.restarts += recovered;

  // 4. Apply the new parallelism and rebuild the epoch; re-admit salvage
  // before the new threads start so replayed records precede new arrivals.
  for (const ScalingAction& a : actions) {
    graph_.SetParallelism(a.vertex, a.new_parallelism);
  }
  // 4a (quarantine only).  The wedged thread is still alive and will touch
  // its queue, its output channels and downstream queues on the way out, so
  // the WHOLE old epoch's non-source state moves to the graveyard instead
  // of being destroyed under it (sources survive into the new epoch as
  // usual).  Every old queue is closed, so anything the thread still does
  // is a counted no-op; the destructor joins it once shutdown_ releases the
  // wedge.
  if (quarantined != nullptr) {
    for (auto& task : tasks_) {
      if (!task->is_source) quarantined_tasks_.push_back(std::move(task));
    }
    std::erase_if(tasks_, [](const auto& t) { return t == nullptr; });
    for (auto& channel : channels_) {
      quarantined_channels_.push_back(std::move(channel));
    }
    channels_.clear();
  }
  BuildEpoch();
  ReadmitSalvage();
  StartThreads();
  // A source that finished CLEANLY before this rebuild closed the OLD
  // epoch's queues on its way out; the NEW epoch's consumers need that
  // end-of-stream again, or a job whose sources are already exhausted
  // (e.g. an epoch restart late in the stream) would idle out the full
  // max_duration after delivering everything.  Crashed sources stay open:
  // the supervisor may still restart them.
  for (auto& task : tasks_) {
    if (task->is_source && task->done.load() && !task->failed.load()) {
      CloseDownstream(task.get());
    }
  }
  if (!actions.empty()) ++result_.rescales;
  if (recovered > 0 || quarantined != nullptr) {
    std::vector<std::string> vertices;  // every non-source vertex was rebuilt
    for (JobVertexId v : graph_.VertexIds()) {
      if (!graph_.vertex(v).inputs.empty()) vertices.push_back(graph_.vertex(v).name);
    }
    MarkRecoveryTransient(NowNs(), vertices);
  }

  // 5. Resume the sources.
  pause_requested_.store(false);
  control_cv_.NotifyAll();
  return true;
}

// ------------------------------------------------------------- supervision

SimDuration LocalEngine::NextBackoff(std::uint32_t restart_count) {
  const FailureRecoveryOptions& r = options_.recovery;
  double backoff = static_cast<double>(r.backoff_initial);
  for (std::uint32_t i = 0; i < restart_count && backoff < static_cast<double>(r.backoff_max); ++i) {
    backoff *= 2.0;
  }
  backoff = std::min(backoff, static_cast<double>(r.backoff_max));
  const double jitter = 1.0 + r.backoff_jitter * (2.0 * backoff_rng_.NextDouble() - 1.0);
  return static_cast<SimDuration>(std::max(0.0, backoff * jitter));
}

void LocalEngine::MarkRecoveryTransient(std::int64_t now_ns,
                                        const std::vector<std::string>& vertices) {
  // Measurement windows overlapping the outage (and the partial window in
  // progress) would feed the stall + replay burst into the Kingman-model
  // inputs; drop them, plus the restarted vertices' accumulated history.
  for (QosManager& m : managers_) {
    m.MarkStale(now_ns + options_.measurement_interval);
    for (const std::string& name : vertices) {
      const JobVertexId v = graph_.VertexByName(name);
      m.DropVertex(v, graph_.vertex(v).inputs);
      m.DropVertex(v, graph_.vertex(v).outputs);
    }
  }
  // And hold reactive scaling for one adjustment round: the first
  // post-recovery summary still reflects the transient.
  scaler_.SuppressFor(1);
}

// Restarts one dead subtask in place: same queue/channel wiring, same metric
// shards and fault binding, fresh user-code instance.  The salvaged
// mid-batch remainder is re-admitted at the FRONT of the queue so the
// restarted incarnation replays it before anything newer.
bool LocalEngine::RestartTask(LocalTask* task) {
  if (task->thread.joinable()) task->thread.join();
  if (!task->salvage.empty()) {
    result_.records_redelivered += task->salvage.size();
    task->queue->PushFront(std::move(task->salvage));
    task->salvage.clear();
  }
  try {
    if (task->is_source) {
      // Restarting a source re-instantiates the SourceFunction from its
      // factory; records emitted before the crash are NOT re-emitted by the
      // engine, so a stateful source resumes wherever its factory puts it.
      task->source = source_factories_.at(task->vertex_name)(task->id.subtask);
    } else {
      task->udf = udf_factories_.at(task->vertex_name)(task->id.subtask);
      task->latency_mode = task->udf->latency_mode();
      // A chain restarts as a unit: the head's thread is the failure domain,
      // so every fused member gets a fresh user-code instance too.
      for (LocalTask* m : task->chain_members) {
        m->udf = udf_factories_.at(m->vertex_name)(m->id.subtask);
        m->latency_mode = m->udf->latency_mode();
      }
    }
  } catch (const std::exception& e) {
    ESP_LOG_ERROR << "RestartTask: factory for " << task->vertex_name
                  << " threw: " << e.what();
    return false;
  }
  {
    MutexLock lock(task->sampler_mutex);
    task->rw_pending.clear();
  }
  for (LocalTask* m : task->chain_members) {
    {
      MutexLock lock(m->sampler_mutex);
      m->rw_pending.clear();
    }
    m->chain_stage.Flush();
    m->next_timer_ns = 0;
    m->done.store(false);
  }
  task->chain_origin_task = nullptr;
  task->next_timer_ns = 0;
  task->busy.store(false);
  {
    MutexLock lock(failure_mutex_);
    if (task->last_failure_index < failures_.size()) {
      failures_[task->last_failure_index].recovered = true;
      failures_[task->last_failure_index].action = FailureAction::kRestart;
    }
  }
  task->failed.store(false);
  task->done.store(false);
  task->last_progress_ns.store(NowNs(), std::memory_order_relaxed);
  LocalTask* raw = task;
  task->thread = raw->is_source ? std::thread([this, raw] { SourceLoop(raw); })
                                : std::thread([this, raw] { TaskLoop(raw); });
  ESP_LOG_INFO << "restarted task " << task->vertex_name << "[" << task->id.subtask
               << "]";
  ++result_.restarts;
  return true;
}

// The supervisor: applies the failure policy to every task whose thread has
// died.  Runs on the control thread whenever failure_pending_ is raised.
// Returns false when the run must terminate (fail-fast policy or restart
// budget exhausted).  The clear-then-scan order makes the flag race-free: a
// task raising it between the scan and a later clear is seen next round,
// and restarts still waiting out their backoff re-raise it here.
bool LocalEngine::Supervise() {
  failure_pending_.store(false);
  const std::int64_t now = NowNs();
  std::vector<LocalTask*> ready;
  bool waiting = false;
  for (auto& tptr : tasks_) {
    LocalTask* task = tptr.get();
    if (!task->failed.load()) continue;
    if (options_.recovery.policy == FailurePolicy::kFailFast) {
      terminate_.store(true);
      return false;
    }
    if (!task->done.load()) {  // still dying; revisit once the thread exits
      waiting = true;
      continue;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(Value(task->id.vertex)) << 32) | task->id.subtask;
    RestartState& rs = restart_state_[key];
    if (rs.count >= options_.recovery.max_restarts_per_task) {
      ESP_LOG_ERROR << "restart budget exhausted for " << task->vertex_name << "["
                    << task->id.subtask << "] after " << rs.count
                    << " restarts; failing fast";
      terminate_.store(true);
      return false;
    }
    if (rs.next_restart_ns == 0) rs.next_restart_ns = now + NextBackoff(rs.count);
    if (now < rs.next_restart_ns) {  // exponential backoff still running
      waiting = true;
      continue;
    }
    rs.next_restart_ns = 0;
    ++rs.count;
    ready.push_back(task);
  }

  if (!ready.empty()) {
    if (options_.recovery.policy == FailurePolicy::kRestartTask) {
      std::vector<std::string> vertices;
      for (LocalTask* task : ready) {
        if (RestartTask(task)) {
          vertices.push_back(task->vertex_name);
          for (LocalTask* m : task->chain_members) vertices.push_back(m->vertex_name);
        } else {
          waiting = true;  // factory failed; backoff and retry
        }
      }
      if (!vertices.empty()) MarkRecoveryTransient(NowNs(), vertices);
    } else {  // kRestartEpoch: one rebuild recovers every dead task at once
      if (!RebuildEpoch({})) waiting = true;  // drain timed out; retry later
    }
  }

  if (waiting) failure_pending_.store(true);
  return true;
}

// ----------------------------------------------------------- overload guard

LocalEngine::LocalTask* LocalEngine::FindWedgedTask(std::int64_t now) {
  // Reverse topological order: when a wedged task backs the flow up, its
  // upstreams stall too (blocked pushing into full queues, heartbeats just
  // as stale) -- the most DOWNSTREAM stale task is the culprit.  One task
  // per scan; re-wedging replacements are bounded by the restart budget.
  const std::vector<JobVertexId> topo = graph_.TopologicalOrder();
  for (auto v = topo.rbegin(); v != topo.rend(); ++v) {
    for (auto& tptr : tasks_) {
      LocalTask* task = tptr.get();
      if (task->id.vertex != *v) continue;
      if (task->is_source || task->chained || task->queue == nullptr) continue;
      if (task->done.load() || task->failed.load()) continue;
      // Left half-quarantined by an aborted rebuild (drain timeout): retry
      // the isolation before looking for new wedges.
      if (task->quarantined.load(std::memory_order_relaxed)) return task;
      if (task->queue->Empty()) continue;
      if (now - task->last_progress_ns.load(std::memory_order_relaxed) >=
          options_.overload.wedge_deadline) {
        return task;
      }
    }
  }
  return nullptr;
}

bool LocalEngine::QuarantineTask(LocalTask* task) {
  const std::int64_t now = NowNs();
  const std::uint64_t key =
      (static_cast<std::uint64_t>(Value(task->id.vertex)) << 32) | task->id.subtask;
  if (now < restart_state_[key].next_restart_ns) return true;  // backoff gate
  const bool retry = task->quarantined.load(std::memory_order_relaxed);
  if (!retry) {
    const double stale_ms =
        static_cast<double>(now - task->last_progress_ns.load(
                                      std::memory_order_relaxed)) /
        1e6;
    ESP_LOG_ERROR << "watchdog: task " << task->vertex_name << "["
                  << task->id.subtask << "] made no progress for " << stale_ms
                  << " ms with a non-empty input queue; quarantining";
    {
      MutexLock lock(failure_mutex_);
      FailureEvent ev;
      ev.vertex = task->vertex_name;
      ev.subtask = task->id.subtask;
      ev.time = now;
      ev.what = "watchdog: wedged (no progress within the deadline); quarantined";
      ev.action = FailureAction::kQuarantine;
      task->last_failure_index = failures_.size();
      failures_.push_back(std::move(ev));
    }
    if (options_.recovery.policy == FailurePolicy::kFailFast) {
      terminate_.store(true);
      return false;
    }
    RestartState& rs = restart_state_[key];
    if (rs.count >= options_.recovery.max_restarts_per_task) {
      ESP_LOG_ERROR << "quarantine budget exhausted for " << task->vertex_name
                    << "[" << task->id.subtask << "] after " << rs.count
                    << " isolations; failing fast";
      terminate_.store(true);
      return false;
    }
    ++rs.count;
    ++result_.quarantines;
    // Flag first, close second: a producer that observes the closed queue is
    // then guaranteed to observe the flag and account its drop as shed.
    task->quarantined.store(true, std::memory_order_seq_cst);
    for (LocalTask* m : task->chain_members) {
      m->quarantined.store(true, std::memory_order_seq_cst);
    }
    // The wedge x queue fix: closing the queue wakes producers parked on
    // their full lanes, so no peer ever deadlocks on a wedged consumer;
    // their subsequent pushes drop and are counted shed above.
    task->queue->Close();
  }
  restart_state_[key].next_restart_ns = now + NextBackoff(restart_state_[key].count);
  const bool rebuilt = RebuildEpoch({}, task);
  if (rebuilt) {
    ++result_.restarts;
    restart_state_[key].next_restart_ns = 0;
    MutexLock lock(failure_mutex_);
    if (task->last_failure_index < failures_.size()) {
      failures_[task->last_failure_index].recovered = true;
    }
  }
  // A failed rebuild (drain timeout) leaves the victim half-quarantined in
  // tasks_; FindWedgedTask returns it again after the backoff for a retry.
  return true;
}

void LocalEngine::OverloadTick(const std::vector<double>& estimates) {
  if (!options_.overload.enabled) return;
  const OverloadOptions& oo = options_.overload;

  // Saturation signals from the live epoch's input queues.
  SaturationSignals sig;
  std::uint64_t backlog = 0;
  const double capacity =
      static_cast<double>(std::max<std::size_t>(1, options_.queue_capacity));
  for (auto& task : tasks_) {
    if (task->is_source || task->chained || task->queue == nullptr) continue;
    const std::size_t depth = task->queue->size();
    backlog += depth;
    sig.max_queue_fill =
        std::max(sig.max_queue_fill, static_cast<double>(depth) / capacity);
  }
  const std::int64_t now = NowNs();
  if (last_backlog_ns_ >= 0 && now > last_backlog_ns_) {
    sig.backlog_growth =
        (static_cast<double>(backlog) - static_cast<double>(last_backlog_)) /
        (static_cast<double>(now - last_backlog_ns_) * 1e-9);
  }
  last_backlog_ = backlog;
  last_backlog_ns_ = now;

  // Fold per-constraint health.  A violation the scaler can still fix
  // (enabled, not suppressed, some elastic vertex in the sequence below its
  // max) is passed to the shed controller as AtRisk: elasticity is the
  // first-line response and shedding must not pre-empt it.
  const bool scaler_live = options_.scaler.enabled && !scaler_.IsInactive();
  const auto rank = [](ConstraintHealth h) { return static_cast<int>(h); };
  ConstraintHealth worst = ConstraintHealth::kHealthy;
  const LatencyConstraint* worst_constraint = nullptr;
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    const double est = i < estimates.size() ? estimates[i] : -1.0;
    ConstraintHealth h =
        ClassifyConstraint(est, ToSeconds(constraints_[i].bound), oo, sig);
    if (h == ConstraintHealth::kViolated) {
      bool headroom = false;
      if (scaler_live) {
        for (JobVertexId v : constraints_[i].sequence.vertices()) {
          const JobVertex& jv = graph_.vertex(v);
          if (jv.elastic && jv.parallelism < jv.max_parallelism) {
            headroom = true;
            break;
          }
        }
      }
      if (headroom) h = ConstraintHealth::kAtRisk;
    }
    if (rank(h) > rank(worst)) {
      worst = h;
      worst_constraint = &constraints_[i];
    }
  }

  const OverloadDecision d = overload_.Tick(worst);
  shed_ratio_ppm_.store(static_cast<std::uint32_t>(d.shed_ratio * 1e6),
                        std::memory_order_relaxed);
  if (d.shed_ratio > 0.0) ++result_.shed_windows;

  const std::string where =
      worst_constraint != nullptr
          ? worst_constraint->name
          : (constraints_.empty() ? std::string("<none>")
                                  : constraints_.front().name);
  if (d.shed_entered) {
    ESP_LOG_WARN << "overload: shedding engaged (constraint '" << where
                 << "', ratio " << d.shed_ratio << ")";
    MutexLock lock(failure_mutex_);
    FailureEvent ev;
    ev.vertex = where;  // constraint name: shedding has no single vertex
    ev.time = now;
    ev.what = "overload guard: admission shedding engaged";
    ev.action = FailureAction::kShedEnter;
    shed_enter_event_ = failures_.size();
    failures_.push_back(std::move(ev));
  }
  if (d.shed_exited) {
    ESP_LOG_INFO << "overload: shedding disengaged";
    MutexLock lock(failure_mutex_);
    if (shed_enter_event_ < failures_.size()) {
      failures_[shed_enter_event_].recovered = true;
    }
    shed_enter_event_ = static_cast<std::size_t>(-1);
    FailureEvent ev;
    ev.vertex = where;
    ev.time = now;
    ev.what = "overload guard: admission shedding disengaged";
    ev.action = FailureAction::kShedExit;
    ev.recovered = true;
    failures_.push_back(std::move(ev));
  }
}

// ------------------------------------------------------------ control loop

// Folds one task's metric shards into result_ and resets them.  Control
// thread only; safe against live task threads (counters are atomics, the
// histogram shard is guarded by sampler_mutex).
void LocalEngine::HarvestTaskMetrics(LocalTask* task) {
  result_.records_emitted += task->emitted_n.exchange(0, std::memory_order_relaxed);
  result_.records_delivered += task->delivered_n.exchange(0, std::memory_order_relaxed);
  const std::uint64_t shed = task->shed_n.exchange(0, std::memory_order_relaxed);
  if (shed > 0) {
    result_.records_shed += shed;
    result_.shed_by_vertex[task->vertex_name] += shed;
  }
  MutexLock lock(task->sampler_mutex);
  if (task->latency_shard.count() > 0) {
    result_.latency.Merge(task->latency_shard);
    task->latency_shard.Reset();
  }
}

void LocalEngine::ControlTick() {
  // Harvest all samplers into sharded QoS reports (paper Fig. 4).
  std::vector<QosReport> shards(managers_.size());
  const SimTime now = NowNs();
  for (auto& task : tasks_) {
    HarvestTaskMetrics(task.get());
    if (task->done.load()) continue;
    TaskMeasurement m;
    {
      MutexLock lock(task->sampler_mutex);
      m = task->sampler.Harvest();
    }
    shards[std::hash<TaskId>{}(task->id) % shards.size()].tasks.emplace_back(task->id, m);
  }
  for (auto& channel : channels_) {
    ChannelMeasurement m;
    {
      MutexLock lock(channel->mutex);
      m = channel->sampler.Harvest();
    }
    shards[std::hash<ChannelId>{}(channel->id) % shards.size()].channels.emplace_back(
        channel->id, m);
  }
  for (std::size_t i = 0; i < managers_.size(); ++i) {
    shards[i].time = now;
    managers_[i].Ingest(shards[i]);
  }
}

bool LocalEngine::AllTasksFinished() {
  for (auto& task : tasks_) {
    if (!task->done.load()) return false;
    // A dead task awaiting supervision (restart/backoff) is not finished;
    // ending the run here would drop its salvaged backlog.
    if (task->failed.load()) return false;
  }
  return true;
}

EngineResult LocalEngine::Run(SimDuration max_duration) {
  if (ran_) throw std::logic_error("LocalEngine::Run: already ran");
  ran_ = true;
  epoch_zero_ = steady_clock::now();

  BuildEpoch();
  StartThreads();

  const std::int64_t measurement_ns = options_.measurement_interval;
  const std::uint32_t ticks_per_adjustment = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(options_.adjustment_interval /
                                    std::max<SimDuration>(1, measurement_ns)));
  std::int64_t next_tick = measurement_ns;
  std::uint32_t tick = 0;

  while (!AllTasksFinished()) {
    if (terminate_.load()) break;
    if (max_duration > 0 && NowNs() >= max_duration) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // Supervision point: a dying task raised failure_pending_; apply the
    // failure policy (restart / backoff / terminate) before the QoS tick.
    if (failure_pending_.load() && !Supervise()) break;
    // SLO watchdog: isolate a wedged task (stale heartbeat + non-empty
    // queue) within wedge_deadline of it wedging -- every 5 ms poll, not
    // just at adjustment boundaries, so detection is bounded by the
    // deadline itself.
    if (options_.overload.enabled && options_.overload.wedge_deadline > 0) {
      if (LocalTask* wedged = FindWedgedTask(NowNs())) {
        if (!QuarantineTask(wedged)) break;
      }
    }
    if (NowNs() < next_tick) continue;
    next_tick += measurement_ns;
    ControlTick();

    if (++tick % ticks_per_adjustment != 0) continue;

    std::vector<PartialSummary> partials;
    partials.reserve(managers_.size());
    for (QosManager& m : managers_) partials.push_back(m.MakePartialSummary(NowNs()));
    last_summary_ = MergeSummaries(partials);

    std::vector<double> estimates;
    for (const LatencyConstraint& c : constraints_) {
      double est = 0;
      estimates.push_back(EstimateSequenceLatency(last_summary_, c.sequence, &est) ? est
                                                                                   : -1.0);
    }
    result_.estimated_latency.push_back(std::move(estimates));

    // One overload round per adjustment interval: classify, tick the
    // shed controller, actuate the shed ratio.
    OverloadTick(result_.estimated_latency.back());

    if (options_.shipping == ShippingStrategy::kAdaptive && !constraints_.empty()) {
      const FlushDeadlines deadlines = ComputeFlushDeadlines(
          graph_, constraints_, last_summary_,
          options_.scaler.strategy.queue_wait_fraction, options_.batching,
          chained_edge_list_);
      for (const auto& [edge, deadline] : deadlines) edge_deadlines_[edge].store(deadline);
      for (auto& channel : channels_) {
        channel->flush_deadline.store(FlushDeadlineForEdge(channel->edge),
                                      std::memory_order_relaxed);
      }
    }

    if (options_.scaler.enabled && !constraints_.empty()) {
      const auto actions = scaler_.Adjust(graph_, constraints_, last_summary_);
      if (!actions.empty() && RebuildEpoch(actions)) {
        scaler_.NotifyApplied(actions);
        const RuntimeGraph rg = RuntimeGraph::Expand(graph_);
        for (QosManager& m : managers_) m.Prune(rg);
      }
    }
  }

  // Shut down: close everything and join, bounded so a stuck UDF surfaces
  // as a reported failure instead of hanging the caller.
  shutdown_.store(true);
  control_cv_.NotifyAll();
  TeardownEpoch();

  for (auto& task : tasks_) HarvestTaskMetrics(task.get());
  // Graveyarded tasks keep absorbing shed counts (drops at their closed
  // queues) until their producers wound down; bank the final tallies.
  for (auto& task : quarantined_tasks_) HarvestTaskMetrics(task.get());
  for (JobVertexId v : graph_.VertexIds()) {
    result_.final_parallelism[graph_.vertex(v).name] = graph_.vertex(v).parallelism;
  }
  {
    // Fold the cross-thread failure stream into the control-thread result;
    // every task thread has been joined or reported stuck by now.
    MutexLock lock(failure_mutex_);
    result_.failures = std::move(failures_);
    failures_.clear();
  }
  return std::move(result_);
}

}  // namespace esp::runtime
