// User-defined functions of the threaded local runtime.
//
// A Udf instance runs single-threaded inside one task, so implementations
// need no synchronisation for their own state (the classic SPE contract).
// Sources implement SourceFunction instead and run in their own thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/time.h"
#include "graph/job_graph.h"
#include "runtime/record.h"

namespace esp::runtime {

/// Sink for a UDF's output records.  output_index selects among the
/// vertex's outgoing job edges in graph insertion order.
class Collector {
 public:
  virtual ~Collector() = default;
  virtual void Emit(Record record, std::uint32_t output_index = 0) = 0;
};

/// Per-record / per-timer user code.
class Udf {
 public:
  virtual ~Udf() = default;

  /// Called once before the first record, in the task thread.
  virtual void Open() {}

  /// Handles one record; may emit any number of records.
  virtual void OnRecord(const Record& record, Collector& out) = 0;

  /// Timer period; 0 disables OnTimer.
  virtual SimDuration TimerPeriod() const { return 0; }

  /// Called roughly every TimerPeriod() of wall-clock time (windowed UDFs
  /// emit their aggregates here).
  virtual void OnTimer(Collector& out) { (void)out; }

  /// How the engine measures task latency for this UDF (paper §II-A3).
  virtual LatencyMode latency_mode() const { return LatencyMode::kReadReady; }

  /// Called after the last record, in the task thread.
  virtual void Close() {}
};

/// Drives one source task.  Produce() is called in a loop from the source's
/// own thread; implementations pace themselves (e.g. sleep to match a rate
/// schedule) and return false when the stream ends.
class SourceFunction {
 public:
  virtual ~SourceFunction() = default;

  /// Emits zero or more records.  Returning false ends the source.
  ///
  /// Pace BEFORE emitting, never after: the engine ships output buffers
  /// (to an idle consumer, or on a deadline) only between Produce calls,
  /// so a record emitted before a sleep inside the same call waits out the
  /// whole sleep in its buffer.  A call that emits nothing marks the
  /// source idle, which ships its buffers even to a consumer that is still
  /// spinning (DESIGN.md §14 "Flush on idle").
  virtual bool Produce(Collector& out) = 0;
};

using UdfFactory = std::function<std::unique_ptr<Udf>(std::uint32_t subtask)>;
using SourceFunctionFactory =
    std::function<std::unique_ptr<SourceFunction>(std::uint32_t subtask)>;

}  // namespace esp::runtime
