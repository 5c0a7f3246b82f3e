// In-memory span tracing for the benchmark's traced mode (--trace 1).
//
// Spans are recorded by the benchmark's own code around its calls into each
// layer (engine runs, sampled Emit calls, UDF bodies, the simulator, the
// scaler/model replays).  Each span has a name whose prefix
// up to the first '.' is its layer, a start and end on the steady clock, the
// id of the span that caused it, and a record id for sampled records.
// Threads append to their own buffers; nothing is written until Finish(),
// which dumps every span as JSON lines and derives each layer's self time
// (span duration minus the part of it its child spans cover).
//
// Queue hops cross threads, so they are recorded as two marks -- "out" by
// the upstream UDF just before Emit and "in" by the downstream UDF on
// arrival -- and joined into hop spans by record id.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

constexpr std::int64_t kNoParent = -1;
constexpr std::int64_t kNoRecord = -1;

struct Span {
  std::int64_t id = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = kNoParent;
  std::int64_t record = kNoRecord;
};

/// Turns tracing on for this process.  Off by default: every recording
/// call below is then a cheap no-op, which is what the untraced runs time.
void Enable();
bool Enabled();

/// Allocates a span id (for a parent that is still open).
std::int64_t NewId();
/// Records a finished span; returns its id (`id` < 0 allocates one).
std::int64_t Record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                    std::int64_t parent = kNoParent, std::int64_t record = kNoRecord,
                    std::int64_t id = -1);
/// Marks one end of a queue hop on edge `edge` (0 = the first edge after
/// the source) for a sampled record.
void HopOut(int edge, std::int64_t record, std::int64_t at_ns, std::int64_t parent);
void HopIn(int edge, std::int64_t record, std::int64_t at_ns, std::int64_t parent);

/// RAII span on the current thread.
class Scope {
 public:
  explicit Scope(const char* name, std::int64_t parent = kNoParent,
                 std::int64_t record = kNoRecord);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  const char* name_;
  std::int64_t parent_;
  std::int64_t record_;
  std::int64_t id_;
  std::int64_t start_ns_;
};

/// Every span recorded so far (hops joined), across threads.  Call only
/// once the threads that record have been joined.
std::vector<Span> Collect();

/// Durations in ns of the collected spans named `name`.
std::vector<double> DurationsNs(const std::vector<Span>& spans, const std::string& name);

/// Makes span ids continue from `first` (a slice process keeps its ids
/// apart from other slices' in the shared trace file).
void StartIdsAt(std::int64_t first);

/// Appends the spans as JSON lines to `path` and returns the self time per
/// layer in ms.  Record waits (queue hops, source lag) are summed apart,
/// under "<layer>.wait", and do not count against their parent's self time.
std::map<std::string, double> Finish(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench::trace
