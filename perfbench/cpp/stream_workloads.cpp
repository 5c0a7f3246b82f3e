// `pipeline` (Src -> Map -> Snk) and `fanin` (2 sources -> 1 sink): the
// data-plane workloads.  Both run with default LocalEngineOptions and
// trivial UDFs, so nearly all time goes to the runtime's per-record path.
//
// A run has two kinds of phase, each a fresh engine:
//   * saturated -- a closed loop paced only by backpressure: the sources
//     emit as fast as the engine accepts records, for a fixed time;
//   * open loop -- the sources follow a fixed schedule (record i of a
//     source is due at origin + i / rate) whether or not the engine keeps
//     up, and latency runs from each record's due time to its sink arrival.
// The sink sums the values it receives; the sum must equal the closed form
// of what the sources emitted.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "graph/job_graph.h"
#include "runtime/engine.h"
#include "runtime/record.h"
#include "runtime/udf.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using esp::FromSeconds;
using esp::JobGraph;
using esp::WiringPattern;
using esp::runtime::Collector;
using esp::runtime::EngineResult;
using esp::runtime::LocalEngine;
using esp::runtime::Record;
using esp::runtime::SourceFunction;
using esp::runtime::Udf;

struct Item {
  std::uint64_t value;
  std::int64_t due_ns;  // open loop: when the source was due to emit it
};
static_assert(esp::runtime::IsInlinePayload<Item>);

// Traced runs sample one record in kSampleEvery per source (by sequence
// number, so every stage agrees on which records are sampled).
constexpr std::uint64_t kSampleEvery = 1024;
constexpr int kSourceShift = 40;  // record id = source index << 40 | sequence
// Benchmark-side latency bound and window for constraint_met_pct in the
// open-loop phase (no constraint is registered with the engine, so the
// adaptive flush deadline stays at its default).  Set well above the ~50 us
// a healthy engine needs, so that only a backlog -- not the millisecond
// pauses a busy hypervisor imposes -- fails a window.
constexpr std::int64_t kBoundNs = 5'000'000;
constexpr std::int64_t kWindowNs = 10'000'000;
// Open-loop phases with more stolen CPU time than this are set aside.
constexpr double kMaxStolen = 0.01;
constexpr double kSaturatedS = 0.2;
constexpr double kOpenLoopS = 0.25;
// Offered load of the open-loop phase, all sources together.  About a
// quarter of the engine's saturated throughput on a 4-vCPU VM (~6 M rec/s
// for both shapes): at half, the host's slow periods push the open loop
// close to saturation and its p99 swings far past any regression bound.
constexpr double kOpenLoopRps = 1.5e6;
// Saturated-phase throughput marks: one clock read per this many records.
constexpr std::uint64_t kMarkEvery = 64;

bool Sampled(std::uint64_t id) { return (id & ((1ULL << kSourceShift) - 1)) % kSampleEvery == 0; }

enum class Shape { kPipeline, kFanin };

// Everything one engine run's sources and sink share.  Each field has one
// writer thread; the benchmark reads them after Run() joined every thread.
struct Phase {
  bool open_loop = false;
  bool traced = false;
  std::int64_t span = trace::kNoParent;  // the engine run's span
  double duration_s = 0;
  double rate_per_source = 0;
  // Shared start of the schedule: the first source to run sets it.
  std::atomic<std::int64_t> origin_ns{0};

  struct SourceTally {
    std::uint64_t offset = 0;
    std::uint64_t emitted = 0;
  };
  std::vector<SourceTally> sources;

  // Sink side.
  std::int64_t first_delivery_ns = 0;
  std::uint64_t delivered = 0;
  std::uint64_t sum = 0;
  std::int64_t mark_last_ns = 0;
  std::uint64_t mark_last_n = 0;
  Histogram latency;
  LatencyWindows windows{0, kWindowNs};
  std::int64_t last_arrival_ns = 0;
  std::int64_t max_gap_ns = 0;

  std::int64_t Origin() {
    std::int64_t origin = origin_ns.load(std::memory_order_acquire);
    if (origin != 0) return origin;
    const std::int64_t now = NowNs();
    return origin_ns.compare_exchange_strong(origin, now, std::memory_order_acq_rel) ? now
                                                                                    : origin;
  }
};

class StreamSource final : public SourceFunction {
 public:
  StreamSource(Phase* phase, std::uint32_t index) : phase_(phase), index_(index) {}

  bool Produce(Collector& out) override {
    if (origin_ == 0) {
      origin_ = phase_->Origin();
      end_ns_ = origin_ + static_cast<std::int64_t>(phase_->duration_s * 1e9);
      total_ = static_cast<std::uint64_t>(phase_->duration_s * phase_->rate_per_source);
      period_ns_ = phase_->open_loop ? 1e9 / phase_->rate_per_source : 0.0;
    }
    if (phase_->open_loop) {
      if (next_ >= total_) return Finish();
      const std::int64_t due = origin_ + static_cast<std::int64_t>(
                                             static_cast<double>(next_) * period_ns_);
      if (due > NowNs()) return true;  // not due yet: poll again
      Emit(out, due);
      return true;
    }
    if (next_ % 256 == 0 && NowNs() >= end_ns_) return Finish();
    Emit(out, 0);
    return true;
  }

 private:
  void Emit(Collector& out, std::int64_t due) {
    const std::uint64_t id = (static_cast<std::uint64_t>(index_) << kSourceShift) | next_;
    Record record = esp::runtime::MakeRecord(Item{offset() + next_, due}, id);
    ++next_;
    if (!phase_->traced || !Sampled(id)) {
      out.Emit(std::move(record));
      return;
    }
    const auto rid = static_cast<std::int64_t>(id);
    const std::int64_t t0 = NowNs();
    if (phase_->open_loop) {
      trace::Record("runtime.source_lag", due, t0, phase_->span, rid);
      trace::HopOut(0, rid, t0, phase_->span);
      out.Emit(std::move(record));
    } else {
      out.Emit(std::move(record));
      trace::Record("runtime.emit", t0, NowNs(), phase_->span, rid);
    }
  }

  std::uint64_t offset() const { return phase_->sources[index_].offset; }

  bool Finish() {
    phase_->sources[index_].emitted = next_;
    return false;
  }

  Phase* phase_;
  std::uint32_t index_;
  std::int64_t origin_ = 0;
  std::int64_t end_ns_ = 0;
  std::uint64_t total_ = 0;
  double period_ns_ = 0;
  std::uint64_t next_ = 0;
};

// The cheapest non-trivial map: v -> 3v + 1.
class MapUdf final : public Udf {
 public:
  explicit MapUdf(Phase* phase) : phase_(phase) {}
  void OnRecord(const Record& r, Collector& out) override {
    const Item& in = esp::runtime::Get<Item>(r);
    if (phase_->traced && phase_->open_loop && Sampled(r.key)) {
      const std::int64_t now = NowNs();
      trace::HopIn(0, static_cast<std::int64_t>(r.key), now, phase_->span);
      trace::HopOut(1, static_cast<std::int64_t>(r.key), now, phase_->span);
    }
    out.Emit(esp::runtime::MakeRecord(Item{in.value * 3 + 1, in.due_ns}, r.key));
  }

 private:
  Phase* phase_;
};

class SumSink final : public Udf {
 public:
  SumSink(Phase* phase, int in_edge) : phase_(phase), in_edge_(in_edge) {}
  void OnRecord(const Record& r, Collector&) override {
    const Item& in = esp::runtime::Get<Item>(r);
    Phase& p = *phase_;
    p.sum += in.value;
    ++p.delivered;
    if (p.open_loop) {
      const std::int64_t now = NowNs();
      if (p.traced && Sampled(r.key)) {
        trace::HopIn(in_edge_, static_cast<std::int64_t>(r.key), now, p.span);
      }
      if (p.delivered == 1) {
        p.first_delivery_ns = now;
      } else {
        p.max_gap_ns = std::max(p.max_gap_ns, now - p.last_arrival_ns);
      }
      p.last_arrival_ns = now;
      p.latency.Add(now - in.due_ns);
      p.windows.Add(in.due_ns - p.origin_ns.load(std::memory_order_relaxed), now - in.due_ns);
    } else if (p.delivered % kMarkEvery == 1) {
      const std::int64_t now = NowNs();
      if (p.delivered == 1) p.first_delivery_ns = now;
      p.mark_last_ns = now;
      p.mark_last_n = p.delivered;
    }
  }

 private:
  Phase* phase_;
  int in_edge_;
};

std::uint64_t Triangle(std::uint64_t n) { return n % 2 == 0 ? (n / 2) * (n - 1) : n * ((n - 1) / 2); }

// Closed form of the sink's sum: source s emits offset_s + i for i < n_s;
// the pipeline's map turns each value v into 3v + 1.
std::uint64_t ExpectedSum(Shape shape, const Phase& phase) {
  std::uint64_t sum = 0;
  for (const auto& s : phase.sources) {
    const std::uint64_t raw = s.emitted * s.offset + Triangle(s.emitted);
    sum += shape == Shape::kPipeline ? 3 * raw + s.emitted : raw;
  }
  return sum;
}

std::uint32_t SourceCount(Shape shape) { return shape == Shape::kPipeline ? 1 : 2; }

JobGraph BuildGraph(Shape shape) {
  JobGraph g;
  const std::uint32_t n = SourceCount(shape);
  const auto src = g.AddVertex({.name = "Src", .parallelism = n, .max_parallelism = n});
  const auto snk = g.AddVertex({.name = "Snk", .parallelism = 1, .max_parallelism = 1});
  if (shape == Shape::kPipeline) {
    const auto map = g.AddVertex({.name = "Map", .parallelism = 1, .max_parallelism = 1});
    g.Connect(src, map, WiringPattern::kRoundRobin);
    g.Connect(map, snk, WiringPattern::kRoundRobin);
  } else {
    g.Connect(src, snk, WiringPattern::kRoundRobin);
  }
  return g;
}

struct PhaseOutcome {
  double stolen = 0;  // share of the machine's CPU time the hypervisor took
  double setup_s = 0;
  double throughput_rps = 0;
  double wall_ns_per_record = 0;
  double cpu_ns_per_record = 0;
  double ctx_per_krec = 0;
  double task_s = 0;
  Histogram latency;  // open loop: due time -> sink arrival, ns
  std::size_t windows = 0;
  std::size_t windows_met = 0;
  double max_gap_ms = 0;
  EngineResult result;
};

PhaseOutcome RunPhase(Shape shape, bool open_loop, bool traced, double seconds,
                      std::uint64_t seed, std::uint32_t round, const RunConfig& config,
                      Report& report) {
  Phase phase;
  phase.open_loop = open_loop;
  phase.traced = traced;
  phase.duration_s = seconds;
  phase.rate_per_source = kOpenLoopRps / SourceCount(shape);
  for (std::uint32_t s = 0; s < SourceCount(shape); ++s) {
    phase.sources.push_back(
        {SplitMix(seed * 1'000'000 + config.slice * 1000 + round * 10 + s) % (1ULL << 24), 0});
  }
  phase.span = traced ? trace::NewId() : trace::kNoParent;
  const int sink_edge = shape == Shape::kPipeline ? 1 : 0;

  const StealSnapshot steal0 = ReadSteal();
  const double cpu0 = ProcessCpuSeconds();
  const std::int64_t ctx0 = ProcessContextSwitches();
  const std::int64_t t_construct = NowNs();
  PhaseOutcome o;
  {
    LocalEngine engine(BuildGraph(shape));
    engine.SetSource("Src", [&phase](std::uint32_t subtask) {
      return std::make_unique<StreamSource>(&phase, subtask);
    });
    if (shape == Shape::kPipeline) {
      engine.SetUdf("Map", [&phase](std::uint32_t) { return std::make_unique<MapUdf>(&phase); });
    }
    engine.SetUdf("Snk", [&phase, sink_edge](std::uint32_t) {
      return std::make_unique<SumSink>(&phase, sink_edge);
    });
    o.result = engine.Run(FromSeconds(seconds + 60));
  }
  const std::int64_t t_end = NowNs();
  o.stolen = StolenFraction(steal0);
  const double cpu = ProcessCpuSeconds() - cpu0;
  const auto ctx = static_cast<double>(ProcessContextSwitches() - ctx0);
  trace::Record(open_loop ? "runtime.engine_open_loop" : "runtime.engine_saturated", t_construct,
                t_end, config.root_span, trace::kNoRecord, phase.span);

  std::uint64_t emitted = 0;
  for (const auto& s : phase.sources) emitted += s.emitted;
  const EngineResult& r = o.result;
  const std::string tag = std::string(open_loop ? "open-loop" : "saturated") + " phase " +
                          std::to_string(round) + ": ";
  report.Attempted(emitted);
  report.Check(r.clean(), tag + "engine run clean " + r.first_failure(), emitted);
  report.Check(r.records_emitted == emitted && r.records_delivered == emitted &&
                   phase.delivered == emitted,
               tag + "emitted == delivered (" + std::to_string(emitted) + " offered, " +
                   std::to_string(phase.delivered) + " at the sink)",
               std::max(emitted, phase.delivered) - std::min(emitted, phase.delivered));
  report.Check(r.records_shed == 0 && r.records_redelivered == 0,
               tag + "no record shed or redelivered", r.records_shed + r.records_redelivered);
  report.Check(phase.sum == ExpectedSum(shape, phase), tag + "sink sum equals closed form",
               phase.delivered);
  report.Check(emitted > 0, tag + "sources emitted records", 1);

  o.setup_s = static_cast<double>(phase.first_delivery_ns - t_construct) * 1e-9;
  // No vertex is elastic here, so task_s integrates every task: both shapes
  // run three (Src, Map, Snk / two Src subtasks and Snk).
  o.task_s = static_cast<double>(t_end - t_construct) * 1e-9 * 3.0;
  o.cpu_ns_per_record = cpu * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, emitted));
  o.ctx_per_krec = ctx * 1e3 / static_cast<double>(std::max<std::uint64_t>(1, emitted));
  if (open_loop) {
    o.latency = phase.latency;
    o.windows = static_cast<std::size_t>(seconds * 1e9 / static_cast<double>(kWindowNs));
    o.windows_met = phase.windows.Met(o.windows, kBoundNs);
    o.max_gap_ms = static_cast<double>(phase.max_gap_ns) * 1e-6;
    if (phase.delivered > 1) {
      o.throughput_rps = static_cast<double>(phase.delivered - 1) * 1e9 /
                         static_cast<double>(phase.last_arrival_ns - phase.first_delivery_ns);
    }
  } else if (phase.mark_last_n > 1) {
    o.throughput_rps = static_cast<double>(phase.mark_last_n - 1) * 1e9 /
                       static_cast<double>(phase.mark_last_ns - phase.first_delivery_ns);
    o.wall_ns_per_record = 1e9 / o.throughput_rps;
  }
  return o;
}

// The single-threaded baseline: the same source, map and sink code driven
// by a plain loop, one record at a time, with no engine in between.
class DirectCollector final : public Collector {
 public:
  DirectCollector(Udf* next, Collector* next_out) : next_(next), next_out_(next_out) {}
  void Emit(Record record, std::uint32_t) override { next_->OnRecord(record, *next_out_); }

 private:
  Udf* next_;
  Collector* next_out_;
};

class NullCollector final : public Collector {
 public:
  void Emit(Record, std::uint32_t) override {}
};

double LoopNsPerRecord(Shape shape, std::uint64_t seed, double seconds, Report& report) {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    Phase phase;
    phase.duration_s = seconds;
    for (std::uint32_t s = 0; s < SourceCount(shape); ++s) {
      phase.sources.push_back({SplitMix(seed + 7 * s + 1) % (1ULL << 24), 0});
    }
    SumSink sink(&phase, 0);
    MapUdf map(&phase);
    NullCollector none;
    DirectCollector to_sink(&sink, &none);
    DirectCollector to_map(&map, &to_sink);
    Collector& first = shape == Shape::kPipeline ? static_cast<Collector&>(to_map) : to_sink;
    std::vector<std::unique_ptr<StreamSource>> sources;
    for (std::uint32_t s = 0; s < SourceCount(shape); ++s) {
      sources.push_back(std::make_unique<StreamSource>(&phase, s));
    }
    const std::int64_t t0 = NowNs();
    for (bool more = true; more;) {
      more = false;
      for (auto& s : sources) more = s->Produce(first) || more;
    }
    const std::int64_t t1 = NowNs();
    report.Check(phase.sum == ExpectedSum(shape, phase), "loop baseline sum equals closed form",
                 phase.delivered);
    samples.push_back(static_cast<double>(t1 - t0) /
                      static_cast<double>(std::max<std::uint64_t>(1, phase.delivered)));
  }
  return Median(samples);
}

void RunStream(Shape shape, const RunConfig& config, Report& report) {
  // The end-to-end metrics come from open-loop phases only.  Saturated
  // (closed-loop) throughput follows the host's speed: on a shared 4-vCPU
  // VM, six consecutive 20 s runs of 40 slices each gave 3.7 to 6.4 M rec/s
  // on pipeline, whatever statistic folded the slices -- wider than any
  // regression bound may be.  So it is the per-layer runtime.saturated_rps:
  // a traced slice starts with an untraced and a traced saturated phase
  // (the pair gives the tracing overhead).
  const double saturated_s = config.traced ? 2 * kSaturatedS : 0.0;
  const auto rounds = static_cast<std::uint32_t>(
      std::max(1.0, std::floor((config.seconds - saturated_s) / kOpenLoopS)));
  report.Param("open_loop_phases_per_slice", static_cast<double>(rounds));
  report.Param("open_loop_phase_s", kOpenLoopS);
  report.Param("saturated_phase_s", kSaturatedS);
  report.Param("open_loop_rps", kOpenLoopRps);
  report.Param("sources", static_cast<double>(SourceCount(shape)));
  report.Param("latency_bound_ms", static_cast<double>(kBoundNs) * 1e-6);
  report.Param("window_ms", static_cast<double>(kWindowNs) * 1e-6);
  report.Param("loop", "open loop at a fixed rate; traced: saturated closed loop first");

  double task_s = 0, max_gap_ms = 0;
  EngineResult totals;
  std::uint32_t engines = 0;
  const auto absorb = [&](const PhaseOutcome& o) {
    task_s += o.task_s;
    totals.rescales += o.result.rescales;
    totals.chain_forms += o.result.chain_forms;
    totals.chain_breaks += o.result.chain_breaks;
    totals.records_emitted += o.result.records_emitted;
    totals.records_delivered += o.result.records_delivered;
    totals.records_redelivered += o.result.records_redelivered;
    totals.records_shed += o.result.records_shed;
    totals.restarts += o.result.restarts;
    ++engines;
  };

  PhaseOutcome saturated;
  double traced_saturated_rps = 0;
  if (config.traced) {
    saturated = RunPhase(shape, false, false, kSaturatedS, config.seed, 0, config, report);
    absorb(saturated);
    const PhaseOutcome t = RunPhase(shape, false, true, kSaturatedS, config.seed, 1, config, report);
    absorb(t);
    traced_saturated_rps = t.throughput_rps;
  }
  std::vector<PhaseOutcome> open_loop;
  for (std::uint32_t round = 0; round < rounds; ++round) {
    open_loop.push_back(
        RunPhase(shape, true, config.traced, kOpenLoopS, config.seed, 2 + round, config, report));
    absorb(open_loop.back());
    max_gap_ms = std::max(max_gap_ms, open_loop.back().max_gap_ms);
  }

  // Phases during which the hypervisor stole CPU time from the machine
  // measure the host, not the engine: a slice's latency quantiles come from
  // the pooled records of its clean phases when there are any.  The run
  // reports the median over slices, so a stall shows once it hits most of
  // them.  (Pooling the records of the whole run instead spread p99 by 0.31
  // over eight runs, against 0.09 for the median: a few slices with a
  // multi-millisecond host stall decide a pooled p99.)
  std::vector<const PhaseOutcome*> clean;
  for (const PhaseOutcome& o : open_loop) {
    if (o.stolen <= kMaxStolen) clean.push_back(&o);
  }
  if (clean.empty()) {
    for (const PhaseOutcome& o : open_loop) clean.push_back(&o);
  }
  std::vector<double> setup, delivered_rps;
  Histogram latency;
  std::size_t windows = 0, met = 0;
  for (const PhaseOutcome* o : clean) {
    setup.push_back(o->setup_s);
    delivered_rps.push_back(o->throughput_rps);
    latency.Merge(o->latency);
    windows += o->windows;
    met += o->windows_met;
  }
  report.Metric("runtime.stolen_phases_pct",
                100.0 * static_cast<double>(open_loop.size() - clean.size()) /
                    static_cast<double>(open_loop.size()),
                "%");

  report.Metric("setup_s", Median(setup), "s");
  // Set by kOpenLoopRps while the engine keeps up; it drops only when the
  // engine's capacity falls below the offered rate.
  report.Metric("throughput_rps", Median(delivered_rps), "1/s");
  report.Metric("latency_p50_us", latency.Quantile(0.50) * 1e-3, "us");
  report.Metric("latency_p99_us", latency.Quantile(0.99) * 1e-3, "us");
  report.Metric("constraint_met_pct",
                100.0 * static_cast<double>(met) / static_cast<double>(std::max<std::size_t>(1, windows)),
                "%");
  report.Metric("task_s", task_s, "s");
  if (!config.traced) return;

  const std::vector<trace::Span> spans = trace::Collect();
  const auto quantile_of = [&](const char* name, double q, double scale) {
    return Percentile(trace::DurationsNs(spans, name), q) * scale;
  };
  report.Metric("runtime.emit_ns_p50", quantile_of("runtime.emit", 0.50, 1.0), "ns");
  report.Metric("runtime.emit_ns_p99", quantile_of("runtime.emit", 0.99, 1.0), "ns");
  for (int e = 0; e < (shape == Shape::kPipeline ? 2 : 1); ++e) {
    const std::string hop = "runtime.hop.e" + std::to_string(e);
    const std::string suffix = ".e" + std::to_string(e);
    report.Metric("runtime.hop_us_p50" + suffix, quantile_of(hop.c_str(), 0.50, 1e-3), "us");
    report.Metric("runtime.hop_us_p99" + suffix, quantile_of(hop.c_str(), 0.99, 1e-3), "us");
  }
  report.Metric("runtime.source_lag_p99_us", quantile_of("runtime.source_lag", 0.99, 1e-3),
                "us");
  const double loop_ns = LoopNsPerRecord(shape, config.seed, 0.05, report);
  report.Metric("workloads.loop_ns_per_record", loop_ns, "ns");
  report.Metric("runtime.ns_per_record", saturated.wall_ns_per_record - loop_ns, "ns");
  report.Metric("runtime.cpu_ns_per_record", saturated.cpu_ns_per_record, "ns");
  report.Metric("runtime.ctx_switches_per_krec", saturated.ctx_per_krec, "count");
  report.Metric("runtime.delivery_gap_max_ms", max_gap_ms, "ms");
  report.Metric("runtime.rescales", totals.rescales, "count");
  report.Metric("runtime.epochs", engines + totals.rescales + totals.restarts, "count");
  report.Metric("runtime.chain_forms", static_cast<double>(totals.chain_forms), "count");
  report.Metric("runtime.chain_breaks", static_cast<double>(totals.chain_breaks), "count");
  report.Metric("runtime.records_emitted", static_cast<double>(totals.records_emitted), "count");
  report.Metric("runtime.records_delivered", static_cast<double>(totals.records_delivered),
                "count");
  report.Metric("runtime.records_redelivered", static_cast<double>(totals.records_redelivered),
                "count");
  report.Metric("runtime.records_shed", static_cast<double>(totals.records_shed), "count");
  const double untraced = saturated.throughput_rps;
  report.Metric("runtime.saturated_rps", untraced, "1/s");
  report.Metric("trace.overhead_pct",
                untraced > 0 ? 100.0 * (untraced - traced_saturated_rps) / untraced : 0.0, "%");
}

}  // namespace

void RunPipeline(const RunConfig& config, Report& report) {
  RunStream(Shape::kPipeline, config, report);
}

void RunFanin(const RunConfig& config, Report& report) { RunStream(Shape::kFanin, config, report); }

}  // namespace perfbench
