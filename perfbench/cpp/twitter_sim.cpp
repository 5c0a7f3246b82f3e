// `twitter_sim`: the fig8 TwitterSentiment simulation at 1/4 scale (a
// 1500 s diurnal replay with a single-topic burst and two latency
// constraints, elastic scaler on).  This is the paper's claim -- constraint
// fulfilment against task-hours -- and the one workload that runs `sim`.
//
// A run simulates seconds / 2.5 seeds derived from its own seed and pools
// their results (one seed's tail latency hinges on how the scaler met one
// burst), then simulates the first derived seed again: the simulation is
// bit-reproducible per seed, so the re-run must match it exactly.  The
// traced run also replays the control plane's public calls
// (ElasticScaler::Adjust, ComputeFlushDeadlines, EstimateSequenceLatency)
// on the first run's final graph, constraints and summary.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/batching.h"
#include "core/elastic_scaler.h"
#include "graph/sequence.h"
#include "qos/manager.h"
#include "sim/cluster.h"
#include "trace.h"
#include "workloads.h"
#include "workloads/twitter_job.h"

namespace perfbench {
namespace {

using esp::FromSeconds;
using esp::JobEdgeId;
using esp::JobGraph;
using esp::LatencyConstraint;
using esp::sim::RunResult;

constexpr std::size_t kMinBuilds = 101;
// Seeds per run come from --seconds, not from how fast the host simulates,
// so that the policy metrics are a function of the run's arguments and the
// code alone.  A seed takes about 2 s of wall time on a 4-vCPU VM.
constexpr double kSecondsPerSeed = 2.5;
constexpr int kReplays = 200;
const char* const kElastic[] = {"HotTopics", "Filter", "Sentiment"};

// fig8's default (1/4 scale) parameters.
esp::workloads::TwitterParams QuarterScale() {
  esp::workloads::TwitterParams p;
  const double scale = 0.25;
  p.tweet_sources = 4;
  p.base_rate *= scale;
  p.day_amplitude *= scale;
  p.burst_rate *= scale;
  p.total_duration = FromSeconds(1500);
  p.day_length = FromSeconds(1500.0 / 14.0);
  p.burst_start = FromSeconds(600);
  p.burst_duration = FromSeconds(30);
  p.elastic_max = 40;
  return p;
}

esp::sim::SimConfig Config(std::uint64_t seed) {
  esp::sim::SimConfig config;
  config.shipping = esp::ShippingStrategy::kAdaptive;
  config.scaler.enabled = true;
  config.workers = 40;
  config.seed = seed;
  return config;
}

// The constraints BuildTwitterSim registers, rebuilt on the final graph
// (edges are numbered in creation order: e1..e6 -> 0..5).
std::vector<LatencyConstraint> Constraints(const JobGraph& g,
                                           const esp::workloads::TwitterParams& p) {
  const auto e = [](std::uint32_t i) { return JobEdgeId{i}; };
  const esp::JobSequence hot(
      g, {esp::SequenceElement{e(3)}, esp::SequenceElement{g.VertexByName("HotTopics")},
          esp::SequenceElement{e(4)}, esp::SequenceElement{g.VertexByName("HotTopicsMerger")},
          esp::SequenceElement{e(5)}, esp::SequenceElement{g.VertexByName("Filter")}});
  return {LatencyConstraint{hot, p.hot_topics_bound, p.constraint_window, "hot-topics"},
          LatencyConstraint{esp::JobSequence::FromEdgeChain(g, {e(0), e(1), e(2)}),
                            p.sentiment_bound, p.constraint_window, "tweet-sentiment"}};
}

// Everything a repetition must reproduce bit for bit.
struct Fingerprint {
  double task_hours;
  double node_hours;
  std::uint64_t emitted;
  std::uint64_t delivered;
  std::uint64_t lost;
  std::size_t windows;
  double measured_sum;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintOf(const RunResult& r) {
  double measured = 0;
  for (const auto& a : r.adjustments) {
    for (const double m : a.measured_latency) measured += m;
  }
  return {r.task_hours, r.node_hours,         r.total_items_emitted, r.total_items_delivered,
          r.items_lost, r.windows.size(),     measured};
}

void ReplayControlPlane(const esp::workloads::TwitterSim& tw,
                        const esp::workloads::TwitterParams& params, std::int64_t root,
                        Report& report) {
  const JobGraph& graph = tw.sim->graph();
  const esp::GlobalSummary& summary = tw.sim->last_summary();
  const std::vector<LatencyConstraint> constraints = Constraints(graph, params);
  esp::ElasticScaler scaler(Config(0).scaler);
  std::vector<double> adjust, deadlines, estimate;
  std::size_t sink = 0;
  for (int i = 0; i < kReplays; ++i) {
    std::int64_t t0 = NowNs();
    sink += scaler.Adjust(graph, constraints, summary).size();
    std::int64_t t1 = NowNs();
    trace::Record("core.adjust", t0, t1, root);
    adjust.push_back(static_cast<double>(t1 - t0));

    t0 = NowNs();
    sink += esp::ComputeFlushDeadlines(graph, constraints, summary).size();
    t1 = NowNs();
    trace::Record("core.flush_deadlines", t0, t1, root);
    deadlines.push_back(static_cast<double>(t1 - t0));

    t0 = NowNs();
    for (const LatencyConstraint& c : constraints) {
      double latency = 0;
      sink += esp::EstimateSequenceLatency(summary, c.sequence, &latency) ? 1 : 0;
    }
    t1 = NowNs();
    trace::Record("model.estimate", t0, t1, root);
    estimate.push_back(static_cast<double>(t1 - t0));
  }
  report.Param("replay_results", static_cast<double>(sink));
  report.Metric("core.adjust_us", Median(adjust) * 1e-3, "us");
  report.Metric("core.flush_deadlines_us", Median(deadlines) * 1e-3, "us");
  report.Metric("model.estimate_us", Median(estimate) * 1e-3, "us");
}

}  // namespace

void RunTwitterSim(const RunConfig& config, Report& report) {
  esp::SetLogLevel(esp::LogLevel::kError);
  const esp::workloads::TwitterParams params = QuarterScale();
  report.Param("scale", "1/4 (fig8 default)");
  report.Param("simulated_s", esp::ToSeconds(params.total_duration));
  report.Param("workers", 40.0);
  report.Param("loop", "simulated open loop: diurnal rate plus a burst at 600 s");

  // One simulation per derived seed, then the first seed again (the
  // determinism check).
  std::vector<double> build_s, run_s;
  std::vector<RunResult> results;
  std::unique_ptr<esp::workloads::TwitterSim> first;  // kept for the replays
  const auto simulate = [&](std::uint64_t sim_seed) {
    std::int64_t t0 = NowNs();
    auto tw = std::make_unique<esp::workloads::TwitterSim>(
        esp::workloads::BuildTwitterSim(params, Config(sim_seed)));
    std::int64_t t1 = NowNs();
    trace::Record("sim.build", t0, t1, config.root_span);
    build_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    t0 = NowNs();
    RunResult result = tw->sim->Run(tw->duration);
    t1 = NowNs();
    trace::Record("sim.run", t0, t1, config.root_span);
    run_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    if (!first) first = std::move(tw);
    return result;
  };
  const auto seeds =
      static_cast<std::uint64_t>(std::max(1.0, std::floor(config.seconds / kSecondsPerSeed)));
  for (std::uint64_t k = 0; k < seeds; ++k) results.push_back(simulate(SplitMix(config.seed) + k));
  const RunResult again = simulate(SplitMix(config.seed));
  report.Check(FingerprintOf(again) == FingerprintOf(results[0]),
               "a second run of the first seed reproduces it bit for bit",
               again.total_items_emitted);
  // Set-up is cheap next to a run; time a few more builds for its median.
  // They come after the simulations, on a warm heap: timed first, in a
  // fresh process, set-up spread by 0.33 and 0.35 over two sets of ten
  // runs, against 0.23 here.
  while (build_s.size() < kMinBuilds) {
    const std::int64_t t0 = NowNs();
    const auto tw = esp::workloads::BuildTwitterSim(params, Config(config.seed));
    build_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  report.Param("seeds", static_cast<double>(results.size()));

  // Latency pools the adjustment intervals of every seed, and fulfilment is
  // the mean over seeds.
  std::vector<double> hot_topics, task_s, delivered_rps;
  double fulfilled_pct = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    const std::string tag = "seed " + std::to_string(i) + ": ";
    report.Attempted(r.total_items_emitted);
    report.Check(r.items_lost == 0, tag + "no item lost (" + std::to_string(r.items_lost) + ")",
                 r.items_lost);
    double window_emitted = 0, window_delivered = 0;
    for (const auto& w : r.windows) {
      const double span = esp::ToSeconds(w.end - w.start);
      window_emitted += w.effective_rate * span;
      window_delivered += w.delivered_rate * span;
    }
    const auto close = [](double a, std::uint64_t b) {
      return std::abs(a - static_cast<double>(b)) <= 0.5 + 1e-9 * static_cast<double>(b);
    };
    report.Check(close(window_emitted, r.total_items_emitted),
                 tag + "per-window emissions add up to RunResult::total_items_emitted",
                 r.total_items_emitted);
    report.Check(close(window_delivered, r.total_items_delivered),
                 tag + "per-window deliveries add up to RunResult::total_items_delivered",
                 r.total_items_delivered);
    report.Check(r.total_items_delivered > 0 && r.total_items_delivered <= r.total_items_emitted,
                 tag + "0 < delivered <= emitted", r.total_items_emitted);

    // Sequence latency of the hot-topics constraint per adjustment interval
    // (simulated time).  The tweet-sentiment constraint's tail is decided by
    // the handful of intervals inside the burst and swings by +-50 % from
    // seed to seed; its effect shows in constraint_met_pct.
    for (const auto& a : r.adjustments) {
      if (!a.measured_latency.empty() && a.measured_latency[0] >= 0) {
        hot_topics.push_back(a.measured_latency[0] * 1e6);
      }
    }
    const auto fulfilled =
        r.FulfillmentFraction({first->hot_topics_bound_seconds, first->sentiment_bound_seconds});
    fulfilled_pct += 50.0 * (fulfilled[0] + fulfilled[1]) / static_cast<double>(results.size());
    double hours = 0;
    for (const char* v : kElastic) {
      const auto it = r.task_hours_by_vertex.find(v);
      if (it != r.task_hours_by_vertex.end()) hours += it->second;
    }
    task_s.push_back(hours * 3600.0);
    delivered_rps.push_back(static_cast<double>(r.total_items_delivered) /
                            esp::ToSeconds(first->duration));
  }
  report.Metric("setup_s", Median(build_s), "s");
  // The simulated job's delivered tweets per simulated second.  How fast
  // the simulator itself runs follows the host's CPU speed, which drifts by
  // +-30 % over an hour on a shared machine: that is sim.speedup.
  report.Metric("throughput_rps", Median(delivered_rps), "1/s");
  report.Metric("latency_p50_us", Percentile(hot_topics, 0.50), "us");
  report.Metric("latency_p99_us", Percentile(hot_topics, 0.99), "us");
  report.Metric("constraint_met_pct", fulfilled_pct, "%");
  report.Metric("task_s", Median(task_s), "s");
  if (!config.traced) return;

  // Per-layer policy metrics of the first seed's run.
  const RunResult& r = results[0];
  std::vector<double> errors;
  double missing = 0;
  for (const auto& a : r.adjustments) {
    for (std::size_t k = 0; k < a.estimated_latency.size(); ++k) {
      if (a.estimated_latency[k] < 0) {
        ++missing;
      } else if (k < a.measured_latency.size() && a.measured_latency[k] > 0) {
        errors.push_back(100.0 * std::abs(a.estimated_latency[k] - a.measured_latency[k]) /
                         a.measured_latency[k]);
      }
    }
  }
  report.Metric("model.estimate_err_pct", Median(errors), "%");
  report.Metric("qos.estimates_missing", missing, "count");
  const std::uint32_t initial[] = {params.hot_topics_init, params.filters_init,
                                   params.sentiments_init};
  for (std::size_t i = 0; i < std::size(kElastic); ++i) {
    const char* v = kElastic[i];
    std::uint32_t previous = initial[i], ups = 0, downs = 0, p_max = previous;
    for (const auto& a : r.adjustments) {
      for (const auto& ps : a.parallelism) {
        if (ps.vertex != v) continue;
        if (ps.parallelism > previous) ++ups;
        if (ps.parallelism < previous) ++downs;
        previous = ps.parallelism;
        p_max = std::max(p_max, ps.parallelism);
      }
    }
    report.Metric(std::string("core.scale_ups.") + v, ups, "count");
    report.Metric(std::string("core.scale_downs.") + v, downs, "count");
    report.Metric(std::string("core.parallelism_max.") + v, p_max, "count");
  }
  double cpu = 0;
  for (const auto& w : r.windows) cpu += w.cpu_utilization;
  const double run_median = Median(run_s);
  report.Metric("sim.run_s", run_median, "s");
  report.Metric("sim.items_emitted", static_cast<double>(r.total_items_emitted), "count");
  report.Metric("sim.items_delivered", static_cast<double>(r.total_items_delivered), "count");
  report.Metric("sim.cpu_util_mean",
                r.windows.empty() ? 0.0 : 100.0 * cpu / static_cast<double>(r.windows.size()),
                "%");
  report.Metric("sim.speedup", esp::ToSeconds(first->duration) / run_median, "x");
  ReplayControlPlane(*first, params, config.root_span, report);
}

}  // namespace perfbench
