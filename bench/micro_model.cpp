// Micro-benchmarks (google-benchmark) for the latency model and the
// Rebalance gradient descent, including the paper's §IV-D complexity claim:
// the variable step size needs far fewer iterations than unit steps, making
// Rebalance cheap even for huge maximum parallelism m.
#include <benchmark/benchmark.h>

#include "core/rebalance.h"
#include "core/scale_reactively.h"
#include "model/latency_model.h"
#include "qos/manager.h"

namespace esp {
namespace {

// Linear pipeline with n identical-shape (but load-skewed) worker vertices.
struct ModelFixture {
  JobGraph graph;
  GlobalSummary summary;

  ModelFixture(int n, std::uint32_t p_max) {
    JobVertexId prev =
        graph.AddVertex({.name = "Src", .parallelism = 1, .max_parallelism = 1});
    for (int i = 0; i < n; ++i) {
      const JobVertexId v = graph.AddVertex({.name = std::string("V").append(std::to_string(i)),
                                             .parallelism = 4,
                                             .min_parallelism = 1,
                                             .max_parallelism = p_max,
                                             .elastic = true});
      graph.Connect(prev, v);
      VertexSummary vs;
      vs.service_mean = 0.002 + 0.0005 * (i % 5);
      vs.service_cv = 0.8;
      vs.arrival_rate = 300.0 + 40.0 * (i % 7);
      vs.interarrival_mean = 1.0 / vs.arrival_rate;
      vs.interarrival_cv = 1.0;
      vs.measured_parallelism = 4;
      summary.vertices[Value(v)] = vs;
      prev = v;
    }
    const JobVertexId sink =
        graph.AddVertex({.name = "Sink", .parallelism = 1, .max_parallelism = 1});
    graph.Connect(prev, sink);
  }

  JobSequence Sequence() const {
    std::vector<JobEdgeId> edges;
    for (std::uint32_t e = 0; e < graph.edge_count(); ++e) edges.push_back(JobEdgeId{e});
    return JobSequence::FromEdgeChain(graph, edges);
  }
};

void BM_KingmanWait(benchmark::State& state) {
  double rho = 0.1;
  for (auto _ : state) {
    rho = rho >= 0.95 ? 0.1 : rho + 0.01;
    benchmark::DoNotOptimize(KingmanWait(rho, 0.002, 1.1, 0.7));
  }
}
BENCHMARK(BM_KingmanWait);

void BM_LatencyModelBuild(benchmark::State& state) {
  const ModelFixture fixture(static_cast<int>(state.range(0)), 512);
  const JobSequence seq = fixture.Sequence();
  for (auto _ : state) {
    benchmark::DoNotOptimize(LatencyModel::Build(fixture.graph, fixture.summary, seq, {}));
  }
}
BENCHMARK(BM_LatencyModelBuild)->Arg(2)->Arg(8)->Arg(32);

void BM_RebalanceVariableStep(benchmark::State& state) {
  const ModelFixture fixture(static_cast<int>(state.range(0)),
                             static_cast<std::uint32_t>(state.range(1)));
  const LatencyModel model =
      LatencyModel::Build(fixture.graph, fixture.summary, fixture.Sequence(), {});
  std::uint32_t iterations = 0;
  for (auto _ : state) {
    const RebalanceResult res = Rebalance(model, 0.0005);
    iterations = res.iterations;
    benchmark::DoNotOptimize(res);
  }
  state.counters["iterations"] = iterations;
}
BENCHMARK(BM_RebalanceVariableStep)
    ->Args({2, 512})
    ->Args({8, 512})
    ->Args({8, 4096})
    ->Args({32, 4096});

void BM_RebalanceUnitStep(benchmark::State& state) {
  const ModelFixture fixture(static_cast<int>(state.range(0)),
                             static_cast<std::uint32_t>(state.range(1)));
  const LatencyModel model =
      LatencyModel::Build(fixture.graph, fixture.summary, fixture.Sequence(), {});
  std::uint32_t iterations = 0;
  for (auto _ : state) {
    const RebalanceResult res = RebalanceUnitStep(model, 0.0005);
    iterations = res.iterations;
    benchmark::DoNotOptimize(res);
  }
  state.counters["iterations"] = iterations;
}
BENCHMARK(BM_RebalanceUnitStep)->Args({2, 512})->Args({8, 512})->Args({8, 4096});

void BM_ScaleReactively(benchmark::State& state) {
  ModelFixture fixture(static_cast<int>(state.range(0)), 512);
  const LatencyConstraint constraint{fixture.Sequence(), FromMillis(20), FromSeconds(10),
                                     "bench"};
  const std::vector<LatencyConstraint> constraints{constraint};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ScaleReactively(fixture.graph, constraints, fixture.summary, {}));
  }
}
BENCHMARK(BM_ScaleReactively)->Arg(2)->Arg(8)->Arg(32);

void BM_MergeSummaries(benchmark::State& state) {
  // One partial summary per manager, each covering `vertices` vertices.
  const int managers = 8;
  const int vertices = static_cast<int>(state.range(0));
  std::vector<PartialSummary> partials(managers);
  for (int m = 0; m < managers; ++m) {
    for (int v = 0; v < vertices; ++v) {
      VertexSummary vs;
      vs.service_mean = 0.002;
      vs.arrival_rate = 100 + v;
      partials[m].vertices[v] = {vs, 4};
      partials[m].edges[v] = {EdgeSummary{0.01, 0.002}, 16};
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeSummaries(partials));
  }
}
BENCHMARK(BM_MergeSummaries)->Arg(8)->Arg(64);

void BM_PartialSummary(benchmark::State& state) {
  QosManager manager(5);
  const int tasks = static_cast<int>(state.range(0));
  QosReport report;
  report.time = FromSeconds(1);
  for (int t = 0; t < tasks; ++t) {
    TaskMeasurement m;
    m.service_mean = 0.002;
    m.interarrival_mean = 0.01;
    m.items = 100;
    report.tasks.emplace_back(TaskId{JobVertexId{static_cast<std::uint32_t>(t % 8)},
                                     static_cast<std::uint32_t>(t / 8)},
                              m);
  }
  for (int i = 0; i < 5; ++i) manager.Ingest(report);
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.MakePartialSummary(FromSeconds(2)));
  }
}
BENCHMARK(BM_PartialSummary)->Arg(64)->Arg(512);

}  // namespace
}  // namespace esp

BENCHMARK_MAIN();
