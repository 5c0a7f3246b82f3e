// Figure 5 reproduction: the solution-candidate surface of the Rebalance
// optimisation problem for three job vertices (paper §IV-D).
//
// For a fixed wait budget W_hat, the plotted surface is the set of
// parallelism triples (p1, p2, p3) where p3 is MINIMAL such that
// W(p1, p2, p3) <= W_hat.  The total parallelism F = p1 + p2 + p3 varies
// across the surface and admits multiple optima; Rebalance's gradient
// descent must land on a total matching the exhaustive optimum.
//
// Output: the surface as (p1, p2) -> p3 rows with F, the exhaustive
// optimum, and Rebalance's pick.
#include <cmath>
#include <exception>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "core/rebalance.h"
#include "model/latency_model.h"

using namespace esp;

namespace {

// Three-vertex synthetic summary: distinct loads so the surface is skewed.
struct Setup {
  JobGraph graph;
  GlobalSummary summary;

  Setup() {
    const JobVertexId src =
        graph.AddVertex({.name = "Src", .parallelism = 1, .max_parallelism = 1});
    JobVertexId prev = src;
    const double lambdas[3] = {400.0, 900.0, 250.0};
    const double services[3] = {0.004, 0.0015, 0.008};
    const double cvs[3] = {1.0, 1.3, 0.8};
    for (int i = 0; i < 3; ++i) {
      const JobVertexId v = graph.AddVertex({.name = std::string("V").append(std::to_string(i + 1)),
                                             .parallelism = 8,
                                             .min_parallelism = 1,
                                             .max_parallelism = 60,
                                             .elastic = true});
      graph.Connect(prev, v);
      VertexSummary vs;
      vs.service_mean = services[i];
      vs.service_cv = cvs[i];
      vs.arrival_rate = lambdas[i];
      vs.interarrival_mean = 1.0 / lambdas[i];
      vs.interarrival_cv = 1.0;
      vs.measured_parallelism = 8;
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

}  // namespace

static int Run() {
  std::printf("FIG5: Rebalance solution-candidate surface, 3 job vertices\n");
  const Setup setup;
  const LatencyModel model =
      LatencyModel::Build(setup.graph, setup.summary, setup.Sequence(), {});
  const double w_hat = 0.010;  // 10 ms total queue-wait budget

  const auto& v = model.vertices();
  bench::Section("surface: minimal p3 for each (p1, p2) with W <= 10 ms");
  std::printf("#%4s %4s %4s %6s %12s\n", "p1", "p2", "p3", "F", "W[ms]");

  std::uint64_t best_f = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t p1 = v[0].p_min; p1 <= v[0].p_max; ++p1) {
    for (std::uint32_t p2 = v[1].p_min; p2 <= v[1].p_max; ++p2) {
      const double w1 = v[0].Wait(p1);
      const double w2 = v[1].Wait(p2);
      if (!std::isfinite(w1) || !std::isfinite(w2) || w1 + w2 > w_hat) continue;
      const auto p3 = v[2].MinParallelismForWait(w_hat - w1 - w2);
      if (!p3 || *p3 > v[2].p_max) continue;
      const double total_wait = w1 + w2 + v[2].Wait(*p3);
      const std::uint64_t f = p1 + p2 + *p3;
      best_f = std::min(best_f, f);
      // Print a decimated surface (every 4th row in each axis) to keep the
      // output readable; the optimum search above uses every point.
      if (p1 % 4 == 0 && p2 % 4 == 0) {
        std::printf("%5u %4u %4u %6llu %12.3f\n", p1, p2, *p3,
                    static_cast<unsigned long long>(f), total_wait * 1e3);
      }
    }
  }

  bench::Section("optima");
  const RebalanceResult res = Rebalance(model, w_hat);
  std::uint64_t rebalance_f = 0;
  for (std::uint32_t p : res.parallelism) rebalance_f += p;
  std::printf("exhaustive surface optimum: F = %llu\n",
              static_cast<unsigned long long>(best_f));
  std::printf("Rebalance pick: p = (%u, %u, %u), F = %llu, W = %.3f ms, %u iterations\n",
              res.parallelism[0], res.parallelism[1], res.parallelism[2],
              static_cast<unsigned long long>(rebalance_f), res.predicted_wait * 1e3,
              res.iterations);
  std::printf("\npaper shape: multiple optima exist on the surface; the gradient\n"
              "descent with variable step size finds a minimum-F candidate\n");
  return 0;
}

// A throw escaping main is std::terminate with no diagnostic; surface the
// error instead (bugprone-exception-escape).
int main() {
  try {
    return Run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "fatal: unknown exception\n");
    return 1;
  }
}
