#include "model/latency_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace esp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Smallest parallelism at which the vertex's utilization drops below 1.
std::uint32_t MinStableParallelism(double b) {
  const double floor_b = std::floor(b);
  std::uint32_t p = static_cast<std::uint32_t>(std::max(0.0, floor_b)) + 1;
  // floor(b) + 1 <= b can happen when b is integral; bump once more.
  if (static_cast<double>(p) <= b) ++p;
  return std::max<std::uint32_t>(p, 1);
}

}  // namespace

double KingmanWait(double rho, double service_mean, double cva, double cvs) {
  if (rho >= 1.0) return kInf;
  if (rho <= 0.0 || service_mean <= 0.0) return 0.0;
  return (rho * service_mean / (1.0 - rho)) * ((cva * cva + cvs * cvs) / 2.0);
}

double VertexModel::Wait(std::uint32_t p_star) const {
  const double p = static_cast<double>(p_star);
  if (p <= b) return kInf;
  if (a <= 0.0) return 0.0;
  return a / (p - b);
}

double VertexModel::Delta(std::uint32_t p) const {
  const double w0 = Wait(p);
  const double w1 = Wait(p + 1);
  if (std::isinf(w0)) return std::isinf(w1) ? -kInf : -kInf;
  return w1 - w0;
}

std::optional<std::uint32_t> VertexModel::MinParallelismForWait(double w) const {
  if (w <= 0.0) return std::nullopt;
  if (a <= 0.0) return MinStableParallelism(b);
  const double p = a / w + b;  // the paper's P_W before rounding
  if (p >= static_cast<double>(std::numeric_limits<std::uint32_t>::max())) {
    return std::nullopt;
  }
  const std::uint32_t rounded =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(std::ceil(p)));
  // ceil can land exactly on b when a/w is tiny; ensure stability.
  return std::max(rounded, MinStableParallelism(b));
}

std::uint32_t VertexModel::ParallelismForDelta(double delta) const {
  // delta is the (negative) one-step improvement of the runner-up vertex;
  // we want the smallest p at which our own improvement is no better.
  if (std::isinf(delta) && delta < 0) return MinStableParallelism(b);
  if (delta >= 0.0 || a <= 0.0) return MinStableParallelism(b);
  // Solve W(p+1) - W(p) = delta  =>  (p - b)(p - b + 1) = -a / delta:
  // p = b - 1/2 + sqrt(1/4 - a/delta)   (paper's P_Delta, delta < 0).
  const double p = b - 0.5 + std::sqrt(0.25 - a / delta);
  const std::uint32_t rounded =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(std::ceil(p)));
  return std::max(rounded, MinStableParallelism(b));
}

LatencyModel::LatencyModel(std::vector<VertexModel> vertices, LatencyModelOptions options)
    : vertices_(std::move(vertices)), options_(options) {}

LatencyModel LatencyModel::Build(const JobGraph& graph, const GlobalSummary& summary,
                                 const JobSequence& sequence,
                                 const LatencyModelOptions& options) {
  std::vector<VertexModel> models;
  models.reserve(sequence.vertices().size());

  for (JobVertexId vid : sequence.vertices()) {
    if (!summary.HasVertex(vid)) {
      throw std::invalid_argument("LatencyModel::Build: no summary data for vertex '" +
                                  graph.vertex(vid).name + "'");
    }
    const VertexSummary& vs = summary.vertex(vid);
    const JobVertex& jv = graph.vertex(vid);

    VertexModel m;
    m.id = vid;
    m.p_current = jv.parallelism;
    m.p_min = jv.min_parallelism;
    m.p_max = jv.max_parallelism;
    m.elastic = jv.elastic;
    m.utilization = vs.Utilization();

    const double lambda = vs.arrival_rate;
    const double service = vs.service_mean;
    const double cv_term =
        (vs.interarrival_cv * vs.interarrival_cv + vs.service_cv * vs.service_cv) / 2.0;
    // Eq. 5's p: the parallelism the per-task rates were measured at.  Falls
    // back to the graph's current parallelism when the summary predates the
    // measured_parallelism bookkeeping (e.g. hand-built summaries).
    const double p = vs.measured_parallelism > 0 ? vs.measured_parallelism
                                                 : static_cast<double>(jv.parallelism);

    // Fit the error coefficient against the inbound job edge within the
    // sequence (Eq. 4).  Vertices that open the sequence have no inbound
    // edge there; their e stays 1.
    double e = 1.0;
    const JobEdgeId* inbound = nullptr;
    for (const JobEdgeId& eid : sequence.edges()) {
      if (graph.edge(eid).target == vid) {
        inbound = &eid;
        break;
      }
    }
    if (inbound != nullptr && summary.HasEdge(*inbound)) {
      const EdgeSummary& es = summary.edge(*inbound);
      m.measured_wait = std::max(0.0, es.channel_latency - es.output_batch_latency);
      if (options.use_error_coefficient) {
        const double kingman =
            KingmanWait(m.utilization, service, vs.interarrival_cv, vs.service_cv);
        if (std::isfinite(kingman) && kingman > 1e-12) {
          e = std::clamp(m.measured_wait / kingman, options.min_error_coefficient,
                         options.max_error_coefficient);
        }
      }
    }

    m.error_coefficient = e;
    m.a = e * lambda * service * service * p * cv_term;
    m.b = lambda * service * p;
    models.push_back(m);
  }

  return LatencyModel(std::move(models), options);
}

double LatencyModel::TotalWait(const std::vector<std::uint32_t>& p) const {
  if (p.size() != vertices_.size()) {
    throw std::invalid_argument("LatencyModel::TotalWait: wrong vector length");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    const double w = vertices_[i].Wait(p[i]);
    if (std::isinf(w)) return kInf;
    total += w;
  }
  return total;
}

bool LatencyModel::HasBottleneck() const {
  for (const VertexModel& v : vertices_) {
    if (v.utilization >= options_.bottleneck_utilization) return true;
  }
  return false;
}

}  // namespace esp
