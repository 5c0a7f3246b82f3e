// The predictive latency model (paper §IV-C).
//
// Every task of a job vertex is modelled as a GI/G/1 queueing station.
// Kingman's heavy-traffic formula (Eq. 3) approximates the queue waiting
// time of the average task; an *error coefficient* e_jv (Eq. 4) fits the
// approximation to the most recent measurements; and re-expressing the
// utilization as a function of a hypothetical parallelism p* (Eq. 5) turns
// the fitted formula into a predictor
//
//     W_jv(p*) = a / (p* - b),   a = e * lambda * S^2 * p * (c_A^2+c_S^2)/2,
//                                b = lambda * S * p,
//
// valid for p* > b (utilization < 1).  Note: we fold the error coefficient
// into `a`, which makes the paper's closed-form step formulas P_Delta and
// P_W exact for the fitted model (the paper's text leaves e outside a).
//
// The total sequence wait W_js(p1*, ..., pn*) is the sum of the member
// vertices' W(p*), which Rebalance (core/rebalance.h) minimises over.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "graph/job_graph.h"
#include "graph/sequence.h"
#include "qos/summary.h"

namespace esp {

/// Tuning knobs for model construction.
struct LatencyModelOptions {
  /// Apply the error coefficient e_jv (Eq. 4).  Disabling it reproduces the
  /// paper's ablation argument: the raw Kingman estimate can recommend a
  /// scale-down when a scale-up is needed.
  bool use_error_coefficient = true;

  /// Clamp range for e_jv.  The paper motivates e as a guarantee that the
  /// model predicts "at least the currently measured queue waiting time",
  /// i.e. it corrects Kingman upward; a lower clamp of 1 keeps that
  /// one-sided semantics (an e < 1 invites scale-down overshoot into
  /// saturation).  Bursts can inflate the measured wait and hence e (the
  /// paper names this as the cause of over-scaling); the upper clamp bounds
  /// the damage without changing steady-state behaviour.
  double min_error_coefficient = 1.0;
  double max_error_coefficient = 100.0;

  /// Utilization threshold rho_max above which a vertex counts as a
  /// bottleneck ("a value close to 1", paper §IV-E).
  double bottleneck_utilization = 0.9;
};

/// Per-vertex queueing predictor with all inputs resolved.
struct VertexModel {
  JobVertexId id{};
  std::uint32_t p_current = 1;
  std::uint32_t p_min = 1;
  std::uint32_t p_max = 1;
  bool elastic = false;

  double a = 0.0;  ///< e * lambda * S^2 * p * (c_A^2 + c_S^2) / 2  [seconds]
  double b = 0.0;  ///< lambda * S * p  (offered load in "servers")
  double error_coefficient = 1.0;  ///< fitted e_jv
  double utilization = 0.0;        ///< rho at the measured parallelism
  double measured_wait = 0.0;      ///< l_je - obl_je on the inbound edge [s]

  /// Predicted queue waiting time at parallelism p_star; +infinity when
  /// p_star <= b (utilization would reach or exceed 1).
  double Wait(std::uint32_t p_star) const;

  /// Wait(p + 1) - Wait(p): the (negative) improvement from one more task.
  double Delta(std::uint32_t p) const;

  /// Smallest parallelism with Wait(p) <= w (paper's P_W); p_max bounds are
  /// NOT applied here.  Returns nullopt when w <= 0 or no finite p works.
  std::optional<std::uint32_t> MinParallelismForWait(double w) const;

  /// Paper's P_Delta(i, delta): smallest parallelism at which this vertex's
  /// one-step improvement |Delta| has shrunk to |delta| (delta must be the
  /// negative Delta of the runner-up vertex).  Used as the gradient-descent
  /// step size.
  std::uint32_t ParallelismForDelta(double delta) const;
};

/// The fitted model for one constrained job sequence.
class LatencyModel {
 public:
  /// Builds the model from the job graph, the latest global summary and the
  /// constrained sequence.  Throws std::invalid_argument if any sequence
  /// vertex lacks summary data (callers should gate on data availability).
  static LatencyModel Build(const JobGraph& graph, const GlobalSummary& summary,
                            const JobSequence& sequence,
                            const LatencyModelOptions& options = {});

  /// Vertex models in sequence (flow) order.
  const std::vector<VertexModel>& vertices() const { return vertices_; }

  /// Total predicted queue wait for a parallelism vector (same order as
  /// vertices()); +infinity if any vertex is saturated at its entry.
  double TotalWait(const std::vector<std::uint32_t>& p) const;

  /// True when any vertex's measured utilization is at or above the
  /// bottleneck threshold (the model's Kingman inputs are then unusable,
  /// paper §IV-E).
  bool HasBottleneck() const;

  const LatencyModelOptions& options() const { return options_; }

 private:
  LatencyModel(std::vector<VertexModel> vertices, LatencyModelOptions options);

  std::vector<VertexModel> vertices_;
  LatencyModelOptions options_;
};

/// Kingman's GI/G/1 waiting-time approximation (Eq. 3), exposed for tests
/// and ablation benches.  `rho` = utilization, `service_mean` = mean service
/// time (1/mu), cva/cvs = coefficients of variation of inter-arrival and
/// service times.  Returns +infinity when rho >= 1.
double KingmanWait(double rho, double service_mean, double cva, double cvs);

}  // namespace esp
