// Overload protection: SLO watchdog classification and AIMD load shedding
// (DESIGN.md §11).
//
// Elasticity (core/elastic_scaler.h) is the first line of defence against a
// violated latency constraint, but it runs out of road: every vertex at
// max_parallelism, the scaler suppressed after a recovery, or a wedged task
// that no amount of parallelism fixes.  Past that point the paper's
// guarantee can only be kept for the traffic the engine ADMITS -- so the
// overload guard classifies each constraint from the same
// EstimateSequenceLatency estimates the scaler uses (plus queue saturation
// signals), and when a constraint is Violated with no scaling headroom it
// sheds a deterministic, seeded fraction of records at source admission.
// The shed ratio adapts AIMD-style: additive increase while violated,
// multiplicative decrease after consecutive healthy rounds, held steady
// while at risk.  Wedged tasks are quarantined by the engine's watchdog
// (engine.cpp QuarantineTask), not by this controller.
//
// This module is engine-agnostic and deterministic: one Tick per adjustment
// interval, pure state machine, unit-tested in tests/overload_test.cpp.
#pragma once

#include <cstdint>

#include "common/time.h"

namespace esp {

/// Per-constraint verdict of the SLO watchdog, one per adjustment interval.
enum class ConstraintHealth : std::uint8_t {
  kHealthy,   ///< estimate comfortably under the bound
  kAtRisk,    ///< estimate near the bound, or queues saturated and growing
  kViolated,  ///< estimate over the bound
};

const char* ToString(ConstraintHealth health);

/// Knobs for the watchdog + shed controller (LocalEngineOptions::overload).
struct OverloadOptions {
  /// Master switch; off preserves today's behaviour bit-for-bit (queues fill,
  /// the constraint silently fails).
  bool enabled = false;

  // ---- watchdog classification -------------------------------------------
  /// Estimates above at_risk_fraction * bound classify as AtRisk.
  double at_risk_fraction = 0.8;
  /// Input-queue fill fraction above which a task counts as saturated.
  double queue_watermark = 0.8;
  /// A task with a non-empty input queue whose loop has made no progress for
  /// this long is declared wedged and quarantined (0 disables the watchdog).
  SimDuration wedge_deadline = FromSeconds(2);

  // ---- AIMD shed-ratio adaptation ----------------------------------------
  /// Additive increase per violated round while shedding.
  double shed_step = 0.15;
  /// Multiplicative decrease applied after healthy_exit_rounds consecutive
  /// healthy rounds.
  double shed_decay = 0.5;
  /// Ceiling for the shed ratio.
  double max_shed_ratio = 0.9;
  /// Floor: a decay that lands below this exits shedding entirely.
  double min_shed_ratio = 0.02;

  // ---- hysteresis --------------------------------------------------------
  /// Consecutive Violated-with-no-headroom rounds before shedding starts.
  std::uint32_t violated_rounds_to_shed = 1;
  /// Consecutive Healthy rounds before the ratio decays (and eventually
  /// exits).  AtRisk rounds freeze the ratio: neither increase nor decay.
  std::uint32_t healthy_exit_rounds = 2;

  /// Seed for the per-source shed RNGs -- shedding decisions are a
  /// deterministic function of this seed and the admission stream.
  std::uint64_t shed_seed = 0x0EE210ADULL;
};

/// Saturation signals the engine folds into classification each round.
struct SaturationSignals {
  /// Max input-queue fill fraction across tasks (0..1).
  double max_queue_fill = 0.0;
  /// Growth of the total queued-record count since the previous round,
  /// records/second (negative = draining).
  double backlog_growth = 0.0;
};

/// Classifies one constraint from its latency estimate (seconds; negative =
/// no data) against its bound, upgraded by saturation: saturated-and-growing
/// queues raise Healthy (or no-data) to AtRisk even before the estimate
/// crosses the threshold.
ConstraintHealth ClassifyConstraint(double estimate_seconds, double bound_seconds,
                                    const OverloadOptions& options,
                                    const SaturationSignals& signals);

/// What one controller round decided; the engine actuates it.
struct OverloadDecision {
  double shed_ratio = 0.0;  ///< admission drop probability, 0..max_shed_ratio
  bool shed_entered = false;
  bool shed_exited = false;
};

/// The AIMD shed-ratio controller: two states (shedding or not) with
/// hysteresis.  Control-thread only; one Tick per adjustment interval.
class OverloadController {
 public:
  explicit OverloadController(OverloadOptions options = {});

  /// One adjustment round.  `worst` is the fold over all constraints of the
  /// watchdog verdicts, where Violated means violated WITHOUT scaling
  /// headroom (a violation the scaler can still fix is passed as AtRisk so
  /// the ratio holds steady while the scaler works).
  OverloadDecision Tick(ConstraintHealth worst);

  double shed_ratio() const { return shed_ratio_; }
  const OverloadOptions& options() const { return options_; }

 private:
  OverloadOptions options_;
  bool shedding_ = false;
  double shed_ratio_ = 0.0;
  std::uint32_t violated_streak_ = 0;
  std::uint32_t healthy_streak_ = 0;
};

}  // namespace esp
