// The benchmark's workloads.  Each one builds its inputs from the seed,
// drives the engine through its public API for about `seconds`, checks the
// outputs against a reference and fills in a Report: the end-to-end metrics
// always, the per-layer metrics when `traced` is set.
#pragma once

#include <cstdint>
#include <string>

#include "probes.h"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  /// Root span of the run (traced mode).
  std::int64_t root_span = -1;
  /// Index of this slice when the run is split across processes.
  std::uint32_t slice = 0;
};

void RunPipeline(const RunConfig& config, Report& report);
void RunFanin(const RunConfig& config, Report& report);
void RunTwitterSim(const RunConfig& config, Report& report);

/// Seed mixing for deriving per-source inputs from the run seed.
constexpr std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
