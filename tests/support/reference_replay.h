// Per-word reference replays of the profiler and the simulator.
//
// The product replays an aggregated TraceEvent (`repeat` consecutive
// word accesses wrapping modulo the block) in closed form: one lap for
// the ACE bookkeeping, one cache lookup per touched line, lap counts for
// STT wear. These references do the literal thing instead — one step per
// word access, one Cache::access per word — so a test can demand that
// both produce bit-identical statistics, floating-point sums included.
// They are test oracles only and live with the tests.
#pragma once

#include <cstdint>
#include <span>

#include "ftspm/profile/profiler.h"
#include "ftspm/sim/simulator.h"
#include "ftspm/workload/trace.h"

namespace ftspm {

/// profile_workload, replayed one word access at a time.
ProgramProfile reference_profile(const Workload& workload);

/// Simulator::run, replayed one word access at a time.
struct ReferenceRun {
  RunResult result;
  /// What the product adds to the `sim.cache_fills` and `sim.dma_words`
  /// counters over the same run when observability is on.
  std::uint64_t cache_fills = 0;
  std::uint64_t dma_words = 0;
};

/// With `with_phases` the result carries the per-phase attribution the
/// product fills in only when observability is enabled.
ReferenceRun reference_run(const SpmLayout& layout, const SimConfig& config,
                           const Workload& workload,
                           std::span<const RegionId> block_to_region,
                           bool with_phases);

}  // namespace ftspm
