// Strike-at-a-time reference engines for the Monte-Carlo campaigns.
//
// The product classifies strikes through batched engines: syndrome
// kernels for the static classifier, SoA blocks and batched folds for the
// recovery and temporal chunk loops. These references do the literal
// thing instead — encode/flip/decode per struck codeword, one Rng call
// per draw, one decode per word — so a test can demand bit-identical
// counters, images, grids and RNG streams from both. They are test and
// benchmark oracles only; they live with the tests, not in the shipped
// libraries.
#pragma once

#include <cstdint>
#include <vector>

#include "ftspm/core/system_campaign.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/util/rng.h"

namespace ftspm {

/// Classifies the flips that landed in one codeword via the full
/// encode/flip/decode path: draws the word's original contents (one
/// next_u64), encodes, flips `bits`, decodes.
StrikeOutcome classify_word_oracle(ProtectionKind protection,
                                   const std::vector<std::uint32_t>& bits,
                                   Rng& rng);

/// classify_strike over classify_word_oracle (heap-allocating,
/// data-materializing): the ground truth the syndrome kernel is verified
/// against, and the baseline bench/micro_campaign and bench/perf_harness
/// measure the kernel's speedup over. Identical outcomes and RNG
/// consumption.
StrikeOutcome classify_strike_oracle(const InjectionRegion& region,
                                     std::uint64_t first_bit,
                                     std::uint32_t flips, Rng& rng);

/// The reference chunk loops the batched LiveArrayCampaign::run_chunk and
/// TemporalCampaign::run_chunk are pinned against. Both campaigns name
/// this struct their friend so the loops can read the precomputed
/// private state (weights, spans, policy) instead of rebuilding it.
struct CampaignOracles {
  /// LiveArrayCampaign::run_chunk, one strike at a time: one
  /// next_discrete/next_bool/classify_pattern call per draw, per-bit
  /// located flips, per-word scrub resolution. Same arguments and
  /// contract; ~severalfold slower.
  static void recovery_chunk(const LiveArrayCampaign& campaign,
                             const CampaignConfig& config,
                             CampaignShardState& core,
                             RecoveryShardSide& side,
                             std::uint64_t max_strikes,
                             SensitivityGrid* grid = nullptr);

  /// TemporalCampaign::run_chunk, one strike at a time: a linear
  /// residency scan per strike and a per-word classify.
  static void temporal_chunk(const TemporalCampaign& campaign,
                             const CampaignConfig& config,
                             CampaignShardState& state,
                             std::uint64_t max_strikes,
                             SensitivityGrid* grid = nullptr);

 private:
  using WordRepair = LiveArrayCampaign::WordRepair;

  static WordRepair resolve_word(const LiveArrayCampaign& campaign,
                                 std::size_t region_index, RegionImage& image,
                                 std::uint64_t word, Rng& rng,
                                 RecoveryCounters& counters, bool scrub_pass);
  static void scrub_sweep(const LiveArrayCampaign& campaign,
                          RecoveryShardSide& side, Rng& rng);
};

}  // namespace ftspm
