// Monte-Carlo fault injection with real codecs.
//
// Where the AVF equations *assume* what parity and SEC-DED do under
// 1/2/3/>3-bit upsets, the injector finds out: each simulated strike
// flips `m` physically adjacent bits of a region surface holding real
// encoded codewords, runs the real decoders, and classifies the outcome
// against ground truth. Differences from the analytic model are real
// physics, not bugs:
//
//  * an MBU that straddles a codeword boundary splits into smaller
//    per-word errors (two adjacent single-bit errors -> both corrected),
//    so measured SDC/DUE sit *below* the analytic Eqs. 6-7;
//  * with bit interleaving (interleave > 1) an m-bit MBU scatters into
//    m different codewords and SEC-DED corrects all of them — the
//    classic mitigation, exposed here as an ablation knob.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ftspm/ecc/codec.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/mem/geometry.h"
#include "ftspm/mem/technology.h"
#include "ftspm/util/fastdiv.h"
#include "ftspm/util/rng.h"

namespace ftspm {

/// Severity-ordered outcome of one strike.
enum class StrikeOutcome : std::uint8_t {
  Masked = 0,  ///< No architectural effect (immune cells, dead data, or
               ///< flips that cancelled).
  Dre,         ///< Detected and recovered (ECC corrected everything).
  Due,         ///< Detected, unrecoverable.
  Sdc,         ///< Silent data corruption.
};

const char* to_string(StrikeOutcome outcome) noexcept;

/// One region surface as the injector sees it.
struct InjectionRegion {
  RegionGeometry geometry{8, 0};
  ProtectionKind protection = ProtectionKind::None;
  /// Probability that a struck word holds architecturally-required
  /// data (occupancy x ACE); strikes on dead words are masked.
  double ace_occupancy = 1.0;
  /// Physical bit interleaving degree: adjacent physical bits belong
  /// to `interleave` different codewords. 1 = no interleaving.
  std::uint32_t interleave = 1;
};

struct CampaignConfig {
  std::uint64_t strikes = 100'000;
  std::uint64_t seed = 0x57a1ce5eed;
  std::uint32_t max_flips = 16;

  /// When non-zero, the sharded runner invokes `progress` with
  /// (strikes_done, strikes_total) at the first chunk boundary at least
  /// `progress_interval` strikes past the previous report, and once at
  /// completion.
  /// Reporting only — it must not touch the RNG, so enabling it cannot
  /// change campaign results.
  std::uint64_t progress_interval = 0;
  std::function<void(std::uint64_t, std::uint64_t)> progress;
};

struct CampaignResult {
  std::uint64_t strikes = 0;
  std::uint64_t masked = 0;
  std::uint64_t dre = 0;
  std::uint64_t due = 0;
  std::uint64_t sdc = 0;

  double fraction(std::uint64_t n) const noexcept {
    return strikes ? static_cast<double>(n) / static_cast<double>(strikes)
                   : 0.0;
  }
  /// Comparable to AvfResult::vulnerability().
  double vulnerability() const noexcept {
    return fraction(due + sdc);
  }
};

class SensitivityGrid;

/// Per-region constants the campaign engines derive from an
/// InjectionRegion once per chunk: geometry scalars hoisted out of the
/// strike loop plus exact magic-multiply dividers for the bit -> (word,
/// bit-in-codeword) aim arithmetic.
struct BatchRegionInfo {
  double weight = 0.0;  ///< physical_bits as double (discrete pick).
  std::uint64_t physical_bits = 0;
  std::uint64_t words = 0;
  std::uint32_t codeword_bits = 0;
  std::uint32_t interleave = 1;
  /// codeword_bits * interleave: physical span of one interleave group.
  std::uint64_t group_bits = 0;
  ProtectionKind protection = ProtectionKind::None;
  double ace_occupancy = 1.0;
  FastDiv64 div_codeword;    ///< by codeword_bits (interleave == 1 aim).
  FastDiv64 div_group;       ///< by group_bits (interleave > 1 aim).
  FastDiv64 div_interleave;  ///< by interleave (interleave > 1 aim).

  /// True when the region qualifies for the branch-free classify path:
  /// no interleaving and a geometry whose per-word outcome is fully
  /// determined by (min(bit count, 3), pattern parity) — see the
  /// class_lut build in injector_batch.cpp. Exotic geometries (e.g. a
  /// parity region with extra check bits) and interleaved regions take
  /// the general per-word path instead; both paths share every RNG
  /// draw and produce identical outcomes.
  bool fast = false;
  /// How the ACE-occupancy draw resolves: 0 = always masked (no draw),
  /// 1 = always kept (no draw), 2 = one Bernoulli draw per non-masked
  /// strike — mirroring Rng::next_bool's p <= 0 / p >= 1 / else arms.
  std::uint8_t ace_mode = 1;
  /// ceil(ace_occupancy * 2^53): the mode-2 Bernoulli draw in the
  /// integer domain. next_double() returns (x >> 11) * 2^-53 exactly,
  /// so `u < p  <=>  (x >> 11) < ceil(p * 2^53)` — the product is
  /// exact (p < 1 keeps it under 2^53) and an integer u_bits is below
  /// a real threshold iff it is below its ceiling. Comparing raw draw
  /// bits resolves branches earlier than the convert-to-double chain.
  std::uint64_t ace_bits = 0;
  /// Word-pattern outcome LUT for the fast path, indexed by
  /// min(popcount, 3) * 2 + parity: StrikeOutcome values 0..3, or 4 =
  /// a SEC-DED pattern only its real syndrome can classify (resolved
  /// on the spot by SecDedCodec::classify_pattern). A single-group strike
  /// flips a contiguous run of bits, so its pattern weight IS the run
  /// length and the lookup needs no mask materialization at all.
  std::uint8_t class_lut[8] = {};
};

/// Reusable hot-loop scratch of one campaign shard. The classifier
/// records each strike's per-word hits in the fixed inline array
/// (`flips <= kInlineHits` covers any realistic CampaignConfig::
/// max_flips) and only falls back to the heap — once, then reusing the
/// buffer — beyond it, and the chunk loop keeps its region tables here
/// across calls; together the campaign inner loop performs no
/// per-strike allocation. Scratch is pure workspace: it never affects
/// results and is not checkpointed.
struct CampaignScratch {
  static constexpr std::uint32_t kInlineHits = 64;
  /// (word index, bit-in-codeword) hits of the strike being classified.
  std::array<std::pair<std::uint64_t, std::uint32_t>, kInlineHits> hits;
  /// Spill buffer for strikes with more than kInlineHits surviving
  /// flips; cleared, not shrunk, so it allocates at most once.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> spill;

  /// Per-chunk tables of the chunk engines (the static
  /// run_campaign_chunk and core's temporal campaign), rebuilt by
  /// detail::build_region_table at the start of every chunk with their
  /// capacity kept for the whole campaign. The strike loop reads them
  /// and resolves every strike where it lands; nothing is parked here
  /// between strikes.
  struct Batch {
    /// Region constant table, rebuilt per chunk.
    std::vector<BatchRegionInfo> regions;
    /// Compact copy of the pick weights build_pick_bits scans.
    std::vector<double> weights;
    /// Region-pick breakpoints in draw-bits space: pick_bits[k] is the
    /// smallest u_bits = x >> 11 whose subtract-scan partial k is
    /// non-negative (2^53 when none is). Every partial is monotone in
    /// u, so per-chunk binary searches recover the exact FP decision
    /// boundaries once and the per-strike pick becomes integer
    /// compares against the raw draw — bit-identical to
    /// Rng::next_discrete's scan (see pick_region).
    std::vector<std::uint64_t> pick_bits;
    /// Index next_discrete's underflow fallback resolves to (the last
    /// positive weight), precomputed per chunk.
    std::size_t pick_fallback = 0;
  };
  Batch batch;
};

/// Mutable state of one in-flight campaign (or campaign shard):
/// completed-strike count, partial counters, and the generator
/// positioned after the last completed strike. Everything needed to
/// suspend the loop, serialize it to a checkpoint, and resume later —
/// resuming from (done, partial, rng) continues the exact sequence an
/// uninterrupted run would have produced. The scratch member is
/// transient workspace owned by whichever worker drives the shard;
/// checkpoints ignore it.
struct CampaignShardState {
  std::uint64_t done = 0;
  CampaignResult partial;
  Rng rng{0};
  CampaignScratch scratch;
};

/// Fresh state for a campaign whose generator is seeded with `seed`
/// (callers apply any kind-specific seed salt before calling).
CampaignShardState begin_campaign_shard(std::uint64_t seed) noexcept;

/// Advances `state` by up to `max_strikes` strikes of the campaign
/// described by (regions, strikes, config), stopping early at
/// config.strikes. The RNG stream is a pure function of the strike
/// index, so chunking never changes results: any chunk-size schedule
/// reaching config.strikes yields the same counters as one chunk.
/// `grid` (nullable, must be active) accumulates per-(region, bucket)
/// outcome counts off the hot path.
void run_campaign_chunk(const std::vector<InjectionRegion>& regions,
                        const StrikeMultiplicityModel& strikes,
                        const CampaignConfig& config,
                        CampaignShardState& state, std::uint64_t max_strikes,
                        SensitivityGrid* grid = nullptr);

/// Injects one m-bit adjacent upset starting at `first_bit` of a region
/// and classifies it (ACE filtering excluded — pure code behaviour).
/// Exposed for unit tests and the analytic-vs-MC ablation.
///
/// Classification runs on the codecs' syndrome kernel
/// (classify_pattern): parity and SEC-DED are linear, so the outcome
/// depends only on which bits flipped, never on the stored data. RNG
/// consumption matches the encode/flip/decode oracle (tests/support/
/// campaign_oracles.h) draw for draw — one
/// next_u64 per struck codeword — so campaign counters at a fixed seed
/// are bit-identical to the pre-kernel implementation.
StrikeOutcome classify_strike(const InjectionRegion& region,
                              std::uint64_t first_bit, std::uint32_t flips,
                              Rng& rng);

/// classify_strike with caller-owned scratch — the campaign hot loops
/// thread their shard's CampaignScratch through this overload so no
/// per-strike temporaries are created.
StrikeOutcome classify_strike(const InjectionRegion& region,
                              std::uint64_t first_bit, std::uint32_t flips,
                              Rng& rng, CampaignScratch& scratch);

/// Locates physical bit `i` of a region under its interleaving: with
/// degree IL, consecutive physical bits rotate across IL codewords, so
/// an adjacent MBU spreads over IL words. This is the aim function
/// classify_strike uses; the live-array recovery campaign shares it so
/// its deposited flips land at identical physical locations.
PhysicalBit locate_strike_bit(const InjectionRegion& region, std::uint64_t i);

}  // namespace ftspm
