// The static campaign engine (run_campaign_chunk).
//
// A strike-at-a-time loop through classify_strike spends most of its
// cycles on per-strike call and branch overhead: re-validated weight
// tables, hardware divides for the aim arithmetic, a generic per-word
// classify call. This engine keeps the strike-at-a-time shape — one
// pass, every strike resolved where it lands — but derives everything
// per chunk that the per-strike code recomputed:
//
//  * each strike draws its region, origin, and flip count from the
//    shard RNG in EXACTLY the documented per-strike order
//    (docs/performance.md), against integer-domain tables built once
//    per chunk;
//  * classify_strike_block aims the flips with precomputed
//    magic-multiply dividers, classifies via the 8-entry
//    (min(popcount, 3), parity) region LUT, and takes the region's
//    ACE-occupancy draw in stream position. A single-group strike flips
//    a contiguous run of bits, so its pattern weight IS the run length:
//    the common case needs no mask, no popcount — one table byte
//    indexed by the run length. Masks are built only for the ~2% of
//    SEC-DED patterns whose outcome needs the real syndrome (resolved
//    on the spot by SecDedCodec::classify_pattern), and for the rare
//    shapes handled out of line (codeword straddles, interleaved aim,
//    exotic check-bit geometries). A fast-path strike is never Masked
//    pre-ACE (>= 1 surviving bit always corrupts or trips a check), so
//    its ACE draw needs no classify result;
//  * the ACE keep applies as a multiply, the strike tallies into
//    register counters, and the sensitivity grid (if any) records it.
//
// Two rules keep the loop fast (docs/performance.md, "One strike
// loop"): classify_strike_block is forced inline into the strike loop,
// and its out-of-line paths draw from a copy of the generator, so the
// loop's own generator never has its address taken and stays in
// registers. The temporal engine reaches the same classifier through
// the exported detail::classify_batch_strike wrapper.
//
// The draw-domain primitives (integer-image Bernoulli/discrete picks,
// flip cutoffs, the region table build) live in
// ftspm/fault/batch_engine.h and are shared with the recovery and
// temporal engines (recovery_batch.cpp, system_campaign_batch.cpp);
// the non-trivial ones are defined at the bottom of this file.
//
// Equivalence contract: identical counters, grids, and RNG stream
// position to the per-strike loop for every (regions, strikes, config,
// chunking) — pinned by tests/fault/batch_engine_test.cpp against
// classify_strike and end to end by the CampaignGolden suite
// (tests/integration/campaign_golden_test.cpp).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "ftspm/fault/batch_engine.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/util/error.h"

namespace ftspm {

using detail::group_masks;
using detail::GroupMasks;
using detail::kDrawBitsEnd;
using detail::pick_region;
using detail::prob_to_draw_bits;

namespace {

/// class_lut value for a SEC-DED run of >= 3 bits: only the real
/// syndrome can classify it.
constexpr std::uint8_t kSyndromeClass = 4;

/// Mask of data-word bits [lo, hi), hi <= 64, lo < hi.
inline std::uint64_t range_mask64(std::uint32_t lo, std::uint32_t hi) {
  const std::uint32_t len = hi - lo;
  return (len >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1) << lo;
}

/// Mask of check bits [lo, hi) (0-based above the data word), hi - lo
/// <= 32 — check_mask has always been accumulated in 32 bits.
inline std::uint32_t range_mask32(std::uint32_t lo, std::uint32_t hi) {
  const std::uint32_t len = hi - lo;
  return (len >= 32 ? ~0u : (1u << len) - 1) << lo;
}

/// Whether (protection, geometry) qualifies for the LUT classify path:
/// every word pattern's outcome must be a function of
/// (min(popcount, 3), parity) alone.
///  * None with <= 8 check bits: >= 1 surviving bit is always Sdc, and
///    the 8-bit popcount sees every check bit.
///  * Parity with <= 1 check bit: the syndrome IS the pattern parity,
///    odd -> Due, even (>= 1 bit, which then includes a data bit) ->
///    Sdc. Extra check bits would alias flips the parity check cannot
///    see (b = 2 with even parity can then be either Masked or Sdc).
///  * SEC-DED with <= 8 check bits: the uint8 check cast is faithful,
///    so 1 bit corrects, 2 bits detect, >= 3 need the syndrome.
bool lut_classifiable(ProtectionKind protection, std::uint32_t check_bits) {
  switch (protection) {
    case ProtectionKind::None: return check_bits <= 8;
    case ProtectionKind::Parity: return check_bits <= 1;
    case ProtectionKind::SecDed: return check_bits <= 8;
    default: return false;
  }
}

void build_class_lut(ProtectionKind protection, std::uint8_t (&lut)[8]) {
  for (std::uint32_t b = 0; b < 4; ++b) {
    for (std::uint32_t syn = 0; syn < 2; ++syn) {
      std::uint8_t cls = static_cast<std::uint8_t>(StrikeOutcome::Masked);
      if (protection == ProtectionKind::None) {
        cls = static_cast<std::uint8_t>(b == 0 ? StrikeOutcome::Masked
                                               : StrikeOutcome::Sdc);
      } else if (protection == ProtectionKind::Parity) {
        // b == 0 is unreachable (a group has >= 1 bit); odd parity
        // trips the check, even parity with bits present corrupts.
        cls = static_cast<std::uint8_t>(
            syn != 0 ? StrikeOutcome::Due
                     : (b == 0 ? StrikeOutcome::Masked : StrikeOutcome::Sdc));
      } else if (protection == ProtectionKind::SecDed) {
        cls = b == 0   ? static_cast<std::uint8_t>(StrikeOutcome::Masked)
              : b == 1 ? static_cast<std::uint8_t>(StrikeOutcome::Dre)
              : b == 2 ? static_cast<std::uint8_t>(StrikeOutcome::Due)
                       : kSyndromeClass;
      }
      lut[b * 2 + syn] = cls;
    }
  }
}

/// Outcome of the contiguous run [lo, hi) of one codeword of a fast
/// SEC-DED region when the LUT cannot tell (>= 3 bits): the real
/// syndrome decides. Out of line: the strike loop only pays for the
/// call on the ~2% of strikes that take it.
[[gnu::noinline]] std::uint8_t secded_run_outcome(std::uint32_t lo,
                                                  std::uint32_t hi) {
  const GroupMasks gm = group_masks(lo, hi);
  return static_cast<std::uint8_t>(
      detail::word_outcome(ProtectionKind::SecDed, gm.data, gm.check));
}

/// The general per-strike path: interleaved regions, exotic check-bit
/// geometries, and Immune-adjacent cases the LUT cannot decide. Kept
/// out of line so the dominant fast path compiles to a small loop body
/// with no spills from this machinery; identical RNG draws and
/// outcomes to the per-strike classifier. Returns the strike's pre-ACE
/// worst outcome.
[[gnu::noinline]] std::uint8_t classify_general_strike(
    const BatchRegionInfo& R, Rng& rng, CampaignScratch& scratch,
    std::uint64_t origin, std::uint32_t flips, std::uint8_t& ace_keep_out) {
  const std::uint32_t cw = R.codeword_bits;
  StrikeOutcome worst = StrikeOutcome::Masked;
  const auto note_word = [&](std::uint64_t data_mask,
                             std::uint32_t check_mask) {
    // One draw per struck codeword — the retained oracle draw the
    // RNG contract pins (docs/performance.md).
    (void)rng.next_u64();
    worst = std::max(
        worst, detail::word_outcome(R.protection, data_mask, check_mask));
  };

  if (R.interleave <= 1) {
    // Contiguous aim: surviving flips clip at the surface edge and
    // split into runs of consecutive bits per codeword, so each
    // word's masks are plain bit ranges — no per-bit loop, no sort.
    auto remaining = static_cast<std::uint64_t>(
        std::min<std::uint64_t>(flips, R.physical_bits - origin));
    std::uint64_t word = R.div_codeword.divide(origin);
    auto bit = static_cast<std::uint32_t>(origin - word * cw);
    while (remaining > 0) {
      const auto len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(cw - bit, remaining));
      const std::uint32_t hi = bit + len;
      std::uint64_t data_mask = 0;
      std::uint32_t check_mask = 0;
      if (bit < RegionGeometry::kDataBitsPerWord)
        data_mask = range_mask64(
            bit, std::min(hi, RegionGeometry::kDataBitsPerWord));
      if (hi > RegionGeometry::kDataBitsPerWord)
        check_mask = range_mask32(
            std::max(bit, RegionGeometry::kDataBitsPerWord) -
                RegionGeometry::kDataBitsPerWord,
            hi - RegionGeometry::kDataBitsPerWord);
      note_word(data_mask, check_mask);
      remaining -= len;
      bit = 0;
      ++word;
    }
  } else {
    // Interleaved aim (the ablation path): per-bit located hits,
    // word-sorted, grouped — the shape of the per-strike
    // classifier, with the divides replaced by the magic multiply.
    using WordHit = std::pair<std::uint64_t, std::uint32_t>;
    WordHit* hits = scratch.hits.data();
    if (flips > CampaignScratch::kInlineHits) {
      scratch.spill.clear();
      scratch.spill.resize(flips);
      hits = scratch.spill.data();
    }
    std::size_t n = 0;
    for (std::uint32_t k = 0; k < flips && origin + k < R.physical_bits;
         ++k) {
      const std::uint64_t g = origin + k;
      const std::uint64_t group = R.div_group.divide(g);
      const std::uint64_t within = g - group * R.group_bits;
      const std::uint64_t word =
          group * R.interleave + R.div_interleave.modulo(within);
      if (word >= R.words) continue;
      hits[n++] = WordHit{
          word, static_cast<std::uint32_t>(R.div_interleave.divide(within))};
    }
    for (std::size_t i = 1; i < n; ++i) {
      const WordHit h = hits[i];
      std::size_t j = i;
      for (; j > 0 && hits[j - 1].first > h.first; --j) hits[j] = hits[j - 1];
      hits[j] = h;
    }
    std::size_t i = 0;
    while (i < n) {
      const std::uint64_t word = hits[i].first;
      std::uint64_t data_mask = 0;
      std::uint32_t check_mask = 0;
      for (; i < n && hits[i].first == word; ++i) {
        const std::uint32_t b = hits[i].second;
        if (b < RegionGeometry::kDataBitsPerWord)
          data_mask |= std::uint64_t{1} << b;
        else
          check_mask |= 1u << (b - RegionGeometry::kDataBitsPerWord);
      }
      note_word(data_mask, check_mask);
    }
  }

  // ACE draw, in stream position: exactly when the pre-ACE outcome is
  // not Masked, like the per-strike loop.
  if (worst != StrikeOutcome::Masked)
    ace_keep_out = rng.next_bool(R.ace_occupancy) ? 1 : 0;
  else
    ace_keep_out = 1;
  return static_cast<std::uint8_t>(worst);
}

/// Fast-path strike that straddles codeword boundaries (< 1% of
/// strikes at realistic word sizes): split into per-word runs and
/// classify each through the region LUT. Out of line for the same
/// reason as classify_general_strike; returns the pre-ACE worst. Draw
/// order matches the inline path — one burned draw per struck
/// codeword, in address order.
[[gnu::noinline]] std::uint8_t classify_straddle_strike(
    const BatchRegionInfo& R, Rng& rng, std::uint32_t bit, std::uint64_t m) {
  const std::uint32_t cw = R.codeword_bits;
  std::uint8_t worst = 0;
  std::uint64_t remaining = m;
  while (remaining > 0) {
    const auto len =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(cw - bit, remaining));
    (void)rng.next_u64();
    const GroupMasks gm = group_masks(bit, bit + len);
    const auto b = static_cast<std::uint32_t>(std::popcount(gm.data) +
                                              std::popcount(gm.check));
    std::uint8_t cls = R.class_lut[std::min(b, 3u) * 2 + (b & 1)];
    if (cls == kSyndromeClass)
      cls = static_cast<std::uint8_t>(
          detail::word_outcome(ProtectionKind::SecDed, gm.data, gm.check));
    worst = std::max(worst, cls);
    remaining -= len;
    bit = 0;
  }
  return worst;
}

/// One strike's pre-ACE worst outcome plus its ACE keep flag, drawn in
/// stream position after the classify burns. Forced inline: the static
/// strike loop's speed depends on it (see the file comment).
[[gnu::always_inline]] inline std::uint8_t classify_strike_block(
    const BatchRegionInfo& R, Rng& rng, CampaignScratch& scratch,
    std::uint64_t origin, std::uint32_t flips, std::uint8_t& keep) {
  if (R.protection == ProtectionKind::Immune) {
    // classify_strike early-outs before any word draw, and a Masked
    // outcome takes no ACE draw.
    keep = 1;
    return static_cast<std::uint8_t>(StrikeOutcome::Masked);
  }
  if (R.fast) [[likely]] {
    const std::uint32_t cw = R.codeword_bits;
    const std::uint64_t m =
        std::min<std::uint64_t>(flips, R.physical_bits - origin);
    const std::uint64_t word = R.div_codeword.divide(origin);
    const auto bit = static_cast<std::uint32_t>(origin - word * cw);
    std::uint8_t worst;
    if (bit + m <= cw) [[likely]] {
      // One burned draw for the single struck codeword (the RNG
      // contract), then the LUT byte — the group is a contiguous run
      // of m bits, so its pattern weight is m and no mask ever
      // materializes unless only the syndrome can tell.
      (void)rng.next_u64();
      const auto b = static_cast<std::uint32_t>(m);
      worst = R.class_lut[std::min(b, 3u) * 2 + (b & 1)];
      if (worst == kSyndromeClass) [[unlikely]]
        worst = secded_run_outcome(bit, bit + b);
    } else {
      // The out-of-line paths draw from a copy: the strike loop's own
      // generator must never have its address taken, or it cannot stay
      // in registers across the loop.
      Rng out_of_line = rng;
      worst = classify_straddle_strike(R, out_of_line, bit, m);
      rng = out_of_line;
    }
    // The ACE draw, unconditional for fast strikes (never Masked
    // pre-ACE): next_bool's three arms resolved at table build — modes
    // 0 / 1 skip the draw, mode 2 compares one draw in the draw-bits
    // domain.
    if (R.ace_mode == 2)
      keep = (rng.next_u64() >> 11) < R.ace_bits ? 1 : 0;
    else
      keep = R.ace_mode;
    return worst;
  }
  Rng out_of_line = rng;
  const std::uint8_t worst =
      classify_general_strike(R, out_of_line, scratch, origin, flips, keep);
  rng = out_of_line;
  return worst;
}

}  // namespace

namespace detail {

void build_pick_bits(const std::vector<double>& weights, double total,
                     std::vector<std::uint64_t>& pick_bits,
                     std::size_t& fallback) {
  FTSPM_REQUIRE(total > 0.0, "at least one weight must be positive");
  // Sign of subtract-scan partial k at draw bits `ub`, exactly as the
  // per-strike scan computed it: u converts exactly (53-bit integer
  // scaled by a power of two), then one rounded multiply and k + 1
  // rounded subtractions.
  const auto partial_nonneg = [&](std::uint64_t ub, std::size_t k) {
    double r = static_cast<double>(ub) * 0x1.0p-53 * total;
    for (std::size_t i = 0; i <= k; ++i) r -= weights[i];
    return r >= 0.0;
  };
  pick_bits.resize(weights.size());
  for (std::size_t k = 0; k < weights.size(); ++k) {
    if (!partial_nonneg(kDrawBitsEnd - 1, k)) {
      pick_bits[k] = kDrawBitsEnd;  // this partial is never >= 0
      continue;
    }
    std::uint64_t lo = 0, hi = kDrawBitsEnd - 1;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (partial_nonneg(mid, k))
        hi = mid;
      else
        lo = mid + 1;
    }
    pick_bits[k] = hi;
  }
  // Pad with never-reached sentinels so the per-strike pick can always
  // run a fixed four compares for the common <= 4-region mixes: draw
  // bits are < 2^53, so a sentinel never increments the index.
  while (pick_bits.size() < 4) pick_bits.push_back(kDrawBitsEnd);
  // next_discrete's underflow fallback: the last positive weight.
  fallback = weights.size() - 1;
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) {
      fallback = i;
      break;
    }
  }
}

void build_region_table(const std::vector<InjectionRegion>& regions,
                        CampaignScratch::Batch& batch) {
  std::vector<BatchRegionInfo>& table = batch.regions;
  std::vector<double>& weights = batch.weights;
  table.clear();
  table.reserve(regions.size());
  weights.clear();
  weights.reserve(regions.size());
  double total = 0.0;
  for (const auto& r : regions) {
    FTSPM_REQUIRE(r.ace_occupancy >= 0.0 && r.ace_occupancy <= 1.0,
                  "ace_occupancy out of [0,1]");
    FTSPM_REQUIRE(r.interleave >= 1, "interleave degree must be >= 1");
    BatchRegionInfo info;
    info.physical_bits = r.geometry.physical_bits();
    info.weight = static_cast<double>(info.physical_bits);
    info.words = r.geometry.words();
    info.codeword_bits = r.geometry.codeword_bits();
    info.interleave = r.interleave;
    info.group_bits =
        static_cast<std::uint64_t>(info.codeword_bits) * r.interleave;
    info.protection = r.protection;
    info.ace_occupancy = r.ace_occupancy;
    info.div_codeword = FastDiv64(info.codeword_bits, info.physical_bits);
    if (r.interleave > 1) {
      info.div_group = FastDiv64(info.group_bits, info.physical_bits);
      info.div_interleave = FastDiv64(r.interleave, info.group_bits);
    }
    info.fast = r.interleave == 1 && info.physical_bits > 0 &&
                lut_classifiable(r.protection,
                                 r.geometry.check_bits_per_word());
    if (info.fast) build_class_lut(r.protection, info.class_lut);
    info.ace_mode = r.ace_occupancy <= 0.0   ? std::uint8_t{0}
                    : r.ace_occupancy >= 1.0 ? std::uint8_t{1}
                                             : std::uint8_t{2};
    if (info.ace_mode == 2)
      info.ace_bits = prob_to_draw_bits(r.ace_occupancy);
    // next_discrete validated the weights on every strike; the weights
    // are per-chunk constants, so once per chunk is the same check.
    total += info.weight;
    weights.push_back(info.weight);
    table.push_back(info);
  }
  build_pick_bits(weights, total, batch.pick_bits, batch.pick_fallback);
}

FlipCutoffs make_flip_cutoffs(const StrikeMultiplicityModel& strikes,
                              std::uint32_t max_flips) {
  // sample_flips REQUIREs the >3 tail fits, per strike; hoisted here
  // since max_flips is a chunk constant. The branchless comparison sum
  // in sample_flips_draw needs the cutoffs monotone, which holds for
  // any non-negative probabilities. The sums associate exactly as
  // sample_flips does (c3 = (p1 + p2) + p3) so every comparison sees
  // the identical double.
  FTSPM_REQUIRE(max_flips >= 4, "max_flips must allow the >3 tail");
  const double c1 = strikes.p_exactly(1);
  const double c2 = c1 + strikes.p_exactly(2);
  const double c3 = c2 + strikes.p_exactly(3);
  FTSPM_REQUIRE(c1 >= 0.0 && c2 >= c1 && c3 >= c2,
                "flip multiplicities must be non-negative");
  FlipCutoffs cuts;
  cuts.b1 = prob_to_draw_bits(c1);
  cuts.b2 = prob_to_draw_bits(c2);
  cuts.b3 = prob_to_draw_bits(c3);
  return cuts;
}

std::uint8_t classify_batch_strike(const BatchRegionInfo& R, Rng& rng,
                                   CampaignScratch& scratch,
                                   std::uint64_t origin, std::uint32_t flips) {
  // ace_occupancy is 1.0 by contract, so the ACE draw is a no-draw arm
  // and the keep flag is always 1.
  std::uint8_t keep = 1;
  return classify_strike_block(R, rng, scratch, origin, flips, keep);
}

}  // namespace detail

void run_campaign_chunk(const std::vector<InjectionRegion>& regions,
                        const StrikeMultiplicityModel& strikes,
                        const CampaignConfig& config,
                        CampaignShardState& state, std::uint64_t max_strikes,
                        SensitivityGrid* grid) {
  FTSPM_REQUIRE(!regions.empty(), "campaign needs at least one region");
  const std::uint64_t end =
      std::min(config.strikes, state.done + max_strikes);
  if (end <= state.done) {
    state.done = end;
    return;
  }

  CampaignScratch::Batch& batch = state.scratch.batch;
  detail::build_region_table(regions, batch);
  // Flip-count cutoffs in the draw-bits domain (see make_flip_cutoffs
  // for the exactness argument).
  const detail::FlipCutoffs cuts =
      detail::make_flip_cutoffs(strikes, config.max_flips);

  // Hot-loop locals: the generator runs as a stack copy (written back
  // once per chunk), the tables as raw pointers, and the outcomes
  // tally into register counters flushed once per chunk.
  Rng rng = state.rng;
  const BatchRegionInfo* const region_table = batch.regions.data();
  const std::uint64_t* const pick_breaks = batch.pick_bits.data();
  const std::size_t pick_fallback = batch.pick_fallback;
  const std::size_t region_count = batch.regions.size();
  std::uint64_t n_masked = 0, n_dre = 0, n_due = 0, n_sdc = 0;

  for (std::uint64_t s = state.done; s < end; ++s) {
    const std::size_t ri =
        pick_region(rng, pick_breaks, region_count, pick_fallback);
    const BatchRegionInfo& R = region_table[ri];
    const std::uint64_t origin = rng.next_below(R.physical_bits);
    const std::uint32_t flips =
        detail::sample_flips_draw(rng, cuts, config.max_flips);
    std::uint8_t keep;
    const std::uint8_t worst =
        classify_strike_block(R, rng, state.scratch, origin, flips, keep);
    // The ACE filter is a multiply: keep is 0/1 and Masked is 0.
    const auto o = static_cast<std::uint8_t>(worst * keep);
    n_masked += o == 0;
    n_dre += o == 1;
    n_due += o == 2;
    n_sdc += o == 3;
    if (grid != nullptr)
      grid->record(ri, origin, static_cast<StrikeOutcome>(o));
  }
  state.partial.strikes += end - state.done;
  state.partial.masked += n_masked;
  state.partial.dre += n_dre;
  state.partial.due += n_due;
  state.partial.sdc += n_sdc;
  state.rng = rng;
  state.done = end;
}

}  // namespace ftspm
