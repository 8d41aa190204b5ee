// Strike loop of the live-array recovery campaign.
//
// The strike-at-a-time reference loop (tests/support/campaign_oracles)
// spends its time in per-strike FP draws (next_discrete's
// subtract-scan, next_bool conversions) and a locate_strike_bit divide
// per flipped bit. This file replays the identical campaign on the
// static engine's machinery (batch_engine.h), resolving every struck
// word where it is read:
//
//  * aim draws become integer compares against the static engine's
//    per-chunk region table (detail::build_region_table, kept in the
//    shard's scratch) — region-pick breakpoints, the ACE Bernoulli,
//    flip cutoffs — each bit-identical to the Rng primitive it
//    replaces; the repair costs are one row per region, built once by
//    the constructor;
//  * a strike's flips split into struck words through the engines'
//    shared splitter (uninterleaved: one XOR mask pair per codeword
//    run) or gatherer (interleaved: word-sorted hits), ascending and
//    unique, and each word is deposited and resolved in one step;
//  * a demand read takes the word's error pattern (data ^ truth,
//    check ^ truth_check) and classifies it in place: 1- and 2-bit
//    SEC-DED patterns by the distance-4 popcount shortcuts, parity by
//    parity64, >= 3-bit SEC-DED patterns by SecDedCodec::
//    classify_pattern;
//  * a scrub sweep is a contiguous fold over each region's mask pair
//    building a dirty-word bitmap — the overwhelmingly-clean words exit
//    through an auto-vectorized compare, and each set bit is resolved
//    in place.
//
// Equivalence contract: counters, images, grids, and the RNG stream
// match the reference loop bit for bit, for every chunk schedule. The
// draw schedule per strike is pick, origin, multiplicity, then per
// struck word (ascending) one ACE Bernoulli, then (only inside a
// detected-uncorrectable repair) one dirty-fraction Bernoulli;
// classification itself never draws. Resolving word w only ever
// rewrites word w, so each word's pattern reads the same whenever it is
// taken. The floating-point energy accumulator sees the same additions
// in the same order (bulk scrub costs first, then per-word events in
// word order), so even recovery_energy_pj is bit-identical. Pinned by
// tests/fault/batch_engine_test.cpp and the CampaignGolden suite.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "ftspm/ecc/secded_codec.h"
#include "ftspm/fault/batch_engine.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/util/bitops.h"
#include "ftspm/util/error.h"

namespace ftspm {

namespace {

/// write_back_word(protection, image, w, image.truth[w]) without the
/// re-encode: truth_check caches the clean encoding's check bits
/// (recovery.h), so restoring a word to its ground truth is two stores.
/// Unchecked regions have no check array (write_back_word leaves it
/// alone for None too).
inline void restore_clean(ProtectionKind protection, RegionImage& image,
                          std::uint64_t word) {
  image.data[word] = image.truth[word];
  if (protection != ProtectionKind::None)
    image.check[word] = image.truth_check[word];
}

/// One-time process-wide proof of the popcount shortcuts the demand
/// walk takes for SEC-DED patterns: the Hsiao code is distance 4, so
/// every 1-bit pattern decodes back to the clean codeword (residual
/// zero — a data flip is corrected in place, a check flip leaves the
/// data intact) and every 2-bit pattern raises the detected flag.
/// Checked exhaustively against the real decoder rather than assumed,
/// mirroring how the static engine derives its popcount class LUT.
bool verify_secded_popcount_shortcuts() {
  const auto pattern = [](std::uint32_t bit, std::uint64_t& dm,
                          std::uint8_t& cm) {
    if (bit < SecDedCodec::kDataBits) {
      dm |= std::uint64_t{1} << bit;
    } else {
      cm = static_cast<std::uint8_t>(
          cm | (1u << (bit - SecDedCodec::kDataBits)));
    }
  };
  for (std::uint32_t a = 0; a < SecDedCodec::kCodewordBits; ++a) {
    std::uint64_t dm = 0;
    std::uint8_t cm = 0;
    pattern(a, dm, cm);
    const PatternDecode one = SecDedCodec::classify_pattern(dm, cm);
    FTSPM_REQUIRE(one.status == DecodeStatus::Corrected &&
                      (dm ^ one.correction_mask) == 0,
                  "SEC-DED 1-bit pattern must decode to the clean word");
    for (std::uint32_t b = a + 1; b < SecDedCodec::kCodewordBits; ++b) {
      std::uint64_t dm2 = dm;
      std::uint8_t cm2 = cm;
      pattern(b, dm2, cm2);
      FTSPM_REQUIRE(
          SecDedCodec::classify_pattern(dm2, cm2).status ==
              DecodeStatus::Detected,
          "SEC-DED 2-bit pattern must be detected");
    }
  }
  return true;
}

}  // namespace

void LiveArrayCampaign::scrub_sweep(RecoveryShardSide& side, Rng& rng,
                                    const BatchRegionInfo* table) const {
  ++side.counters.scrub_passes;
  for (std::size_t ri = 0; ri < regions_.size(); ++ri) {
    const BatchRegionInfo& R = table[ri];
    const RepairCosts& C = repair_[ri];
    if (!C.scrub) continue;
    side.counters.scrub_words += R.words;
    side.counters.recovery_cycles += C.scrub_read_cycles;
    side.counters.recovery_energy_pj += C.scrub_read_energy;
    // Immune arrays are swept as a retention refresh (cost only);
    // unchecked arrays cannot surface an error to the scrubber at all —
    // the reference resolve_word returns Clean for every word of both,
    // touching neither counters nor the RNG.
    if (R.protection == ProtectionKind::Immune ||
        R.protection == ProtectionKind::None)
      continue;

    RegionImage& image = side.images[ri];
    const std::uint64_t words = R.words;
    const std::uint64_t* const data = image.data.data();
    const std::uint64_t* const truth = image.truth.data();
    const std::uint8_t* const check = image.check.data();
    const std::uint8_t* const truth_check = image.truth_check.data();

    // Contiguous fold: one pass marks the (rare) dirty words in a
    // bitmap; the clean bulk costs two loads and a compare per word.
    const std::size_t bitmap_words =
        static_cast<std::size_t>((words + 63) / 64);
    side.batch_bitmap.resize(bitmap_words);
    std::uint64_t* const bitmap = side.batch_bitmap.data();
    for (std::size_t bw = 0; bw < bitmap_words; ++bw) {
      // 64 words per bitmap entry, accumulated in a register so the
      // clean bulk is a pure load-compare-shift stream.
      const std::uint64_t lo = static_cast<std::uint64_t>(bw) << 6;
      const std::uint64_t hi = std::min<std::uint64_t>(words, lo + 64);
      std::uint64_t bits = 0;
      for (std::uint64_t w = lo; w < hi; ++w) {
        const std::uint64_t nz =
            (data[w] ^ truth[w]) |
            static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(check[w] ^ truth_check[w]));
        bits |= static_cast<std::uint64_t>(nz != 0) << (w & 63);
      }
      bitmap[bw] = bits;
    }

    // Resolve the dirty words in place, ascending like the reference
    // sweep. The scrub engine always repairs (reference: repairs =
    // true), so the per-status actions below are resolve_word's scrub
    // arms verbatim. Only a detected-uncorrectable word draws.
    const auto refetch = [&](std::uint64_t w) {
      restore_clean(R.protection, image, w);
      if (detail::draw_bernoulli(rng, C.dirty)) {
        ++side.counters.unrecoverable;
      } else {
        ++side.counters.refetches;
        side.counters.recovery_cycles += C.refetch_cycles;
        side.counters.recovery_energy_pj += C.refetch_energy;
      }
    };
    for (std::size_t bw = 0; bw < bitmap_words; ++bw) {
      std::uint64_t bits = bitmap[bw];
      while (bits != 0) {
        const std::uint64_t w =
            (static_cast<std::uint64_t>(bw) << 6) +
            static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint64_t data_mask = data[w] ^ truth[w];
        const auto check_mask =
            static_cast<std::uint8_t>(check[w] ^ truth_check[w]);
        if (R.protection == ProtectionKind::Parity) {
          // Even-flip aliases (zero syndrome) are invisible to the
          // code: latent, exactly like the reference.
          if ((parity64(data_mask) ^ (check_mask & 1)) != 0) refetch(w);
          continue;
        }
        const PatternDecode p =
            SecDedCodec::classify_pattern(data_mask, check_mask);
        switch (p.status) {
          case DecodeStatus::Clean:
            break;  // aliased to a valid codeword: latent to a scrub
          case DecodeStatus::Corrected:
            if (p.residual_mask == 0) {
              // Right correction: the decoder rewrote the clean
              // encoding, which truth/truth_check already hold.
              restore_clean(R.protection, image, w);
              ++side.counters.scrub_corrections;
            } else {
              // Miscorrection: self-consistent wrong data. The codec is
              // linear, so the re-encoded check bits are the cached
              // clean ones XOR the residual's check image.
              image.data[w] = image.truth[w] ^ p.residual_mask;
              image.check[w] = static_cast<std::uint8_t>(
                  image.truth_check[w] ^
                  SecDedCodec::compute_check(p.residual_mask));
            }
            side.counters.recovery_cycles += C.write_latency;
            side.counters.recovery_energy_pj += C.write_energy;
            break;
          case DecodeStatus::Detected:
            refetch(w);
            break;
        }
      }
    }
  }
}

void LiveArrayCampaign::run_chunk(const CampaignConfig& config,
                                  CampaignShardState& core,
                                  RecoveryShardSide& side,
                                  std::uint64_t max_strikes,
                                  SensitivityGrid* grid) const {
  FTSPM_REQUIRE(side.initialized,
                "ensure_shard_images must run before run_chunk");
  const auto outcome_of = [](WordRepair repair) {
    switch (repair) {
      case WordRepair::Clean: return StrikeOutcome::Masked;
      case WordRepair::Corrected: return StrikeOutcome::Dre;
      case WordRepair::Refetched: return StrikeOutcome::Dre;
      case WordRepair::Detected: return StrikeOutcome::Due;
      case WordRepair::Unrecoverable: return StrikeOutcome::Due;
      case WordRepair::Silent: return StrikeOutcome::Sdc;
    }
    return StrikeOutcome::Masked;
  };

  const std::uint64_t end = std::min(config.strikes, core.done + max_strikes);
  if (end <= core.done) {
    core.done = end;
    return;
  }

  // Process-wide, once: prove the distance-4 popcount shortcuts the
  // demand walk takes against the real decoder before relying on them.
  static const bool secded_shortcuts_proven =
      verify_secded_popcount_shortcuts();
  (void)secded_shortcuts_proven;

  CampaignScratch::Batch& batch = core.scratch.batch;
  detail::build_region_table(regions_, batch, &RecoveryRegion::inject);
  const detail::FlipCutoffs cuts =
      detail::make_flip_cutoffs(strikes_, config.max_flips);
  const BatchRegionInfo* const region_table = batch.regions.data();
  const std::uint64_t* const pick_breaks = batch.pick_bits.data();
  const std::size_t region_count = batch.regions.size();
  const std::size_t pick_fallback = batch.pick_fallback;

  // The generator runs as a stack copy, written back once per chunk.
  Rng rng = core.rng;
  RecoveryCounters& counters = side.counters;

  // Scrub cadence as a countdown, sparing the per-strike modulo.
  const std::uint64_t interval = policy_.scrub_interval;
  std::uint64_t until_scrub =
      interval != 0 ? interval - core.done % interval : 0;

  // Outcomes tally into a branchless local array (indexed by the enum's
  // 0..3 values), flushed into core.partial once per chunk — the same
  // integer additions the per-strike switch performed, reordered.
  std::uint64_t tallies[4] = {0, 0, 0, 0};

  for (std::uint64_t s = core.done; s < end; ++s) {
    // Aim draws in the reference order: region, origin, multiplicity.
    const std::size_t ri =
        detail::pick_region(rng, pick_breaks, region_count, pick_fallback);
    const BatchRegionInfo& R = region_table[ri];
    const RepairCosts& C = repair_[ri];
    const std::uint64_t origin = rng.next_below(R.physical_bits);
    const std::uint32_t flips =
        detail::sample_flips_draw(rng, cuts, config.max_flips);

    StrikeOutcome outcome = StrikeOutcome::Masked;
    RegionImage& image = side.images[ri];

    // Deposits one struck word's flips and resolves the word on the
    // spot. Words come ascending and unique from both aim paths (the
    // reference's sort + unique), and resolving word w only ever
    // touches w, so depositing the later words afterwards changes
    // nothing the demand read sees. An ACE-masked word (or every word
    // at occupancy <= 0, which takes no draw) keeps its flips latent.
    // Otherwise the word is read and classified in place:
    // classification is draw-free. Forced inline (GNU attribute syntax:
    // GCC ignores [[gnu::always_inline]] on a lambda): with two aim
    // paths calling it, GCC outlines it otherwise and reaches every
    // capture through memory, which slowed the recovery campaign.
    const auto strike_word = [&](std::uint64_t w, detail::GroupMasks gm)
                                 __attribute__((always_inline)) {
      image.data[w] ^= gm.data;
      if (gm.check != 0)
        image.check[w] = static_cast<std::uint8_t>(image.check[w] ^ gm.check);
      if (!detail::draw_bernoulli(rng, R.ace)) return;
      ++counters.demand_reads;
      const std::uint64_t data_mask = image.data[w] ^ image.truth[w];
      const std::uint8_t check_mask =
          C.has_check ? static_cast<std::uint8_t>(image.check[w] ^
                                                  image.truth_check[w])
                      : std::uint8_t{0};

      // A detected-uncorrectable word is restored to its truth either
      // way; with repair on, the re-fetch is booked (or dirty data
      // escalates) — resolve_word's handle_due verbatim.
      const auto handle_due = [&]() {
        restore_clean(R.protection, image, w);
        if (!policy_.recover) return WordRepair::Detected;
        if (detail::draw_bernoulli(rng, C.dirty)) {
          ++counters.unrecoverable;
          return WordRepair::Unrecoverable;
        }
        ++counters.refetches;
        counters.recovery_cycles += C.refetch_cycles;
        counters.recovery_energy_pj += C.refetch_energy;
        return WordRepair::Refetched;
      };

      WordRepair repair = WordRepair::Clean;
      if (R.protection == ProtectionKind::None) {
        // Unchecked words never see their check-half geometry (the
        // reference compares data alone); corruption is consumed.
        if (data_mask != 0) {
          ++counters.sdc_reads;
          image.truth[w] = image.data[w];
          repair = WordRepair::Silent;
        }
      } else if ((data_mask | static_cast<std::uint64_t>(check_mask)) == 0) {
        repair = WordRepair::Clean;
      } else if (R.protection == ProtectionKind::Parity) {
        if ((parity64(data_mask) ^ (check_mask & 1)) != 0) {
          repair = handle_due();
        } else {
          // Even-flip alias consumed: the new truth's parity is the
          // cached clean parity folded with the residual's (the code is
          // linear).
          ++counters.sdc_reads;
          image.truth[w] ^= data_mask;
          image.truth_check[w] = static_cast<std::uint8_t>(
              image.truth_check[w] ^ parity64(data_mask));
          repair = WordRepair::Silent;
        }
      } else if (int pc = std::popcount(data_mask) +
                          std::popcount(static_cast<unsigned>(check_mask));
                 pc <= 2) {  // SecDed, distance-4 shortcuts
        if (pc == 1) {
          // A single surviving flip decodes straight back to the clean
          // word (verify_secded_popcount_shortcuts) — the Corrected /
          // residual == 0 arm below.
          if (policy_.recover) {
            restore_clean(R.protection, image, w);
            counters.recovery_cycles += C.write_latency;
            counters.recovery_energy_pj += C.write_energy;
            ++counters.corrections;
          }
          repair = WordRepair::Corrected;
        } else {
          // Every 2-bit pattern raises the detected flag (ditto).
          repair = handle_due();
        }
      } else {  // SecDed, >= 3 surviving bits: real syndrome
        const PatternDecode p =
            SecDedCodec::classify_pattern(data_mask, check_mask);
        switch (p.status) {
          case DecodeStatus::Clean:
            // Aliased to a valid codeword of the wrong data: the
            // residual is the data mask itself, and its check image
            // folds into the cached truth_check (linearity).
            ++counters.sdc_reads;
            image.truth[w] ^= data_mask;
            image.truth_check[w] = static_cast<std::uint8_t>(
                image.truth_check[w] ^ SecDedCodec::compute_check(data_mask));
            repair = WordRepair::Silent;
            break;
          case DecodeStatus::Corrected: {
            const std::uint64_t residual = p.residual_mask;
            if (residual == 0) {
              // Right correction: the decoder rewrote the clean
              // encoding truth/truth_check already hold.
              if (policy_.recover) {
                restore_clean(R.protection, image, w);
                counters.recovery_cycles += C.write_latency;
                counters.recovery_energy_pj += C.write_energy;
                ++counters.corrections;
              }
              repair = WordRepair::Corrected;
            } else {
              // Miscorrection, then consumed: decoded becomes both the
              // stored word (when repairing) and the new truth, so one
              // linear re-encode serves both.
              const std::uint64_t decoded = image.truth[w] ^ residual;
              const std::uint8_t decoded_check = static_cast<std::uint8_t>(
                  image.truth_check[w] ^ SecDedCodec::compute_check(residual));
              if (policy_.recover) {
                image.data[w] = decoded;
                image.check[w] = decoded_check;
                counters.recovery_cycles += C.write_latency;
                counters.recovery_energy_pj += C.write_energy;
              }
              ++counters.sdc_reads;
              image.truth[w] = decoded;
              image.truth_check[w] = decoded_check;
              repair = WordRepair::Silent;
            }
            break;
          }
          case DecodeStatus::Detected:
            repair = handle_due();
            break;
        }
      }
      outcome = std::max(outcome, outcome_of(repair));
    };

    if (R.protection == ProtectionKind::Immune) {
      // No image, no draw: the reference early-outs too.
    } else if (R.interleave == 1) {
      detail::for_each_run(
          R, origin, std::min<std::uint64_t>(flips, R.physical_bits - origin),
          [&](std::uint64_t w, std::uint32_t lo, std::uint32_t hi) {
            strike_word(w, detail::group_masks(lo, hi));
          });
    } else {
      detail::for_each_interleaved_word(R, core.scratch, origin, flips,
                                        strike_word);
    }

    ++tallies[static_cast<std::size_t>(outcome)];
    if (grid != nullptr) grid->record(ri, origin, outcome);

    if (interval != 0 && --until_scrub == 0) {
      until_scrub = interval;
      scrub_sweep(side, rng, region_table);
    }
  }
  detail::finish_chunk(core, end, rng, tallies[0], tallies[1], tallies[2],
                       tallies[3]);
}

}  // namespace ftspm
