#include "support/campaign_oracles.h"

#include <algorithm>
#include <utility>

#include "ftspm/ecc/parity_codec.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/util/error.h"

namespace ftspm {

namespace {

/// Deposits one physical-bit flip into the stored codeword.
void apply_flip(RegionImage& image, const PhysicalBit& pb) {
  if (pb.bit_in_codeword < RegionGeometry::kDataBitsPerWord) {
    image.data[pb.word_index] ^= 1ULL << pb.bit_in_codeword;
  } else {
    const std::uint32_t check_bit =
        pb.bit_in_codeword - RegionGeometry::kDataBitsPerWord;
    image.check[pb.word_index] =
        static_cast<std::uint8_t>(image.check[pb.word_index] ^
                                  (1u << check_bit));
  }
}

}  // namespace

StrikeOutcome classify_word_oracle(ProtectionKind protection,
                                   const std::vector<std::uint32_t>& bits,
                                   Rng& rng) {
  const std::uint64_t original = rng.next_u64();
  switch (protection) {
    case ProtectionKind::Immune:
      return StrikeOutcome::Masked;
    case ProtectionKind::None: {
      // No check bits: any flip silently corrupts the stored word.
      return bits.empty() ? StrikeOutcome::Masked : StrikeOutcome::Sdc;
    }
    case ProtectionKind::Parity: {
      ParityWord w = ParityCodec::encode(original);
      for (std::uint32_t b : bits) ParityCodec::flip_bit(w, b);
      const DecodeResult r = ParityCodec::decode(w);
      if (r.status == DecodeStatus::Detected) return StrikeOutcome::Due;
      return r.data == original ? StrikeOutcome::Masked : StrikeOutcome::Sdc;
    }
    case ProtectionKind::SecDed: {
      SecDedWord w = SecDedCodec::encode(original);
      for (std::uint32_t b : bits) SecDedCodec::flip_bit(w, b);
      const DecodeResult r = SecDedCodec::decode(w);
      switch (r.status) {
        case DecodeStatus::Clean:
          return r.data == original ? StrikeOutcome::Masked
                                    : StrikeOutcome::Sdc;
        case DecodeStatus::Corrected:
          return r.data == original ? StrikeOutcome::Dre
                                    : StrikeOutcome::Sdc;
        case DecodeStatus::Detected:
          return StrikeOutcome::Due;
      }
      return StrikeOutcome::Sdc;
    }
  }
  throw InvalidArgument("unknown protection kind");
}

StrikeOutcome classify_strike_oracle(const InjectionRegion& region,
                                     std::uint64_t first_bit,
                                     std::uint32_t flips, Rng& rng) {
  FTSPM_REQUIRE(flips >= 1, "a strike flips at least one bit");
  if (region.protection == ProtectionKind::Immune)
    return StrikeOutcome::Masked;

  const std::uint64_t surface = region.geometry.physical_bits();
  FTSPM_REQUIRE(first_bit < surface, "strike origin outside the region");

  // Gather flips per codeword (clipped at the array edge).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> hits;
  for (std::uint32_t k = 0; k < flips && first_bit + k < surface; ++k) {
    const PhysicalBit pb = locate_strike_bit(region, first_bit + k);
    if (pb.word_index >= region.geometry.words()) continue;
    hits.emplace_back(pb.word_index, pb.bit_in_codeword);
  }
  std::sort(hits.begin(), hits.end());

  StrikeOutcome worst = StrikeOutcome::Masked;
  std::size_t i = 0;
  while (i < hits.size()) {
    std::vector<std::uint32_t> word_bits;
    const std::uint64_t word = hits[i].first;
    for (; i < hits.size() && hits[i].first == word; ++i)
      word_bits.push_back(hits[i].second);
    worst = std::max(worst, classify_word_oracle(region.protection, word_bits,
                                                 rng));
  }
  return worst;
}

CampaignOracles::WordRepair CampaignOracles::resolve_word(
    const LiveArrayCampaign& campaign, std::size_t region_index,
    RegionImage& image, std::uint64_t word, Rng& rng,
    RecoveryCounters& counters, bool scrub_pass) {
  const RecoveryRegion& region = campaign.regions_[region_index];
  const ProtectionKind protection = region.inject.protection;
  const TechnologyParams& tech = region.tech;
  // The scrub engine is read-correct-write hardware, so it always
  // repairs; the demand path repairs only when the policy says so.
  const bool repairs = scrub_pass || campaign.policy_.recover;

  // The corruption escaped detection: the consumer now computes with
  // this value, so it becomes the reference for later reads. The
  // cached truth_check must follow the new truth.
  auto consume_silent = [&](std::uint64_t value) {
    ++counters.sdc_reads;
    image.truth[word] = value;
    if (protection == ProtectionKind::Parity)
      image.truth_check[word] = ParityCodec::encode(value).parity;
    else if (protection == ProtectionKind::SecDed)
      image.truth_check[word] = SecDedCodec::compute_check(value);
    return WordRepair::Silent;
  };

  // A detected-uncorrectable word is re-initialized either way (each
  // failure event is charged exactly once); with repair enabled the
  // re-fetch is booked at the DMA transfer cost, and dirty/stack data —
  // which has no valid off-chip copy — escalates instead.
  auto handle_due = [&]() {
    LiveArrayCampaign::write_back_word(protection, image, word,
                                       image.truth[word]);
    if (!repairs) return WordRepair::Detected;
    if (rng.next_bool(region.dirty_fraction)) {
      ++counters.unrecoverable;
      return WordRepair::Unrecoverable;
    }
    ++counters.refetches;
    const std::uint64_t words =
        std::max<std::uint64_t>(1, region.refetch_words);
    const std::uint64_t per_word = std::max<std::uint32_t>(
        campaign.policy_.dma_word_cycles, tech.write_latency_cycles);
    counters.recovery_cycles += campaign.policy_.dma_setup_cycles +
                                campaign.policy_.dma_line_cycles +
                                words * per_word;
    counters.recovery_energy_pj +=
        static_cast<double>(words) *
        (campaign.policy_.dram_read_energy_pj + tech.write_energy_pj);
    return WordRepair::Refetched;
  };

  // The hot path below never materializes a decode: the stored word's
  // error pattern is (data ^ truth, check ^ truth_check) — two XORs —
  // and the codecs are linear, so classify_pattern on that pattern
  // reproduces the full decode. A clean word (the overwhelming case in
  // a scrub sweep) exits on the mask comparison alone, and the decoded
  // value, when one is needed, is truth ^ residual_mask.
  switch (protection) {
    case ProtectionKind::Immune:
      return WordRepair::Clean;
    case ProtectionKind::None: {
      const std::uint64_t data_mask = image.data[word] ^ image.truth[word];
      if (data_mask == 0) return WordRepair::Clean;
      // No check bits: a scrub sweep cannot see the error, a demand
      // read consumes it.
      if (scrub_pass) return WordRepair::Clean;
      return consume_silent(image.data[word]);
    }
    case ProtectionKind::Parity: {
      const std::uint64_t data_mask = image.data[word] ^ image.truth[word];
      const std::uint8_t check_mask = static_cast<std::uint8_t>(
          image.check[word] ^ image.truth_check[word]);
      if ((data_mask | check_mask) == 0) return WordRepair::Clean;
      const PatternDecode p =
          ParityCodec::classify_pattern(data_mask, check_mask);
      if (p.status == DecodeStatus::Detected) return handle_due();
      // Even-flip alias: invisible to the code, latent to a scrub.
      if (scrub_pass) return WordRepair::Clean;
      return consume_silent(image.truth[word] ^ p.residual_mask);
    }
    case ProtectionKind::SecDed: {
      const std::uint64_t data_mask = image.data[word] ^ image.truth[word];
      const std::uint8_t check_mask = static_cast<std::uint8_t>(
          image.check[word] ^ image.truth_check[word]);
      if ((data_mask | check_mask) == 0) return WordRepair::Clean;
      const PatternDecode p =
          SecDedCodec::classify_pattern(data_mask, check_mask);
      switch (p.status) {
        case DecodeStatus::Clean:
          // Aliased to a valid codeword of the wrong data (a zero
          // syndrome with flips present always corrupts data bits).
          if (scrub_pass) return WordRepair::Clean;  // latent
          return consume_silent(image.truth[word] ^ p.residual_mask);
        case DecodeStatus::Corrected: {
          const bool right = p.data_intact();
          const std::uint64_t decoded = image.truth[word] ^ p.residual_mask;
          if (repairs) {
            // Write what the decoder produced — right or miscorrected
            // alike, the hardware cannot tell the difference.
            LiveArrayCampaign::write_back_word(protection, image, word,
                                               decoded);
            counters.recovery_cycles += tech.write_latency_cycles;
            counters.recovery_energy_pj += tech.write_energy_pj;
            if (right) {
              if (scrub_pass)
                ++counters.scrub_corrections;
              else
                ++counters.corrections;
            }
          }
          if (right) return WordRepair::Corrected;
          // Miscorrection: the stored word is now self-consistent
          // wrong data. A scrub leaves it latent (nothing consumed
          // it yet); a demand read consumes it.
          if (scrub_pass) return WordRepair::Clean;
          return consume_silent(decoded);
        }
        case DecodeStatus::Detected:
          return handle_due();
      }
      return WordRepair::Clean;
    }
  }
  throw InvalidArgument("unknown protection kind");
}

void CampaignOracles::scrub_sweep(const LiveArrayCampaign& campaign,
                                  RecoveryShardSide& side, Rng& rng) {
  ++side.counters.scrub_passes;
  for (std::size_t ri = 0; ri < campaign.regions_.size(); ++ri) {
    const RecoveryRegion& region = campaign.regions_[ri];
    if (!region.scrub) continue;
    const std::uint64_t words = region.inject.geometry.words();
    side.counters.scrub_words += words;
    side.counters.recovery_cycles += words * region.tech.read_latency_cycles;
    side.counters.recovery_energy_pj +=
        static_cast<double>(words) * region.tech.read_energy_pj;
    // Immune arrays (relaxed-retention STT-RAM) are swept as a
    // retention refresh: the read cost is real, but there is no
    // codeword image to repair.
    if (region.inject.protection == ProtectionKind::Immune) continue;
    RegionImage& image = side.images[ri];
    for (std::uint64_t w = 0; w < words; ++w)
      resolve_word(campaign, ri, image, w, rng, side.counters,
                   /*scrub_pass=*/true);
  }
}

void CampaignOracles::recovery_chunk(const LiveArrayCampaign& campaign,
                                     const CampaignConfig& config,
                                     CampaignShardState& core,
                                     RecoveryShardSide& side,
                                     std::uint64_t max_strikes,
                                     SensitivityGrid* grid) {
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

  std::vector<double> weights;
  for (const RecoveryRegion& r : campaign.regions())
    weights.push_back(static_cast<double>(r.inject.geometry.physical_bits()));
  std::vector<std::uint64_t> touched;
  const std::uint64_t end = std::min(config.strikes, core.done + max_strikes);
  for (std::uint64_t s = core.done; s < end; ++s) {
    // Aim draws in the static campaign's order (region, origin,
    // multiplicity); recovery draws only ever happen after them,
    // within the strike.
    const std::size_t ri = core.rng.next_discrete(weights);
    const RecoveryRegion& region = campaign.regions_[ri];
    const std::uint64_t surface = region.inject.geometry.physical_bits();
    const std::uint64_t origin = core.rng.next_below(surface);
    const std::uint32_t flips =
        campaign.strikes_.sample_flips(core.rng, config.max_flips);

    StrikeOutcome outcome = StrikeOutcome::Masked;
    if (region.inject.protection != ProtectionKind::Immune) {
      RegionImage& image = side.images[ri];
      touched.clear();
      for (std::uint32_t k = 0; k < flips && origin + k < surface; ++k) {
        const PhysicalBit pb = locate_strike_bit(region.inject, origin + k);
        if (pb.word_index >= region.inject.geometry.words()) continue;
        apply_flip(image, pb);
        touched.push_back(pb.word_index);
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      // Each struck word is demand-read (and decoded) before the next
      // scrub with probability = ACE occupancy; the rest stay latent
      // in the array, free to combine with later strikes.
      for (const std::uint64_t w : touched) {
        if (!core.rng.next_bool(region.inject.ace_occupancy)) continue;
        ++side.counters.demand_reads;
        const WordRepair repair =
            resolve_word(campaign, ri, image, w, core.rng, side.counters,
                         /*scrub_pass=*/false);
        outcome = std::max(outcome, outcome_of(repair));
      }
    }

    switch (outcome) {
      case StrikeOutcome::Masked: ++core.partial.masked; break;
      case StrikeOutcome::Dre: ++core.partial.dre; break;
      case StrikeOutcome::Due: ++core.partial.due; break;
      case StrikeOutcome::Sdc: ++core.partial.sdc; break;
    }
    ++core.partial.strikes;
    if (grid != nullptr) grid->record(ri, origin, outcome);

    if (campaign.policy_.scrub_interval != 0 &&
        (s + 1) % campaign.policy_.scrub_interval == 0)
      scrub_sweep(campaign, side, core.rng);
  }
  core.done = end;
}

void CampaignOracles::temporal_chunk(const TemporalCampaign& campaign,
                                     const CampaignConfig& config,
                                     CampaignShardState& state,
                                     std::uint64_t max_strikes,
                                     SensitivityGrid* grid) {
  std::vector<double> weights;
  for (const InjectionRegion& surface : campaign.surfaces())
    weights.push_back(static_cast<double>(surface.geometry.physical_bits()));
  const std::uint64_t end =
      std::min(config.strikes, state.done + max_strikes);
  for (std::uint64_t s = state.done; s < end; ++s) {
    const std::size_t rid = state.rng.next_discrete(weights);
    const InjectionRegion& surface = campaign.surfaces_[rid];
    const std::uint64_t origin =
        state.rng.next_below(surface.geometry.physical_bits());
    const std::uint64_t word =
        origin / surface.geometry.codeword_bits();
    const std::uint64_t when = state.rng.next_below(campaign.horizon_);

    // Who holds this word right now?
    const ResidencySpan* occupant = nullptr;
    for (const ResidencySpan* span : campaign.region_spans_[rid]) {
      if (span->map_index > when) continue;
      if (span->unmap_index && *span->unmap_index <= when) continue;
      if (word < span->base_word ||
          word >= span->base_word +
                      campaign.program_.block(span->block).size_words())
        continue;
      occupant = span;
      break;
    }

    StrikeOutcome outcome = StrikeOutcome::Masked;
    if (occupant != nullptr) {
      const std::uint32_t flips =
          campaign.strikes_.sample_flips(state.rng, config.max_flips);
      outcome =
          classify_strike(surface, origin, flips, state.rng, state.scratch);
      if (outcome != StrikeOutcome::Masked &&
          !state.rng.next_bool(
              campaign.profile_.ace_fraction(campaign.program_,
                                             occupant->block)))
        outcome = StrikeOutcome::Masked;
    }
    switch (outcome) {
      case StrikeOutcome::Masked: ++state.partial.masked; break;
      case StrikeOutcome::Dre: ++state.partial.dre; break;
      case StrikeOutcome::Due: ++state.partial.due; break;
      case StrikeOutcome::Sdc: ++state.partial.sdc; break;
    }
    ++state.partial.strikes;
    if (grid != nullptr) grid->record(rid, origin, outcome);
  }
  state.done = end;
}

}  // namespace ftspm
