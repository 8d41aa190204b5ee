#include "ftspm/fault/recovery.h"

#include <algorithm>

#include "ftspm/ecc/parity_codec.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/fault/batch_engine.h"
#include "ftspm/obs/metrics.h"
#include "ftspm/util/error.h"

namespace ftspm {

namespace {

/// Image fill streams live at this offset within the shard's salted
/// seed space, far from the strike stream.
constexpr std::uint64_t kImageStreamBase = 0x1000;

}  // namespace

void LiveArrayCampaign::write_back_word(ProtectionKind protection,
                                        RegionImage& image,
                                        std::uint64_t word,
                                        std::uint64_t value) {
  switch (protection) {
    case ProtectionKind::Immune:
      return;
    case ProtectionKind::None:
      image.data[word] = value;
      return;
    case ProtectionKind::Parity: {
      const ParityWord pw = ParityCodec::encode(value);
      image.data[word] = pw.data;
      image.check[word] = pw.parity;
      return;
    }
    case ProtectionKind::SecDed: {
      const SecDedWord sw = SecDedCodec::encode(value);
      image.data[word] = sw.data;
      image.check[word] = sw.check;
      return;
    }
  }
}

LiveArrayCampaign::LiveArrayCampaign(std::vector<RecoveryRegion> regions,
                                     const StrikeMultiplicityModel& strikes,
                                     const RecoveryPolicy& policy)
    : regions_(std::move(regions)), strikes_(strikes), policy_(policy) {
  FTSPM_REQUIRE(!regions_.empty(), "campaign needs at least one region");
  repair_.reserve(regions_.size());
  for (const RecoveryRegion& r : regions_) {
    FTSPM_REQUIRE(r.inject.ace_occupancy >= 0.0 && r.inject.ace_occupancy <= 1.0,
                  "ace_occupancy out of [0,1]");
    FTSPM_REQUIRE(r.inject.interleave >= 1, "interleave degree must be >= 1");
    FTSPM_REQUIRE(r.dirty_fraction >= 0.0 && r.dirty_fraction <= 1.0,
                  "dirty_fraction out of [0,1]");
    const std::uint64_t words = r.inject.geometry.words();
    const std::uint64_t refetch_words =
        std::max<std::uint64_t>(1, r.refetch_words);
    const std::uint64_t per_word = std::max<std::uint32_t>(
        policy_.dma_word_cycles, r.tech.write_latency_cycles);
    RepairCosts c;
    c.has_check = r.inject.geometry.check_bits_per_word() != 0;
    c.scrub = r.scrub;
    c.dirty = detail::make_draw_bernoulli(r.dirty_fraction);
    c.write_latency = r.tech.write_latency_cycles;
    c.write_energy = r.tech.write_energy_pj;
    c.scrub_read_cycles = words * r.tech.read_latency_cycles;
    c.scrub_read_energy = static_cast<double>(words) * r.tech.read_energy_pj;
    c.refetch_cycles = policy_.dma_setup_cycles + policy_.dma_line_cycles +
                       refetch_words * per_word;
    c.refetch_energy = static_cast<double>(refetch_words) *
                       (policy_.dram_read_energy_pj + r.tech.write_energy_pj);
    repair_.push_back(c);
  }
}

void LiveArrayCampaign::ensure_shard_images(RecoveryShardSide& side,
                                            std::uint64_t shard_seed) const {
  if (side.initialized) return;
  side.images.assign(regions_.size(), RegionImage{});
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const RecoveryRegion& region = regions_[r];
    if (region.inject.protection == ProtectionKind::Immune) continue;
    const std::uint64_t words = region.inject.geometry.words();
    RegionImage& image = side.images[r];
    image.data.resize(words);
    image.truth.resize(words);
    if (region.inject.geometry.check_bits_per_word() != 0) {
      image.check.resize(words);
      image.truth_check.resize(words);
    }
    // A dedicated fill stream per (shard, region): image contents are
    // independent of the strike sequence, so enabling recovery can
    // never shift the aim draws, and every shard's array differs.
    Rng fill = Rng::for_stream(shard_seed ^ kSeedSalt, kImageStreamBase + r);
    for (std::uint64_t w = 0; w < words; ++w) {
      const std::uint64_t value = fill.next_u64();
      image.truth[w] = value;
      write_back_word(region.inject.protection, image, w, value);
      // A freshly-written word is a clean encoding of its truth.
      if (!image.truth_check.empty()) image.truth_check[w] = image.check[w];
    }
  }
  side.initialized = true;
}

void emit_recovery_metrics(const RecoveryCounters& m) {
  if (!obs::enabled()) return;
  obs::Registry& reg = obs::registry();
  reg.counter("recovery.demand_reads").add(m.demand_reads);
  reg.counter("recovery.corrections").add(m.corrections);
  reg.counter("recovery.scrub_passes").add(m.scrub_passes);
  reg.counter("recovery.scrub_words").add(m.scrub_words);
  reg.counter("recovery.scrub_corrections").add(m.scrub_corrections);
  reg.counter("recovery.refetches").add(m.refetches);
  reg.counter("recovery.unrecoverable").add(m.unrecoverable);
  reg.counter("recovery.sdc_reads").add(m.sdc_reads);
  reg.counter("recovery.cycles").add(m.recovery_cycles);
  reg.gauge("recovery.energy_pj").set(m.recovery_energy_pj);
}

}  // namespace ftspm
