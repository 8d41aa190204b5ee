#include "ftspm/fault/recovery.h"

#include <gtest/gtest.h>

#include <vector>

#include "ftspm/core/system_campaign.h"
#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/sim/simulator.h"

namespace ftspm {
namespace {

StrikeMultiplicityModel model() {
  return StrikeMultiplicityModel::for_node(40.0);
}

/// SEC-DED + parity surfaces with sub-unit occupancy so errors can
/// linger unread (the accumulation scrubbing exists to fight) and the
/// masked counter moves too.
std::vector<RecoveryRegion> regions(double occupancy = 0.6) {
  const TechnologyLibrary lib;
  RecoveryRegion secded;
  secded.inject = InjectionRegion{RegionGeometry(2048, 8),
                                  ProtectionKind::SecDed, occupancy, 1};
  secded.tech = lib.secded_sram();
  secded.dirty_fraction = 0.25;
  secded.refetch_words = 32;
  secded.scrub = true;
  RecoveryRegion parity;
  parity.inject = InjectionRegion{RegionGeometry(1024, 1),
                                  ProtectionKind::Parity, occupancy, 1};
  parity.tech = lib.parity_sram();
  parity.dirty_fraction = 0.25;
  parity.refetch_words = 16;
  return {secded, parity};
}

/// The serial recovery campaign: one job, one shard.
RecoveryResult serial_recovery(const std::vector<RecoveryRegion>& surfaces,
                               const CampaignConfig& cfg,
                               const RecoveryPolicy& policy) {
  return exec::run_recovery_campaign_sharded(surfaces, model(), cfg, policy,
                                             {})
      .merged;
}

void expect_same(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.strikes, b.strikes);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.dre, b.dre);
  EXPECT_EQ(a.due, b.due);
  EXPECT_EQ(a.sdc, b.sdc);
}

void expect_same(const RecoveryCounters& a, const RecoveryCounters& b) {
  EXPECT_EQ(a.demand_reads, b.demand_reads);
  EXPECT_EQ(a.corrections, b.corrections);
  EXPECT_EQ(a.scrub_passes, b.scrub_passes);
  EXPECT_EQ(a.scrub_words, b.scrub_words);
  EXPECT_EQ(a.scrub_corrections, b.scrub_corrections);
  EXPECT_EQ(a.refetches, b.refetches);
  EXPECT_EQ(a.unrecoverable, b.unrecoverable);
  EXPECT_EQ(a.sdc_reads, b.sdc_reads);
  EXPECT_EQ(a.recovery_cycles, b.recovery_cycles);
  EXPECT_EQ(a.recovery_energy_pj, b.recovery_energy_pj);
}

TEST(RecoveryCampaignTest, InactivePolicyReproducesTheStaticCampaign) {
  CampaignConfig cfg;
  cfg.strikes = 25'000;
  std::vector<InjectionRegion> inject;
  for (const RecoveryRegion& r : regions()) inject.push_back(r.inject);
  const CampaignResult reference =
      exec::run_campaign_sharded(inject, model(), cfg, {}).merged;

  const RecoveryPolicy policy;  // recover=false, scrub_interval=0
  ASSERT_FALSE(policy.active());
  const RecoveryResult r = serial_recovery(regions(), cfg, policy);
  expect_same(r.strikes, reference);
  expect_same(r.recovery, RecoveryCounters{});
}

TEST(RecoveryCampaignTest, DeterministicForAFixedConfig) {
  CampaignConfig cfg;
  cfg.strikes = 15'000;
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 1'024;
  const RecoveryResult a = serial_recovery(regions(), cfg, policy);
  const RecoveryResult b = serial_recovery(regions(), cfg, policy);
  expect_same(a.strikes, b.strikes);
  expect_same(a.recovery, b.recovery);

  CampaignConfig other = cfg;
  other.seed ^= 1;
  const RecoveryResult c = serial_recovery(regions(), other, policy);
  EXPECT_NE(c.recovery.corrections, a.recovery.corrections);
}

TEST(RecoveryCampaignTest, CountersMoveAndOutcomesStayConsistent) {
  CampaignConfig cfg;
  cfg.strikes = 30'000;
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 2'048;
  const RecoveryResult r = serial_recovery(regions(), cfg, policy);

  EXPECT_EQ(r.strikes.masked + r.strikes.dre + r.strikes.due + r.strikes.sdc,
            r.strikes.strikes);
  EXPECT_GT(r.recovery.demand_reads, 0u);
  EXPECT_GT(r.recovery.corrections, 0u);
  EXPECT_GT(r.recovery.refetches, 0u);
  EXPECT_GT(r.recovery.unrecoverable, 0u);
  EXPECT_GT(r.recovery.recovery_cycles, 0u);
  EXPECT_GT(r.recovery.recovery_energy_pj, 0.0);
  EXPECT_GT(r.recovery.mean_repair_cycles(), 0.0);
  // Every SDC strike consumed at least one wrong value (a strike can
  // touch several words, so the read counter may run ahead).
  EXPECT_GE(r.recovery.sdc_reads, r.strikes.sdc);
  EXPECT_GT(r.strikes.sdc, 0u);
  // Scrubbing swept the SEC-DED region only (the parity one is not
  // flagged), a whole array per pass.
  const std::uint64_t secded_words = regions()[0].inject.geometry.words();
  EXPECT_EQ(r.recovery.scrub_passes, cfg.strikes / policy.scrub_interval);
  EXPECT_EQ(r.recovery.scrub_words,
            r.recovery.scrub_passes * secded_words);
}

TEST(RecoveryCampaignTest, ScrubOnlyModeRepairsLatentErrors) {
  CampaignConfig cfg;
  cfg.strikes = 30'000;
  RecoveryPolicy scrub_only;
  scrub_only.recover = false;
  scrub_only.scrub_interval = 512;
  ASSERT_TRUE(scrub_only.active());
  const RecoveryResult scrubbed =
      serial_recovery(regions(0.3), cfg, scrub_only);
  EXPECT_GT(scrubbed.recovery.scrub_corrections, 0u);
  // Demand reads are modeled but never repair in this mode.
  EXPECT_GT(scrubbed.recovery.demand_reads, 0u);
  EXPECT_EQ(scrubbed.recovery.corrections, 0u);

  // Against a no-scrub baseline the scrub engine must strictly reduce
  // the errors that accumulate into DUE/SDC between demand reads.
  RecoveryPolicy recover_only;
  recover_only.recover = true;
  const RecoveryResult base = serial_recovery(regions(0.3), cfg, recover_only);
  RecoveryPolicy both = recover_only;
  both.scrub_interval = 512;
  const RecoveryResult swept = serial_recovery(regions(0.3), cfg, both);
  EXPECT_LT(swept.strikes.vulnerability(), base.strikes.vulnerability());
}

TEST(RecoveryCampaignTest, RefetchCostMatchesTheSimulatorTransferModel) {
  // Parity protection only ever detects, so with a 0 dirty fraction
  // every detected word is re-fetched and the recovery cycles are
  // exactly refetches x the simulator's DMA transfer formula.
  const TechnologyLibrary lib;
  RecoveryRegion region;
  region.inject =
      InjectionRegion{RegionGeometry(1024, 1), ProtectionKind::Parity, 1.0, 1};
  region.tech = lib.parity_sram();
  region.dirty_fraction = 0.0;
  region.refetch_words = 16;

  CampaignConfig cfg;
  cfg.strikes = 10'000;
  const SimConfig sim;
  const RecoveryPolicy policy =
      make_recovery_policy(sim, /*recover=*/true, /*scrub_interval=*/0);
  const RecoveryResult r = serial_recovery({region}, cfg, policy);
  ASSERT_GT(r.recovery.refetches, 0u);
  EXPECT_EQ(r.recovery.unrecoverable, 0u);
  const std::uint64_t per_refetch = dma_transfer_cycles(
      sim.dma, sim.dram, region.tech.write_latency_cycles,
      region.refetch_words);
  EXPECT_EQ(r.recovery.recovery_cycles,
            r.recovery.refetches * per_refetch);
}

}  // namespace
}  // namespace ftspm
