// Determinism contract of the sharded live-array recovery campaign:
// merged strike AND recovery counters (and the JSON report rendered
// from them) must be identical whatever --jobs or chunk size says.
#include "ftspm/exec/parallel_campaign.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ftspm/fault/injector.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/report/json_report.h"
#include "ftspm/util/error.h"

namespace ftspm::exec {
namespace {

StrikeMultiplicityModel model() {
  return StrikeMultiplicityModel::for_node(40.0);
}

/// Mirrors parallel_campaign_test's surfaces() with the recovery-side
/// context attached; sub-unit occupancy leaves latent errors for the
/// scrub engine so every recovery counter moves.
std::vector<RecoveryRegion> recovery_regions() {
  const TechnologyLibrary lib;
  RecoveryRegion secded;
  secded.inject =
      InjectionRegion{RegionGeometry(2048, 8), ProtectionKind::SecDed, 0.6, 1};
  secded.tech = lib.secded_sram();
  secded.dirty_fraction = 0.25;
  secded.refetch_words = 32;
  secded.scrub = true;
  RecoveryRegion parity;
  parity.inject =
      InjectionRegion{RegionGeometry(1024, 1), ProtectionKind::Parity, 0.5, 1};
  parity.tech = lib.parity_sram();
  parity.dirty_fraction = 0.25;
  parity.refetch_words = 16;
  return {secded, parity};
}

RecoveryPolicy policy() {
  RecoveryPolicy p;
  p.recover = true;
  p.scrub_interval = 1'024;
  return p;
}

void expect_same(const RecoveryResult& a, const RecoveryResult& b) {
  EXPECT_EQ(a.strikes.strikes, b.strikes.strikes);
  EXPECT_EQ(a.strikes.masked, b.strikes.masked);
  EXPECT_EQ(a.strikes.dre, b.strikes.dre);
  EXPECT_EQ(a.strikes.due, b.strikes.due);
  EXPECT_EQ(a.strikes.sdc, b.strikes.sdc);
  EXPECT_EQ(a.recovery.demand_reads, b.recovery.demand_reads);
  EXPECT_EQ(a.recovery.corrections, b.recovery.corrections);
  EXPECT_EQ(a.recovery.scrub_passes, b.recovery.scrub_passes);
  EXPECT_EQ(a.recovery.scrub_words, b.recovery.scrub_words);
  EXPECT_EQ(a.recovery.scrub_corrections, b.recovery.scrub_corrections);
  EXPECT_EQ(a.recovery.refetches, b.recovery.refetches);
  EXPECT_EQ(a.recovery.unrecoverable, b.recovery.unrecoverable);
  EXPECT_EQ(a.recovery.sdc_reads, b.recovery.sdc_reads);
  EXPECT_EQ(a.recovery.recovery_cycles, b.recovery.recovery_cycles);
  EXPECT_EQ(a.recovery.recovery_energy_pj, b.recovery.recovery_energy_pj);
}

TEST(RecoveryParallelCampaignTest, OneShardReproducesTheSerialCampaign) {
  CampaignConfig cfg;
  cfg.strikes = 12'000;
  // The serial campaign: the engine driven over the whole run in one
  // chunk on this thread — no runner, no pool.
  const StrikeMultiplicityModel strikes = model();
  const LiveArrayCampaign campaign(recovery_regions(), strikes, policy());
  CampaignShardState core =
      begin_campaign_shard(cfg.seed ^ LiveArrayCampaign::kSeedSalt);
  RecoveryShardSide side;
  campaign.ensure_shard_images(side, cfg.seed);
  campaign.run_chunk(cfg, core, side, cfg.strikes);
  const RecoveryResult serial{core.partial, side.counters};

  for (std::uint32_t jobs : {1u, 2u}) {
    ExecConfig exec;
    exec.jobs = jobs;
    exec.shards = 1;
    const RecoveryShardedRun run = run_recovery_campaign_sharded(
        recovery_regions(), model(), cfg, policy(), exec);
    EXPECT_TRUE(run.complete);
    expect_same(run.merged, serial);
  }
}

TEST(RecoveryParallelCampaignTest, ResultsIdenticalAcrossJobCounts) {
  CampaignConfig cfg;
  cfg.strikes = 24'000;
  ExecConfig base;
  base.shards = 4;

  ExecConfig one = base, two = base, eight = base;
  one.jobs = 1;
  two.jobs = 2;
  eight.jobs = 8;
  const RecoveryShardedRun a = run_recovery_campaign_sharded(
      recovery_regions(), model(), cfg, policy(), one);
  const RecoveryShardedRun b = run_recovery_campaign_sharded(
      recovery_regions(), model(), cfg, policy(), two);
  const RecoveryShardedRun c = run_recovery_campaign_sharded(
      recovery_regions(), model(), cfg, policy(), eight);
  expect_same(a.merged, b.merged);
  expect_same(a.merged, c.merged);
  ASSERT_EQ(a.shard_results.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    expect_same(a.shard_results[i], b.shard_results[i]);
    expect_same(a.shard_results[i], c.shard_results[i]);
  }
  // The JSON report renders fixed-order fields from the merged
  // counters, so it must be byte-identical too (the CLI's --json
  // contract).
  const std::string ja = campaign_json(a.merged.strikes, &a.merged.recovery);
  const std::string jc = campaign_json(c.merged.strikes, &c.merged.recovery);
  EXPECT_EQ(ja, jc);
  // The split must exercise the recovery pipeline for this to mean
  // anything.
  EXPECT_GT(a.merged.recovery.corrections, 0u);
  EXPECT_GT(a.merged.recovery.scrub_corrections, 0u);
  EXPECT_GT(a.merged.recovery.refetches, 0u);
  EXPECT_GT(a.merged.recovery.unrecoverable, 0u);
}

TEST(RecoveryParallelCampaignTest, ChunkSizeNeverChangesResults) {
  CampaignConfig cfg;
  cfg.strikes = 9'000;
  ExecConfig coarse;
  coarse.shards = 2;
  ExecConfig fine = coarse;
  fine.chunk_strikes = 577;  // forces many oddly-aligned chunks
  const RecoveryShardedRun a = run_recovery_campaign_sharded(
      recovery_regions(), model(), cfg, policy(), coarse);
  const RecoveryShardedRun b = run_recovery_campaign_sharded(
      recovery_regions(), model(), cfg, policy(), fine);
  expect_same(a.merged, b.merged);
}

TEST(RecoveryParallelCampaignTest, InactivePolicyDelegatesToStaticSharding) {
  CampaignConfig cfg;
  cfg.strikes = 10'000;
  ExecConfig exec;
  exec.shards = 3;
  std::vector<InjectionRegion> inject;
  for (const RecoveryRegion& r : recovery_regions())
    inject.push_back(r.inject);
  const ShardedRun reference =
      run_campaign_sharded(inject, model(), cfg, exec);

  const RecoveryPolicy inactive;
  const RecoveryShardedRun run = run_recovery_campaign_sharded(
      recovery_regions(), model(), cfg, inactive, exec);
  EXPECT_EQ(run.merged.strikes.masked, reference.merged.masked);
  EXPECT_EQ(run.merged.strikes.dre, reference.merged.dre);
  EXPECT_EQ(run.merged.strikes.due, reference.merged.due);
  EXPECT_EQ(run.merged.strikes.sdc, reference.merged.sdc);
  EXPECT_EQ(run.merged.recovery.demand_reads, 0u);
  EXPECT_EQ(run.merged.recovery.recovery_cycles, 0u);
}

TEST(RecoveryParallelCampaignTest, CheckpointAndResumeAreRejected) {
  CampaignConfig cfg;
  cfg.strikes = 1'000;
  ExecConfig exec;
  exec.shards = 2;
  exec.checkpoint_path = "/tmp/ftspm_recovery_ckpt_reject.json";
  EXPECT_THROW(run_recovery_campaign_sharded(recovery_regions(), model(),
                                             cfg, policy(), exec),
               Error);
  ExecConfig resume;
  resume.shards = 2;
  resume.resume_path = "/tmp/ftspm_recovery_ckpt_reject.json";
  EXPECT_THROW(run_recovery_campaign_sharded(recovery_regions(), model(),
                                             cfg, policy(), resume),
               Error);
}

}  // namespace
}  // namespace ftspm::exec
