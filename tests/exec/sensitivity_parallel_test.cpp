// Jobs-invariance contract of the per-shard sensitivity grids: for a
// fixed shard count the merged grid is byte-identical across --jobs,
// a one-shard run reproduces the serial grid, and requesting a grid
// never changes the campaign counters (same RNG stream either way).
#include "ftspm/exec/parallel_campaign.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ftspm/fault/injector.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/obs/metrics.h"

namespace ftspm::exec {
namespace {

std::vector<InjectionRegion> surfaces() {
  return {
      InjectionRegion{RegionGeometry(2048, 8), ProtectionKind::SecDed, 0.9,
                      1},
      InjectionRegion{RegionGeometry(1024, 1), ProtectionKind::Parity, 0.8,
                      1},
  };
}

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

StrikeMultiplicityModel model() {
  return StrikeMultiplicityModel::for_node(40.0);
}

void expect_same(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.strikes, b.strikes);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.dre, b.dre);
  EXPECT_EQ(a.due, b.due);
  EXPECT_EQ(a.sdc, b.sdc);
}

TEST(SensitivityParallelTest, GridIsByteIdenticalAcrossJobCounts) {
  CampaignConfig cfg;
  cfg.strikes = 30'000;
  std::vector<std::string> csvs;
  std::vector<CampaignResult> merged;
  for (std::uint32_t jobs : {1u, 2u, 8u}) {
    ExecConfig exec;
    exec.shards = 4;
    exec.jobs = jobs;
    exec.sensitivity_buckets = 32;
    const ShardedRun run = run_campaign_sharded(surfaces(), model(), cfg,
                                                exec);
    ASSERT_TRUE(run.sensitivity.active());
    csvs.push_back(run.sensitivity.to_csv());
    merged.push_back(run.merged);
  }
  EXPECT_EQ(csvs[0], csvs[1]);
  EXPECT_EQ(csvs[0], csvs[2]);
  expect_same(merged[0], merged[1]);
  expect_same(merged[0], merged[2]);
}

TEST(SensitivityParallelTest, OneShardGridMatchesSerialRecording) {
  CampaignConfig cfg;
  cfg.strikes = 12'000;
  // Serial recording: the engine over the whole run in one chunk on
  // this thread, into one grid.
  SensitivityGrid serial = make_sensitivity_grid(surfaces(), 32);
  CampaignShardState state = begin_campaign_shard(cfg.seed);
  run_campaign_chunk(surfaces(), model(), cfg, state, cfg.strikes, &serial);

  ExecConfig exec;
  exec.jobs = 2;
  exec.shards = 1;
  exec.sensitivity_buckets = 32;
  const ShardedRun run = run_campaign_sharded(surfaces(), model(), cfg,
                                              exec);
  ASSERT_TRUE(run.sensitivity.active());
  EXPECT_EQ(run.sensitivity.to_csv(), serial.to_csv());
}

TEST(SensitivityParallelTest, GridNeverPerturbsCountersAndSumsToThem) {
  CampaignConfig cfg;
  cfg.strikes = 20'000;
  ExecConfig plain;
  plain.shards = 3;
  plain.jobs = 2;
  ExecConfig with_grid = plain;
  with_grid.sensitivity_buckets = 16;

  const ShardedRun a = run_campaign_sharded(surfaces(), model(), cfg, plain);
  const ShardedRun b = run_campaign_sharded(surfaces(), model(), cfg,
                                            with_grid);
  EXPECT_FALSE(a.sensitivity.active());
  expect_same(a.merged, b.merged);
  // Every strike of the run landed in exactly one grid cell.
  expect_same(b.sensitivity.totals(), b.merged);
  ASSERT_EQ(b.sensitivity.region_count(), surfaces().size());
  for (std::size_t i = 0; i < surfaces().size(); ++i)
    EXPECT_EQ(b.sensitivity.regions()[i].physical_bits,
              surfaces()[i].geometry.physical_bits());
}

TEST(SensitivityParallelTest, RecoveryGridIsJobsInvariant) {
  CampaignConfig cfg;
  cfg.strikes = 12'000;
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 1'024;

  std::vector<std::string> csvs;
  for (std::uint32_t jobs : {1u, 2u, 8u}) {
    ExecConfig exec;
    exec.shards = 4;
    exec.jobs = jobs;
    exec.sensitivity_buckets = 32;
    const RecoveryShardedRun run = run_recovery_campaign_sharded(
        recovery_regions(), model(), cfg, policy, exec);
    ASSERT_TRUE(run.sensitivity.active());
    csvs.push_back(run.sensitivity.to_csv());
    expect_same(run.sensitivity.totals(), run.merged.strikes);
  }
  EXPECT_EQ(csvs[0], csvs[1]);
  EXPECT_EQ(csvs[0], csvs[2]);
}

TEST(SensitivityParallelTest, RecoveryDelegateKeepsTheGrid) {
  // With an inactive policy the recovery runner delegates to the
  // static campaign; the grid must ride through the delegation.
  CampaignConfig cfg;
  cfg.strikes = 8'000;
  ExecConfig exec;
  exec.shards = 2;
  exec.jobs = 2;
  exec.sensitivity_buckets = 16;
  const RecoveryShardedRun run = run_recovery_campaign_sharded(
      recovery_regions(), model(), cfg, RecoveryPolicy{}, exec);
  ASSERT_TRUE(run.sensitivity.active());
  expect_same(run.sensitivity.totals(), run.merged.strikes);
}

TEST(SensitivityParallelTest, LabelledMetricsSnapshotIsJobsInvariant) {
  // emit_sensitivity_metrics over the merged grid plus the campaign's
  // own labelled counters must be a pure function of (seed, strikes,
  // shards) — the full registry snapshot can't depend on --jobs.
  CampaignConfig cfg;
  cfg.strikes = 20'000;
  std::vector<std::string> snapshots;
  for (std::uint32_t jobs : {1u, 2u, 8u}) {
    obs::registry().clear();
    const obs::EnabledScope enable(true);
    ExecConfig exec;
    exec.shards = 4;
    exec.jobs = jobs;
    exec.sensitivity_buckets = 32;
    const ShardedRun run = run_campaign_sharded(surfaces(), model(), cfg,
                                                exec);
    emit_sensitivity_metrics(run.sensitivity, "static");
    snapshots.push_back(obs::registry().to_json());
  }
  obs::registry().clear();
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
  EXPECT_NE(snapshots[0].find("labelled_counters"), std::string::npos);
  EXPECT_NE(snapshots[0].find("campaign.bucket_strikes"), std::string::npos);
}

}  // namespace
}  // namespace ftspm::exec
