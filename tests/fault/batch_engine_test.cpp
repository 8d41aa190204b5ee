// The campaign chunk engine (injector_batch.cpp) against a
// strike-at-a-time reference that replays the documented RNG draw
// order (docs/performance.md, "RNG draw-order contract") through the
// classify_strike oracle. The engine reorders *work* — region tables,
// LUT classification — but never *draws*, so every schedule below must
// reproduce the reference counters and leave the generator at the
// reference's stream position: any chunk schedule, with or without a
// sensitivity grid. The stream
// position is probed directly (one next_u64 after the run), so a loop
// that burns or skips a single draw fails at once rather than through
// counter drift.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/mem/geometry.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/util/rng.h"
#include "ftspm/workload/case_study.h"
#include "support/campaign_oracles.h"

namespace ftspm {
namespace {

/// Counters plus the generator's next draw after the campaign.
struct StaticRun {
  CampaignResult strikes;
  std::uint64_t rng_probe = 0;
};

/// One strike at a time, drawing exactly what docs/performance.md
/// promises: region pick, origin, multiplicity (with its coin-flip
/// tail), one burn per struck codeword inside classify_strike, then
/// the ACE draw iff the pre-ACE outcome was not Masked.
StaticRun reference_campaign(const std::vector<InjectionRegion>& regions,
                             const StrikeMultiplicityModel& model,
                             const CampaignConfig& cfg,
                             SensitivityGrid* grid = nullptr) {
  std::vector<double> weights;
  weights.reserve(regions.size());
  for (const InjectionRegion& r : regions)
    weights.push_back(static_cast<double>(r.geometry.physical_bits()));
  Rng rng(cfg.seed);
  CampaignScratch scratch;
  CampaignResult res;
  res.strikes = cfg.strikes;
  for (std::uint64_t s = 0; s < cfg.strikes; ++s) {
    const std::size_t idx = rng.next_discrete(weights);
    const InjectionRegion& region = regions[idx];
    const std::uint64_t origin =
        rng.next_below(region.geometry.physical_bits());
    const std::uint32_t flips = model.sample_flips(rng, cfg.max_flips);
    StrikeOutcome o = classify_strike(region, origin, flips, rng, scratch);
    if (o != StrikeOutcome::Masked && !rng.next_bool(region.ace_occupancy))
      o = StrikeOutcome::Masked;
    switch (o) {
      case StrikeOutcome::Masked: ++res.masked; break;
      case StrikeOutcome::Dre: ++res.dre; break;
      case StrikeOutcome::Due: ++res.due; break;
      case StrikeOutcome::Sdc: ++res.sdc; break;
    }
    if (grid != nullptr) grid->record(idx, origin, o);
  }
  return StaticRun{res, rng.next_u64()};
}

/// The chunk engine over `schedule` (chunk sizes).
StaticRun engine_campaign(const std::vector<InjectionRegion>& regions,
                          const StrikeMultiplicityModel& model,
                          const CampaignConfig& cfg,
                          SensitivityGrid* grid = nullptr,
                          std::vector<std::uint64_t> schedule = {}) {
  if (schedule.empty()) schedule.push_back(cfg.strikes);
  CampaignShardState state = begin_campaign_shard(cfg.seed);
  for (const std::uint64_t step : schedule)
    run_campaign_chunk(regions, model, cfg, state, step, grid);
  return StaticRun{state.partial, state.rng.next_u64()};
}

void expect_equal(const CampaignResult& got, const CampaignResult& want,
                  const std::string& what) {
  EXPECT_EQ(got.strikes, want.strikes) << what;
  EXPECT_EQ(got.masked, want.masked) << what;
  EXPECT_EQ(got.dre, want.dre) << what;
  EXPECT_EQ(got.due, want.due) << what;
  EXPECT_EQ(got.sdc, want.sdc) << what;
}

void expect_same_run(const StaticRun& got, const StaticRun& want,
                     const std::string& what) {
  expect_equal(got.strikes, want.strikes, what);
  EXPECT_EQ(got.rng_probe, want.rng_probe) << what << " (RNG diverged)";
}

/// The engine with and without a grid against one reference run: same
/// counters, same stream position.
void expect_matches_reference(const std::vector<InjectionRegion>& regions,
                              const StrikeMultiplicityModel& model,
                              const CampaignConfig& cfg,
                              const std::string& what) {
  const StaticRun want = reference_campaign(regions, model, cfg);
  for (const bool gridded : {false, true}) {
    SensitivityGrid grid = make_sensitivity_grid(regions, 16);
    expect_same_run(
        engine_campaign(regions, model, cfg, gridded ? &grid : nullptr), want,
        what + (gridded ? " gridded" : ""));
  }
}

CampaignConfig config_for(std::uint64_t seed, std::uint64_t strikes) {
  CampaignConfig cfg;
  cfg.seed = seed;
  cfg.strikes = strikes;
  return cfg;
}

std::vector<InjectionRegion> mixed_surfaces() {
  return {{RegionGeometry(8192, 8), ProtectionKind::SecDed, 0.9, 1},
          {RegionGeometry(8192, 1), ProtectionKind::Parity, 0.7, 1},
          {RegionGeometry(2048, 0), ProtectionKind::None, 0.4, 1},
          {RegionGeometry(2048, 0), ProtectionKind::Immune, 1.0, 1}};
}

TEST(BatchEngine, MatchesReferenceOnMixedSurfaces) {
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  for (const std::uint64_t seed : {0x57a1ce5eedULL, 0x1234fedcULL})
    expect_matches_reference(mixed_surfaces(), model,
                             config_for(seed, 50'000), "mixed");
}

TEST(BatchEngine, MatchesReferenceUnderInterleaving) {
  // Interleaved regions take the general (gather) path: an m-bit MBU
  // scatters over IL codewords, so run-length classification no longer
  // applies — but the draws must not move.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(4096, 8), ProtectionKind::SecDed, 1.0, 2},
      {RegionGeometry(4096, 8), ProtectionKind::SecDed, 0.6, 4},
      {RegionGeometry(4096, 1), ProtectionKind::Parity, 0.8, 2}};
  expect_matches_reference(regions, model, config_for(0xabcdef01, 30'000),
                           "interleaved");
}

TEST(BatchEngine, MatchesReferenceOnExoticGeometries) {
  // A parity region with two check bits per word fails the
  // lut-classifiable test and must fall back to the general per-word
  // path — with identical outcomes and draws.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(1024, 2), ProtectionKind::Parity, 0.9, 1},
      {RegionGeometry(1024, 8), ProtectionKind::SecDed, 0.5, 1}};
  expect_matches_reference(regions, model, config_for(0x600dcafe, 30'000),
                           "exotic");
}

TEST(BatchEngine, MatchesReferenceWithSpillSizedStrikes) {
  // max_flips beyond CampaignScratch::kInlineHits exercises the spill
  // buffer and the multi-word straddle path in the same run.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  CampaignConfig cfg = config_for(0xfeedf00d, 20'000);
  cfg.max_flips = CampaignScratch::kInlineHits + 32;
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(2048, 8), ProtectionKind::SecDed, 0.75, 1},
      {RegionGeometry(2048, 8), ProtectionKind::SecDed, 0.75, 3}};
  expect_matches_reference(regions, model, cfg, "spill");
}

TEST(BatchEngine, MatchesReferenceAtAceOccupancyEdges) {
  // ace 0 (every unmasked strike dies, no draw) and ace 1 (every one
  // survives, no draw) skip the Bernoulli draw entirely — exactly as
  // Rng::next_bool would — so the stream stays aligned either way.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(4096, 8), ProtectionKind::SecDed, 0.0, 1},
      {RegionGeometry(4096, 8), ProtectionKind::SecDed, 1.0, 1},
      {RegionGeometry(4096, 0), ProtectionKind::None, 0.5, 1}};
  expect_matches_reference(regions, model, config_for(0x0ace0ace, 30'000),
                           "ace edges");
}

TEST(BatchEngine, ChunkScheduleNeverChangesCounters) {
  // Any chunk schedule reaching config.strikes must agree with one
  // serial run — chunks end at arbitrary strikes mid-campaign, so this
  // pins the resume path (checkpointing) too.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const CampaignConfig cfg = config_for(0x7a7aa77a, 30'000);
  const StaticRun want = reference_campaign(mixed_surfaces(), model, cfg);
  const std::vector<std::vector<std::uint64_t>> schedules{
      {30'000},
      {1, 1, 1, 29'997},
      {997, 4096, 30'000},  // over-asking stops at config.strikes
      {10'000, 10'000, 10'000}};
  for (const auto& schedule : schedules)
    expect_same_run(engine_campaign(mixed_surfaces(), model, cfg, nullptr,
                                    schedule),
                    want,
                    "schedule of " + std::to_string(schedule.size()) +
                        " chunks");
}

TEST(BatchEngine, GridNeverChangesCounters) {
  // Attaching a grid only adds the recording sweep: same counters and
  // stream position as the run without one, and the grid totals must
  // re-add to the counters.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const CampaignConfig cfg = config_for(0x9e3779b9, 40'000);
  const StaticRun plain = engine_campaign(mixed_surfaces(), model, cfg);

  SensitivityGrid grid = make_sensitivity_grid(mixed_surfaces(), 16);
  const StaticRun gridded =
      engine_campaign(mixed_surfaces(), model, cfg, &grid);
  expect_same_run(gridded, plain, "gridded vs plain");

  const CampaignResult totals = grid.totals();
  EXPECT_EQ(totals.masked, plain.strikes.masked);
  EXPECT_EQ(totals.dre, plain.strikes.dre);
  EXPECT_EQ(totals.due, plain.strikes.due);
  EXPECT_EQ(totals.sdc, plain.strikes.sdc);
}

TEST(BatchEngine, GridCellsMatchReference) {
  // Not just the grand totals: every (region, bucket, outcome) cell of
  // the sensitivity grid must match the reference recording, byte for
  // byte through the CSV round trip.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const CampaignConfig cfg = config_for(0x5ca1ab1e, 40'000);
  SensitivityGrid engine_grid = make_sensitivity_grid(mixed_surfaces(), 16);
  SensitivityGrid reference_grid = make_sensitivity_grid(mixed_surfaces(), 16);
  const StaticRun engine =
      engine_campaign(mixed_surfaces(), model, cfg, &engine_grid);
  const StaticRun reference =
      reference_campaign(mixed_surfaces(), model, cfg, &reference_grid);
  expect_same_run(engine, reference, "gridded counters");
  EXPECT_EQ(engine_grid.to_csv(), reference_grid.to_csv());
}

// ---------------------------------------------------------------------------
// Recovery: run_chunk (recovery_batch.cpp) against the
// strike-at-a-time reference loop it replaced (CampaignOracles). The contract is
// stronger than counter equality — the stored images, the recovery
// counters (cycles and energy bit for bit), the sensitivity grid, and
// the post-campaign RNG state must all match, under any chunk
// schedule.

RecoveryRegion make_recovery_region(RegionGeometry geom, ProtectionKind prot,
                                    double ace, std::uint32_t interleave,
                                    double dirty, bool scrub) {
  const TechnologyLibrary lib;
  RecoveryRegion region;
  region.inject = InjectionRegion{geom, prot, ace, interleave};
  region.tech = lib.secded_sram();
  region.dirty_fraction = dirty;
  region.refetch_words = 64;
  region.scrub = scrub;
  return region;
}

struct RecoveryRun {
  CampaignResult strikes;
  RecoveryCounters counters;
  std::vector<RegionImage> images;
  std::uint64_t rng_probe = 0;  ///< next_u64 after the campaign
};

RecoveryRun drive_recovery(const LiveArrayCampaign& campaign,
                           const CampaignConfig& cfg, bool batched,
                           const std::vector<std::uint64_t>& schedule,
                           SensitivityGrid* grid = nullptr) {
  CampaignShardState core =
      begin_campaign_shard(cfg.seed ^ LiveArrayCampaign::kSeedSalt);
  RecoveryShardSide side;
  campaign.ensure_shard_images(side, cfg.seed);
  for (const std::uint64_t step : schedule) {
    if (batched)
      campaign.run_chunk(cfg, core, side, step, grid);
    else
      CampaignOracles::recovery_chunk(campaign, cfg, core, side, step, grid);
  }
  RecoveryRun run;
  run.strikes = core.partial;
  run.counters = side.counters;
  run.images = std::move(side.images);
  run.rng_probe = core.rng.next_u64();
  return run;
}

void expect_recovery_equal(const RecoveryRun& got, const RecoveryRun& want,
                           const std::string& what) {
  expect_equal(got.strikes, want.strikes, what);
  EXPECT_EQ(got.counters.demand_reads, want.counters.demand_reads) << what;
  EXPECT_EQ(got.counters.corrections, want.counters.corrections) << what;
  EXPECT_EQ(got.counters.scrub_passes, want.counters.scrub_passes) << what;
  EXPECT_EQ(got.counters.scrub_words, want.counters.scrub_words) << what;
  EXPECT_EQ(got.counters.scrub_corrections, want.counters.scrub_corrections)
      << what;
  EXPECT_EQ(got.counters.refetches, want.counters.refetches) << what;
  EXPECT_EQ(got.counters.unrecoverable, want.counters.unrecoverable) << what;
  EXPECT_EQ(got.counters.sdc_reads, want.counters.sdc_reads) << what;
  EXPECT_EQ(got.counters.recovery_cycles, want.counters.recovery_cycles)
      << what;
  // Bit-identical, not approximately: both loops accumulate energy in
  // the same per-event order.
  EXPECT_EQ(got.counters.recovery_energy_pj, want.counters.recovery_energy_pj)
      << what;
  EXPECT_EQ(got.rng_probe, want.rng_probe) << what << " (RNG diverged)";
  ASSERT_EQ(got.images.size(), want.images.size()) << what;
  for (std::size_t r = 0; r < got.images.size(); ++r) {
    EXPECT_EQ(got.images[r].data, want.images[r].data) << what << " region "
                                                       << r;
    EXPECT_EQ(got.images[r].check, want.images[r].check) << what << " region "
                                                         << r;
    EXPECT_EQ(got.images[r].truth, want.images[r].truth) << what << " region "
                                                         << r;
    EXPECT_EQ(got.images[r].truth_check, want.images[r].truth_check)
        << what << " region " << r;
  }
}

TEST(BatchEngineRecovery, MatchesReferenceAcrossScrubDirtyAndOccupancy) {
  // The axes the batched demand walk and scrub sweep branch on:
  // scrub-interval edges (0 = never, 1 = every strike, 7 = ragged,
  // 2048 = the golden shape), dirty-fraction refetch arms (0 = always
  // re-fetch, 1 = always unrecoverable, draws in between), and ACE
  // occupancy boundaries (0 and 1 skip the Bernoulli draw entirely).
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const struct {
    std::uint64_t interval;
    double ace, dirty;
    bool recover;
  } shapes[] = {{0, 0.25, 0.25, true},  {1, 0.25, 0.25, true},
                {7, 1.0, 0.0, true},    {2048, 0.25, 0.5, true},
                {256, 0.05, 1.0, true}, {64, 0.0, 0.25, true},
                {32, 0.5, 0.25, false},  // scrub-only: no demand repair
                {0, 0.5, 0.25, false}};  // inert policy shape
  for (const auto& s : shapes) {
    RecoveryPolicy policy;
    policy.recover = s.recover;
    policy.scrub_interval = s.interval;
    const LiveArrayCampaign campaign(
        {make_recovery_region(RegionGeometry(4096, 8), ProtectionKind::SecDed,
                              s.ace, 1, s.dirty, true)},
        model, policy);
    const CampaignConfig cfg = config_for(0x57a1ce5eed, 15'000);
    expect_recovery_equal(
        drive_recovery(campaign, cfg, true, {cfg.strikes}),
        drive_recovery(campaign, cfg, false, {cfg.strikes}),
        "interval=" + std::to_string(s.interval) +
            " ace=" + std::to_string(s.ace) +
            " dirty=" + std::to_string(s.dirty) +
            " recover=" + std::to_string(s.recover));
  }
}

TEST(BatchEngineRecovery, MatchesReferenceOnMixedProtections) {
  // Every protection arm of the demand walk and scrub sweep in one
  // campaign, including interleaved SEC-DED (gather path) and the
  // None-with-check-bits regression: a strike into an unprotected
  // region's check plane must stay Masked/Clean — the reference
  // consults the data mask alone, and so must the batched verdict.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const std::vector<RecoveryRegion> regions{
      make_recovery_region(RegionGeometry(2048, 8), ProtectionKind::SecDed,
                           0.8, 2, 0.25, true),
      make_recovery_region(RegionGeometry(2048, 1), ProtectionKind::Parity,
                           0.7, 1, 0.5, true),
      make_recovery_region(RegionGeometry(1024, 8), ProtectionKind::None, 0.6,
                           1, 0.25, false),
      make_recovery_region(RegionGeometry(1024, 0), ProtectionKind::None, 0.4,
                           1, 0.25, false),
      make_recovery_region(RegionGeometry(1024, 0), ProtectionKind::Immune,
                           1.0, 1, 0.0, false)};
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 128;
  const LiveArrayCampaign campaign(regions, model, policy);
  for (const std::uint64_t seed : {0x57a1ce5eedULL, 0x1234fedcULL}) {
    const CampaignConfig cfg = config_for(seed, 20'000);
    expect_recovery_equal(drive_recovery(campaign, cfg, true, {cfg.strikes}),
                          drive_recovery(campaign, cfg, false, {cfg.strikes}),
                          "mixed seed=" + std::to_string(seed));
  }
}

TEST(BatchEngineRecovery, ChunkScheduleNeverChangesCountersOrImages) {
  // Chunk cuts land mid-scrub-countdown; the batched loop must carry
  // the countdown, images, and RNG across cuts exactly like the
  // reference run in one piece.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 100;
  const LiveArrayCampaign campaign(
      {make_recovery_region(RegionGeometry(4096, 8), ProtectionKind::SecDed,
                            0.25, 1, 0.25, true)},
      model, policy);
  const CampaignConfig cfg = config_for(0x7a7aa77a, 15'000);
  const RecoveryRun want =
      drive_recovery(campaign, cfg, false, {cfg.strikes});
  const std::vector<std::vector<std::uint64_t>> schedules{
      {15'000},
      {1, 1, 1, 14'997},
      {99, 101, 14'800},  // cuts straddling the scrub countdown
      {5'000, 5'000, 5'000},
      {997, 4096, 15'000}};  // over-asking stops at config.strikes
  for (const auto& schedule : schedules) {
    expect_recovery_equal(
        drive_recovery(campaign, cfg, true, schedule), want,
        "schedule of " + std::to_string(schedule.size()) + " chunks");
  }
}

TEST(BatchEngineRecovery, GridCellsMatchReference) {
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 512;
  const std::vector<RecoveryRegion> regions{
      make_recovery_region(RegionGeometry(4096, 8), ProtectionKind::SecDed,
                           0.5, 1, 0.25, true),
      make_recovery_region(RegionGeometry(4096, 1), ProtectionKind::Parity,
                           0.7, 1, 0.5, true)};
  const LiveArrayCampaign campaign(regions, model, policy);
  std::vector<InjectionRegion> surfaces;
  for (const RecoveryRegion& r : regions) surfaces.push_back(r.inject);
  SensitivityGrid batched_grid = make_sensitivity_grid(surfaces, 16);
  SensitivityGrid reference_grid = make_sensitivity_grid(surfaces, 16);
  const CampaignConfig cfg = config_for(0x5ca1ab1e, 20'000);
  expect_recovery_equal(
      drive_recovery(campaign, cfg, true, {cfg.strikes}, &batched_grid),
      drive_recovery(campaign, cfg, false, {cfg.strikes}, &reference_grid),
      "gridded recovery");
  EXPECT_EQ(batched_grid.to_csv(), reference_grid.to_csv());
}

// ---------------------------------------------------------------------------
// Temporal: run_chunk (system_campaign_batch.cpp) against
// the reference loop (CampaignOracles) over the case-study schedule —
// the only workload with real residency spans, unmap indices, and
// per-block ACE fractions.

struct TemporalFixture {
  Workload workload;
  ProgramProfile profile;
  StructureEvaluator evaluator;
  SystemResult system;

  TemporalFixture()
      : workload(make_case_study(CaseStudyTargets{}.scaled_down(8))),
        profile(profile_workload(workload)),
        system(evaluator.evaluate_ftspm(workload, profile)) {}
};

struct TemporalRun {
  CampaignResult strikes;
  std::uint64_t rng_probe = 0;
};

TemporalRun drive_temporal(const TemporalCampaign& campaign,
                           const CampaignConfig& cfg, bool batched,
                           const std::vector<std::uint64_t>& schedule,
                           SensitivityGrid* grid = nullptr) {
  CampaignShardState state =
      begin_campaign_shard(cfg.seed ^ TemporalCampaign::kSeedSalt);
  for (const std::uint64_t step : schedule) {
    if (batched)
      campaign.run_chunk(cfg, state, step, grid);
    else
      CampaignOracles::temporal_chunk(campaign, cfg, state, step, grid);
  }
  return TemporalRun{state.partial, state.rng.next_u64()};
}

TEST(BatchEngineTemporal, MatchesReferenceAcrossWidthsAndChunks) {
  const TemporalFixture fix;
  const TemporalCampaign campaign(fix.evaluator.ftspm_layout(),
                                  fix.system.plan, fix.workload.program,
                                  fix.profile, fix.evaluator.strike_model());
  for (const std::uint64_t seed : {0x57a1ce5eedULL, 0x1234fedcULL}) {
    const CampaignConfig cfg = config_for(seed, 25'000);
    const TemporalRun want =
        drive_temporal(campaign, cfg, false, {cfg.strikes});
    const TemporalRun whole =
        drive_temporal(campaign, cfg, true, {cfg.strikes});
    expect_equal(whole.strikes, want.strikes, "temporal");
    EXPECT_EQ(whole.rng_probe, want.rng_probe) << "one chunk";
    for (const std::vector<std::uint64_t>& schedule :
         std::vector<std::vector<std::uint64_t>>{
             {1, 1, 1, 24'997}, {997, 4096, 25'000}, {5'000, 5'000, 15'000}}) {
      const TemporalRun got = drive_temporal(campaign, cfg, true, schedule);
      expect_equal(got.strikes, want.strikes, "temporal chunk schedule");
      EXPECT_EQ(got.rng_probe, want.rng_probe) << "chunk schedule";
    }
  }
}

TEST(BatchEngineTemporal, GridCellsMatchReference) {
  const TemporalFixture fix;
  const TemporalCampaign campaign(fix.evaluator.ftspm_layout(),
                                  fix.system.plan, fix.workload.program,
                                  fix.profile, fix.evaluator.strike_model());
  SensitivityGrid batched_grid =
      make_sensitivity_grid(campaign.surfaces(), 16);
  SensitivityGrid reference_grid =
      make_sensitivity_grid(campaign.surfaces(), 16);
  const CampaignConfig cfg = config_for(0x9e3779b9, 25'000);
  const TemporalRun batched =
      drive_temporal(campaign, cfg, true, {cfg.strikes}, &batched_grid);
  const TemporalRun reference =
      drive_temporal(campaign, cfg, false, {cfg.strikes}, &reference_grid);
  expect_equal(batched.strikes, reference.strikes, "gridded temporal");
  EXPECT_EQ(batched.rng_probe, reference.rng_probe);
  EXPECT_EQ(batched_grid.to_csv(), reference_grid.to_csv());
}

}  // namespace
}  // namespace ftspm
