// The two registry counters every campaign kind reports —
// `campaign.strikes` and `campaign.vulnerable` — are booked by the
// sharded driver from each chunk's counter deltas. Their values must
// equal the merged strikes and due + sdc of the run that produced them,
// for every kind and any --jobs, and a resumed run counts only the
// strikes it executed itself.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/obs/metrics.h"
#include "ftspm/workload/case_study.h"

namespace ftspm::exec {
namespace {

struct CampaignCounters {
  std::uint64_t strikes = 0;
  std::uint64_t vulnerable = 0;
};

/// Runs `run` against a fresh, enabled root registry and reads the two
/// campaign counters it left behind.
CampaignCounters count_campaign(const std::function<void()>& run) {
  obs::registry().clear();
  CampaignCounters c;
  {
    const obs::EnabledScope enable(true);
    run();
    c.strikes = obs::registry().counter("campaign.strikes").value();
    c.vulnerable = obs::registry().counter("campaign.vulnerable").value();
  }
  obs::registry().clear();
  return c;
}

void expect_counts(const CampaignCounters& got, const CampaignResult& merged,
                   const std::string& what) {
  EXPECT_EQ(got.strikes, merged.strikes) << what;
  EXPECT_EQ(got.vulnerable, merged.due + merged.sdc) << what;
  EXPECT_GT(got.vulnerable, 0u) << what << " (no vulnerable strike at all)";
}

std::vector<InjectionRegion> surfaces() {
  return {
      InjectionRegion{RegionGeometry(2048, 8), ProtectionKind::SecDed, 0.9,
                      1},
      InjectionRegion{RegionGeometry(1024, 1), ProtectionKind::Parity, 0.8,
                      1},
  };
}

StrikeMultiplicityModel model() {
  return StrikeMultiplicityModel::for_node(40.0);
}

ExecConfig sharded(std::uint32_t jobs) {
  ExecConfig exec;
  exec.jobs = jobs;
  exec.shards = 4;
  exec.chunk_strikes = 2'000;  // several chunks per shard
  return exec;
}

TEST(CampaignCounters, StaticEqualsMergedCounters) {
  CampaignConfig cfg;
  cfg.strikes = 30'000;
  for (const std::uint32_t jobs : {1u, 4u}) {
    ShardedRun run;
    const CampaignCounters c = count_campaign(
        [&] { run = run_campaign_sharded(surfaces(), model(), cfg,
                                         sharded(jobs)); });
    expect_counts(c, run.merged, "static jobs " + std::to_string(jobs));
  }
}

TEST(CampaignCounters, RecoveryEqualsMergedCounters) {
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
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 1'024;

  CampaignConfig cfg;
  cfg.strikes = 20'000;
  for (const std::uint32_t jobs : {1u, 4u}) {
    RecoveryShardedRun run;
    const CampaignCounters c = count_campaign([&] {
      run = run_recovery_campaign_sharded({secded, parity}, model(), cfg,
                                          policy, sharded(jobs));
    });
    expect_counts(c, run.merged.strikes,
                  "recovery jobs " + std::to_string(jobs));
  }
}

TEST(CampaignCounters, TemporalEqualsMergedCounters) {
  const Workload workload = make_case_study(CaseStudyTargets{}.scaled_down(8));
  const ProgramProfile profile = profile_workload(workload);
  const StructureEvaluator evaluator;
  const SystemResult ftspm = evaluator.evaluate_ftspm(workload, profile);

  CampaignConfig cfg;
  cfg.strikes = 20'000;
  for (const std::uint32_t jobs : {1u, 4u}) {
    ShardedRun run;
    const CampaignCounters c = count_campaign([&] {
      run = run_temporal_campaign_parallel(
          evaluator.ftspm_layout(), ftspm.plan, workload.program, profile,
          evaluator.strike_model(), cfg, sharded(jobs));
    });
    expect_counts(c, run.merged, "temporal jobs " + std::to_string(jobs));
  }
}

TEST(CampaignCounters, ResumedRunCountsOnlyItsOwnStrikes) {
  CampaignConfig cfg;
  cfg.strikes = 24'000;
  const char* dir = std::getenv("TMPDIR");
  const std::string path = std::string(dir != nullptr ? dir : "/tmp") +
                           "/ftspm_counter_resume_test." +
                           std::to_string(::getpid());

  // Stopped through `cancel` once 7'000 strikes are reported done.
  std::atomic<bool> stop{false};
  CampaignConfig halting = cfg;
  halting.progress_interval = 1;
  halting.progress = [&](std::uint64_t done, std::uint64_t) {
    if (done >= 7'000) stop.store(true);
  };
  ExecConfig first = sharded(2);
  first.checkpoint_path = path;
  first.chunk_strikes = 1'000;
  first.cancel = &stop;
  ShardedRun halted;
  const CampaignCounters before = count_campaign([&] {
    halted = run_campaign_sharded(surfaces(), model(), halting, first);
  });
  ASSERT_FALSE(halted.complete);
  expect_counts(before, halted.merged, "halted run");

  ExecConfig second = sharded(2);
  second.resume_path = path;
  ShardedRun resumed;
  const CampaignCounters after = count_campaign(
      [&] { resumed = run_campaign_sharded(surfaces(), model(), cfg, second); });
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(after.strikes, cfg.strikes - halted.merged.strikes);
  EXPECT_EQ(after.vulnerable, (resumed.merged.due + resumed.merged.sdc) -
                                  (halted.merged.due + halted.merged.sdc));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ftspm::exec
