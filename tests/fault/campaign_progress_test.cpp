// Regression tests for the campaign progress contract: invoked at the
// first chunk boundary progress_interval strikes past the previous
// report, plus once at completion — and exactly once at completion even
// when the total is an exact multiple of the interval (the historical
// double-fire shape). One-strike chunks make every strike a boundary,
// so the reports land exactly on the interval multiples.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/strike_model.h"

namespace ftspm {
namespace {

std::vector<std::pair<std::uint64_t, std::uint64_t>> run_with_progress(
    std::uint64_t strikes, std::uint64_t interval) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> calls;
  CampaignConfig cfg;
  cfg.strikes = strikes;
  cfg.progress_interval = interval;
  cfg.progress = [&](std::uint64_t done, std::uint64_t total) {
    calls.emplace_back(done, total);
  };
  const std::vector<InjectionRegion> regions{
      InjectionRegion{RegionGeometry(512, 8), ProtectionKind::SecDed, 0.9,
                      1}};
  exec::ExecConfig exec;
  exec.chunk_strikes = 1;
  exec::run_campaign_sharded(regions, StrikeMultiplicityModel::for_node(40.0),
                             cfg, exec);
  return calls;
}

TEST(CampaignProgressTest, ExactMultipleFiresCompletionExactlyOnce) {
  // 100 strikes, interval 25: the final strike is both an interval
  // boundary and the completion — it must report once, not twice.
  const auto calls = run_with_progress(100, 25);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected{
      {25, 100}, {50, 100}, {75, 100}, {100, 100}};
  EXPECT_EQ(calls, expected);
}

TEST(CampaignProgressTest, NonMultipleStillReportsCompletion) {
  const auto calls = run_with_progress(103, 25);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected{
      {25, 103}, {50, 103}, {75, 103}, {100, 103}, {103, 103}};
  EXPECT_EQ(calls, expected);
}

TEST(CampaignProgressTest, IntervalLargerThanCampaignReportsOnlyCompletion) {
  const auto calls = run_with_progress(10, 1000);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected{
      {10, 10}};
  EXPECT_EQ(calls, expected);
}

TEST(CampaignProgressTest, NoIntervalMeansNoCalls) {
  EXPECT_TRUE(run_with_progress(50, 0).empty());
}

TEST(CampaignProgressTest, ProgressNeverChangesResults) {
  CampaignConfig plain;
  plain.strikes = 5'000;
  const std::vector<InjectionRegion> regions{
      InjectionRegion{RegionGeometry(512, 8), ProtectionKind::SecDed, 0.9,
                      1}};
  const StrikeMultiplicityModel model =
      StrikeMultiplicityModel::for_node(40.0);
  exec::ExecConfig exec;
  exec.chunk_strikes = 1;
  const CampaignResult quiet =
      exec::run_campaign_sharded(regions, model, plain, exec).merged;

  CampaignConfig noisy = plain;
  noisy.progress_interval = 7;
  noisy.progress = [](std::uint64_t, std::uint64_t) {};
  const CampaignResult loud =
      exec::run_campaign_sharded(regions, model, noisy, exec).merged;
  EXPECT_EQ(quiet.masked, loud.masked);
  EXPECT_EQ(quiet.dre, loud.dre);
  EXPECT_EQ(quiet.due, loud.due);
  EXPECT_EQ(quiet.sdc, loud.sdc);
}

}  // namespace
}  // namespace ftspm
