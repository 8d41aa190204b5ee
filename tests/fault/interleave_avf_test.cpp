// Interleaving-aware analytic model vs the Monte-Carlo injector, and
// the end-to-end interleaved-FTSPM configuration.
#include <gtest/gtest.h>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/fault/avf.h"
#include "ftspm/fault/injector.h"
#include "ftspm/workload/case_study.h"

namespace ftspm {
namespace {

const StrikeMultiplicityModel& strikes() {
  static const StrikeMultiplicityModel m =
      StrikeMultiplicityModel::at_40nm();
  return m;
}

TEST(StrikePmfTest, SumsToOneAndMatchesHeads) {
  const std::vector<double> pmf = strikes().pmf();
  double sum = 0.0;
  for (double p : pmf) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(pmf[1], 0.62);
  EXPECT_DOUBLE_EQ(pmf[2], 0.25);
  EXPECT_DOUBLE_EQ(pmf[3], 0.06);
  EXPECT_NEAR(pmf[4], 0.035, 1e-12);  // half the >3 tail
}

TEST(StrikePmfTest, MatchesSamplerFrequencies) {
  const std::vector<double> pmf = strikes().pmf(8);
  Rng rng(4242);
  std::vector<double> counts(9, 0.0);
  const int n = 200'000;
  for (int i = 0; i < n; ++i) ++counts[strikes().sample_flips(rng, 8)];
  for (std::size_t k = 1; k < counts.size(); ++k)
    EXPECT_NEAR(counts[k] / n, pmf[k], 0.01) << "k=" << k;
}

TEST(InterleaveAvfTest, DegreeOneReducesToThePaperEquations) {
  for (ProtectionKind kind :
       {ProtectionKind::Parity, ProtectionKind::SecDed}) {
    const RegionErrorProbabilities base =
        region_error_probabilities(kind, strikes());
    const RegionErrorProbabilities il1 =
        region_error_probabilities(kind, strikes(), 1);
    EXPECT_DOUBLE_EQ(base.p_dre, il1.p_dre);
    EXPECT_DOUBLE_EQ(base.p_due, il1.p_due);
    EXPECT_DOUBLE_EQ(base.p_sdc, il1.p_sdc);
  }
}

TEST(InterleaveAvfTest, HigherDegreesMonotonicallyReduceHarm) {
  double previous = 1.0;
  for (std::uint32_t il : {1u, 2u, 4u, 8u, 16u}) {
    const double harm =
        region_error_probabilities(ProtectionKind::SecDed, strikes(), il)
            .p_harmful();
    EXPECT_LE(harm, previous + 1e-12) << "interleave " << il;
    previous = harm;
  }
  // 16-way scatters even the deepest modelled MBU into single flips.
  EXPECT_NEAR(previous, 0.0, 1e-12);
}

TEST(InterleaveAvfTest, TwoWaySecDedValues) {
  // ceil(m/2): m in {1,2} -> 1 flip/word (corrected); {3,4} -> 2
  // (detected); >4 -> silent/miscorrect territory.
  const RegionErrorProbabilities p =
      region_error_probabilities(ProtectionKind::SecDed, strikes(), 2);
  EXPECT_NEAR(p.p_dre, 0.87, 1e-12);           // p1 + p2
  EXPECT_NEAR(p.p_due, 0.06 + 0.035, 1e-12);   // p3 + P(m=4)
  EXPECT_NEAR(p.p_sdc, 0.035, 1e-12);          // P(m>4)
}

TEST(InterleaveAvfTest, AnalyticTracksMonteCarlo) {
  for (std::uint32_t il : {2u, 4u}) {
    const RegionErrorProbabilities analytic =
        region_error_probabilities(ProtectionKind::SecDed, strikes(), il);
    const InjectionRegion region{RegionGeometry(8 * 1024, 8),
                                 ProtectionKind::SecDed, 1.0, il};
    CampaignConfig cfg;
    cfg.strikes = 200'000;
    const CampaignResult mc =
        exec::run_campaign_sharded({region}, strikes(), cfg, {}).merged;
    // The analytic worst-hit-word model is an upper bound on harm and
    // tight to within straddle effects.
    EXPECT_LE(mc.vulnerability(), analytic.p_harmful() + 0.005)
        << "interleave " << il;
    EXPECT_GE(mc.vulnerability(), analytic.p_harmful() * 0.5 - 0.005)
        << "interleave " << il;
  }
}

TEST(InterleaveAvfTest, InterleavedFtspmIsStrictlySafer) {
  const Workload w = make_case_study(CaseStudyTargets{}.scaled_down(8));
  const ProgramProfile prof = profile_workload(w);

  FtspmDimensions plain;
  FtspmDimensions interleaved;
  interleaved.sram_interleave = 4;
  const StructureEvaluator base{TechnologyLibrary(), MdaConfig{}, plain};
  const StructureEvaluator better{TechnologyLibrary(), MdaConfig{},
                                  interleaved};
  const double v_plain = base.evaluate_ftspm(w, prof).avf.vulnerability();
  const double v_il = better.evaluate_ftspm(w, prof).avf.vulnerability();
  EXPECT_LT(v_il, v_plain * 0.5);
  EXPECT_GT(v_il, 0.0);  // parity regions still see DUEs
}

}  // namespace
}  // namespace ftspm
