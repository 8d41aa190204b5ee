// Fault-injection walkthrough: from a single flipped bit to a full
// system campaign, showing each layer of the reliability stack.
//
// Build & run:  ./build/examples/fault_injection_demo
#include <iostream>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/ecc/parity_codec.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/util/format.h"
#include "ftspm/workload/case_study.h"

int main() {
  using namespace ftspm;

  // --- layer 1: one codeword, real decoders --------------------------
  std::cout << "Layer 1 — a single SEC-DED codeword:\n";
  const std::uint64_t secret = 0x0123456789ABCDEFULL;
  SecDedWord word = SecDedCodec::encode(secret);
  SecDedCodec::flip_bit(word, 13);
  DecodeResult one = SecDedCodec::decode(word);
  std::cout << "  1 flip : status="
            << (one.status == DecodeStatus::Corrected ? "corrected"
                                                      : "other")
            << ", data restored: " << (one.data == secret ? "yes" : "NO")
            << "\n";
  SecDedCodec::flip_bit(word, 40);
  DecodeResult two = SecDedCodec::decode(word);
  std::cout << "  2 flips: status="
            << (two.status == DecodeStatus::Detected ? "detected (DUE)"
                                                     : "other")
            << "\n";
  SecDedCodec::flip_bit(word, 55);
  DecodeResult three = SecDedCodec::decode(word);
  std::cout << "  3 flips: status="
            << (three.status == DecodeStatus::Corrected
                    ? "\"corrected\" -> silent corruption!"
                    : "detected")
            << "\n\n";

  // --- layer 2: a protected surface under the 40 nm strike model ------
  std::cout << "Layer 2 — 100k strikes on an 8 KiB SEC-DED surface:\n";
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const InjectionRegion surface{RegionGeometry(8 * 1024, 8),
                                ProtectionKind::SecDed, 1.0, 1};
  CampaignConfig cfg;
  cfg.strikes = 100'000;
  const CampaignResult flat =
      exec::run_campaign_sharded({surface}, model, cfg, {}).merged;
  std::cout << "  corrected " << percent(flat.fraction(flat.dre))
            << ", DUE " << percent(flat.fraction(flat.due)) << ", SDC "
            << percent(flat.fraction(flat.sdc))
            << "  (paper's Eqs. 5/7 predict 62% / 25% / 13%)\n\n";

  // --- layer 3: the mapped FTSPM system --------------------------------
  std::cout << "Layer 3 — the case-study program on FTSPM:\n";
  const Workload workload =
      make_case_study(CaseStudyTargets{}.scaled_down(4));
  const ProgramProfile profile = profile_workload(workload);
  const StructureEvaluator evaluator;
  const SystemResult ftspm = evaluator.evaluate_ftspm(workload, profile);
  const SystemResult sram =
      evaluator.evaluate_pure_sram(workload, profile);
  const CampaignResult temporal =
      run_temporal_campaign_parallel(evaluator.ftspm_layout(), ftspm.plan,
                                     workload.program, profile,
                                     evaluator.strike_model(), cfg, {})
          .merged;
  std::cout << "  analytic vulnerability (Eqs. 1-7):  "
            << percent(ftspm.avf.vulnerability()) << "\n"
            << "  temporal Monte-Carlo:               "
            << percent(temporal.vulnerability()) << "\n"
            << "  pure SRAM baseline (analytic):      "
            << percent(sram.avf.vulnerability()) << "\n"
            << "Most strikes land in immune STT-RAM or hit words nothing "
               "lives in;\nonly the SEC-DED arrays and the parity stack "
               "carry residual risk.\n";
  return 0;
}
