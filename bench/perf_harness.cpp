// Campaign performance harness: times the campaign hot loops end to
// end — static mixed-surface, live-array recovery, and temporal — plus
// the syndrome-kernel vs encode/flip/decode-oracle classifier pair,
// and emits a machine-readable BENCH_campaign.json.
//
//   perf_harness [--quick] [--reps N] [--out path] [--check baseline]
//
// Every measurement is the median of N repetitions (wall clock and,
// on x86-64, TSC cycles). `--quick` shrinks the strike counts for CI.
// `--check baseline.json` compares each campaign's strikes/sec against
// a previously emitted artefact and fails (exit 1) on a regression
// worse than 25%, and also enforces the kernel's >= 3x classifier
// speedup floor. See docs/performance.md.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_io.h"
#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/report/json_report.h"
#include "ftspm/util/error.h"
#include "ftspm/util/format.h"
#include "ftspm/util/json.h"
#include "ftspm/workload/case_study.h"
#include "support/campaign_oracles.h"

namespace {

using namespace ftspm;

constexpr double kRegressionTolerance = 0.25;
constexpr double kMinClassifierSpeedup = 3.0;

std::uint64_t read_cycles() {
#if defined(__x86_64__)
  unsigned lo = 0, hi = 0;
  __asm__ __volatile__("rdtsc" : "=a"(lo), "=d"(hi));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
#else
  return 0;  // No portable cycle counter; wall clock still recorded.
#endif
}

struct Timing {
  double wall_ms = 0.0;
  std::uint64_t cycles = 0;
};

template <typename Fn>
Timing time_median(Fn&& fn, int reps) {
  std::vector<Timing> runs;
  runs.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t c0 = read_cycles();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t c1 = read_cycles();
    runs.push_back(Timing{
        std::chrono::duration<double, std::milli>(t1 - t0).count(), c1 - c0});
  }
  std::sort(runs.begin(), runs.end(),
            [](const Timing& a, const Timing& b) {
              return a.wall_ms < b.wall_ms;
            });
  return runs[runs.size() / 2];
}

struct BenchCampaignTiming {
  std::string name;
  std::uint64_t strikes = 0;
  Timing timing;

  double strikes_per_sec() const {
    return timing.wall_ms > 0.0
               ? static_cast<double>(strikes) / (timing.wall_ms / 1e3)
               : 0.0;
  }
};

BenchCampaignTiming time_static(std::uint64_t strikes, int reps) {
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(8192, 8), ProtectionKind::SecDed, 0.9, 1},
      {RegionGeometry(8192, 1), ProtectionKind::Parity, 0.7, 1},
      {RegionGeometry(2048, 0), ProtectionKind::None, 0.4, 1},
      {RegionGeometry(2048, 0), ProtectionKind::Immune, 1.0, 1}};
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  CampaignConfig cfg;
  cfg.strikes = strikes;
  CampaignResult last;
  const Timing t = time_median(
      [&] {
        last = exec::run_campaign_sharded(regions, model, cfg, {}).merged;
      },
      reps);
  FTSPM_CHECK(last.strikes == strikes, "static campaign ran short");
  return BenchCampaignTiming{"static", strikes, t};
}

BenchCampaignTiming time_recovery(const char* name, std::uint64_t strikes,
                                  int reps, double ace_occupancy,
                                  std::uint64_t scrub_interval) {
  const TechnologyLibrary lib;
  RecoveryRegion region;
  region.inject = InjectionRegion{RegionGeometry(8192, 8),
                                  ProtectionKind::SecDed, ace_occupancy, 1};
  region.tech = lib.secded_sram();
  region.dirty_fraction = 0.25;
  region.refetch_words = 64;
  region.scrub = true;
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = scrub_interval;
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  CampaignConfig cfg;
  cfg.strikes = strikes;
  RecoveryResult last;
  const Timing t = time_median(
      [&] {
        last = exec::run_recovery_campaign_sharded({region}, model, cfg,
                                                   policy, {})
                   .merged;
      },
      reps);
  FTSPM_CHECK(last.strikes.strikes == strikes, "recovery campaign ran short");
  return BenchCampaignTiming{name, strikes, t};
}

BenchCampaignTiming time_temporal(std::uint64_t strikes, int reps) {
  const Workload w = make_case_study(CaseStudyTargets{}.scaled_down(8));
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator;
  const SystemResult sys = evaluator.evaluate_ftspm(w, prof);
  CampaignConfig cfg;
  cfg.strikes = strikes;
  CampaignResult last;
  const Timing t = time_median(
      [&] {
        last = run_temporal_campaign_parallel(evaluator.ftspm_layout(),
                                              sys.plan, w.program, prof,
                                              evaluator.strike_model(), cfg,
                                              {})
                   .merged;
      },
      reps);
  FTSPM_CHECK(last.strikes == strikes, "temporal campaign ran short");
  return BenchCampaignTiming{"temporal", strikes, t};
}

struct ClassifierTiming {
  std::uint64_t strikes = 0;
  double kernel_ms = 0.0;
  double oracle_ms = 0.0;

  double speedup() const {
    return kernel_ms > 0.0 ? oracle_ms / kernel_ms : 0.0;
  }
};

/// Kernel and oracle classify the same (origin, flips, RNG) sequence,
/// so the ratio of their times is the classifier speedup alone.
ClassifierTiming time_classifier(std::uint64_t strikes, int reps) {
  const InjectionRegion region{RegionGeometry(8192, 8), ProtectionKind::SecDed,
                               1.0, 1};
  const std::uint64_t bits = region.geometry.physical_bits();
  ClassifierTiming out;
  out.strikes = strikes;
  CampaignScratch scratch;
  StrikeOutcome sink = StrikeOutcome::Masked;
  out.kernel_ms = time_median(
                      [&] {
                        Rng rng(11);
                        std::uint64_t bit = 0;
                        for (std::uint64_t s = 0; s < strikes; ++s) {
                          const auto flips =
                              static_cast<std::uint32_t>(1 + (s & 3));
                          sink = std::max(
                              sink, classify_strike(region, bit % bits, flips,
                                                    rng, scratch));
                          bit += 131;
                        }
                      },
                      reps)
                      .wall_ms;
  out.oracle_ms = time_median(
                      [&] {
                        Rng rng(11);
                        std::uint64_t bit = 0;
                        for (std::uint64_t s = 0; s < strikes; ++s) {
                          const auto flips =
                              static_cast<std::uint32_t>(1 + (s & 3));
                          sink = std::max(
                              sink, classify_strike_oracle(region, bit % bits,
                                                           flips, rng));
                          bit += 131;
                        }
                      },
                      reps)
                      .wall_ms;
  FTSPM_CHECK(sink >= StrikeOutcome::Masked, "classifier sink escaped");
  return out;
}

std::string to_json(const std::vector<BenchCampaignTiming>& campaigns,
                    const ClassifierTiming& classifier, bool quick, int reps) {
  RunManifest manifest;
  manifest.command = "bench/perf_harness";
  JsonWriter w;
  w.begin_object()
      .raw_field("manifest", manifest_json(manifest))
      .field("quick", quick)
      .field("reps", static_cast<std::uint64_t>(reps));
  w.begin_array("campaigns");
  for (const BenchCampaignTiming& c : campaigns) {
    w.begin_object()
        .field("name", c.name)
        .field("strikes", c.strikes)
        .field("wall_ms", c.timing.wall_ms)
        .field("cycles", c.timing.cycles)
        .field("strikes_per_sec", c.strikes_per_sec())
        .end_object();
  }
  w.end_array();
  w.begin_object("classifier")
      .field("strikes", classifier.strikes)
      .field("kernel_ms", classifier.kernel_ms)
      .field("oracle_ms", classifier.oracle_ms)
      .field("speedup", classifier.speedup())
      .end_object();
  w.end_object();
  return w.str();
}

/// Compares this run against a previously emitted artefact. Returns
/// the number of failed checks (printed as it goes).
int check_against_baseline(const std::string& path,
                           const std::vector<BenchCampaignTiming>& campaigns,
                           const ClassifierTiming& classifier) {
  std::ifstream in(path);
  FTSPM_REQUIRE(static_cast<bool>(in), "cannot open baseline: " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  const JsonValue doc = parse_json(buf.str());
  int failures = 0;
  for (const JsonValue& base : doc.at("campaigns").array) {
    const std::string& name = base.at("name").string;
    const auto it =
        std::find_if(campaigns.begin(), campaigns.end(),
                     [&](const BenchCampaignTiming& c) { return c.name == name; });
    if (it == campaigns.end()) {
      std::cout << "CHECK FAIL: campaign '" << name
                << "' in baseline but not in this run\n";
      ++failures;
      continue;
    }
    const JsonValue* rate = base.find("strikes_per_sec");
    if (rate == nullptr || !rate->is_number()) {
      std::cout << "CHECK FAIL: baseline entry '" << name
                << "' has no strikes_per_sec metric — refresh the baseline "
                   "artefact\n";
      ++failures;
      continue;
    }
    const double before = rate->number;
    const double now = it->strikes_per_sec();
    const double floor = before * (1.0 - kRegressionTolerance);
    // Relative delta vs baseline, printed on pass and failure alike so
    // a slow drift is visible before it crosses the tolerance.
    const double delta_pct =
        before != 0.0 ? (now - before) / before * 100.0 : 0.0;
    if (now < floor) {
      std::cout << "CHECK FAIL: " << name << " strikes/sec " << now
                << " is > 25% below baseline " << before << " ("
                << fixed(delta_pct, 1) << "%)\n";
      ++failures;
    } else {
      std::cout << "check ok: " << name << " strikes/sec " << now
                << " vs baseline " << before << " ("
                << (delta_pct >= 0.0 ? "+" : "") << fixed(delta_pct, 1)
                << "%)\n";
    }
  }
  // The reverse direction: every campaign this run measured must have
  // a baseline entry, or a newly added campaign would silently escape
  // the regression gate until someone remembered to refresh the
  // artefact.
  for (const BenchCampaignTiming& c : campaigns) {
    const auto& base_list = doc.at("campaigns").array;
    const bool known =
        std::any_of(base_list.begin(), base_list.end(),
                    [&](const JsonValue& b) {
                      const JsonValue* n = b.find("name");
                      return n != nullptr && n->string == c.name;
                    });
    if (!known) {
      std::cout << "CHECK FAIL: campaign '" << c.name
                << "' measured in this run has no baseline entry — refresh "
                   "the baseline artefact\n";
      ++failures;
    }
  }
  const double speedup_delta_pct =
      (classifier.speedup() - kMinClassifierSpeedup) / kMinClassifierSpeedup *
      100.0;
  if (classifier.speedup() < kMinClassifierSpeedup) {
    std::cout << "CHECK FAIL: classifier speedup " << classifier.speedup()
              << "x is below the " << kMinClassifierSpeedup << "x floor ("
              << fixed(speedup_delta_pct, 1) << "%)\n";
    ++failures;
  } else {
    std::cout << "check ok: classifier speedup " << classifier.speedup()
              << "x vs " << kMinClassifierSpeedup << "x floor (+"
              << fixed(speedup_delta_pct, 1) << "%)\n";
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int reps = 5;
  std::string out_path = "BENCH_campaign.json";
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--reps") {
      FTSPM_REQUIRE(i + 1 < argc, "--reps needs a count");
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--out") {
      FTSPM_REQUIRE(i + 1 < argc, "--out needs a path");
      out_path = argv[++i];
    } else if (arg == "--check") {
      FTSPM_REQUIRE(i + 1 < argc, "--check needs a baseline path");
      baseline = argv[++i];
    } else {
      std::cerr << "usage: perf_harness [--quick] [--reps N] [--out path] "
                   "[--check baseline.json]\n";
      return 2;
    }
  }

  std::vector<BenchCampaignTiming> campaigns;
  campaigns.push_back(time_static(quick ? 100'000 : 400'000, reps));
  // The demand-heavy shape (every fourth read consumed) and a
  // scrub-heavy one (sparse reads, a sweep every 256 strikes) stress
  // the two halves of the batched recovery engine separately.
  campaigns.push_back(
      time_recovery("recovery", quick ? 20'000 : 60'000, reps, 0.25, 2048));
  campaigns.push_back(time_recovery("recovery_scrub", quick ? 20'000 : 60'000,
                                    reps, 0.05, 256));
  campaigns.push_back(time_temporal(quick ? 10'000 : 50'000, reps));
  const ClassifierTiming classifier =
      time_classifier(quick ? 200'000 : 1'000'000, reps);

  for (const BenchCampaignTiming& c : campaigns) {
    std::cout << c.name << ": " << c.strikes << " strikes in "
              << c.timing.wall_ms << " ms (" << c.strikes_per_sec()
              << " strikes/sec)\n";
  }
  std::cout << "classifier: kernel " << classifier.kernel_ms << " ms, oracle "
            << classifier.oracle_ms << " ms over " << classifier.strikes
            << " strikes -> " << classifier.speedup() << "x\n";

  const std::string json = to_json(campaigns, classifier, quick, reps);
  std::ofstream out(out_path);
  FTSPM_REQUIRE(static_cast<bool>(out << json << "\n"),
                "cannot write " + out_path);
  std::cout << "wrote " << out_path << "\n";

  if (!baseline.empty() &&
      check_against_baseline(baseline, campaigns, classifier) != 0)
    return 1;
  return 0;
}
