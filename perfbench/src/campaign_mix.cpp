// campaign_mix: four Monte-Carlo campaign shapes, round-robin, each
// through its exec sharded entry point at 2 jobs with a pinned shard
// count. `static` classifies and forgets; `recovery` and `scrub` write
// corrections back into the stored images and sweep them; `temporal`
// strikes the case-study FTSPM plan through the transfer schedule. The
// fault and ecc layers are used two ways, so a gain in one use that
// costs the other shows. Each shape is sized to take about the same
// host time, so each weighs the same in the aggregate figures.
#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/obs/metrics.h"
#include "ftspm/profile/profiler.h"
#include "ftspm/util/json.h"
#include "ftspm/util/rng.h"
#include "ftspm/workload/case_study.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ftspm;

constexpr std::uint32_t kJobs = 2;
constexpr std::uint32_t kShards = 4;
constexpr int kMinRounds = 2;
/// 30 s or more of ~0.27 s campaigns leaves ten beyond the 90th
/// percentile.
constexpr double kTailQuantile = 0.9;
/// The pinned-counter check: every shape once at the library's default
/// seed, untimed, after the timed rounds.
const std::uint64_t kPinnedSeed = CampaignConfig{}.seed;
constexpr std::uint64_t kPinnedStrikes = 1'000'000;

/// Counters of one campaign, whatever its kind.
struct Counters {
  CampaignResult strikes;
  RecoveryCounters recovery;
};

/// A campaign's counters in the order strikes, masked, dre, due, sdc,
/// demand_reads, corrections, scrub_passes, scrub_words,
/// scrub_corrections, refetches, unrecoverable, sdc_reads.
using Flat = std::array<std::uint64_t, 13>;

Flat flatten(const Counters& c) {
  const RecoveryCounters& r = c.recovery;
  return {c.strikes.strikes, c.strikes.masked,  c.strikes.dre,
          c.strikes.due,     c.strikes.sdc,     r.demand_reads,
          r.corrections,     r.scrub_passes,    r.scrub_words,
          r.scrub_corrections, r.refetches,     r.unrecoverable,
          r.sdc_reads};
}

/// Everything the four shapes need before the first strike: the
/// injection surfaces, the recovery policies, and the case-study
/// workload, profile and FTSPM plan the temporal campaign strikes.
struct Plan {
  StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  std::vector<InjectionRegion> static_regions;
  RecoveryRegion recovery_region;
  RecoveryRegion scrub_region;
  RecoveryPolicy recovery_policy;
  RecoveryPolicy scrub_policy;
  Workload case_study;
  ProgramProfile profile;
  StructureEvaluator evaluator;
  MappingPlan ftspm_plan;

  Plan()
      : case_study(make_case_study(CaseStudyTargets{}.scaled_down(8))),
        profile(profile_workload(case_study)),
        ftspm_plan(evaluator.evaluate_ftspm(case_study, profile).plan) {
    // The mixed surface bench/perf_harness times.
    static_regions = {
        {RegionGeometry(8192, 8), ProtectionKind::SecDed, 0.9, 1},
        {RegionGeometry(8192, 1), ProtectionKind::Parity, 0.7, 1},
        {RegionGeometry(2048, 0), ProtectionKind::None, 0.4, 1},
        {RegionGeometry(2048, 0), ProtectionKind::Immune, 1.0, 1}};
    const TechnologyLibrary lib;
    const auto live = [&](double occupancy) {
      RecoveryRegion r;
      r.inject = InjectionRegion{RegionGeometry(8192, 8),
                                 ProtectionKind::SecDed, occupancy, 1};
      r.tech = lib.secded_sram();
      r.dirty_fraction = 0.25;
      r.refetch_words = 64;
      r.scrub = true;
      return r;
    };
    recovery_region = live(0.25);
    scrub_region = live(0.05);
    recovery_policy.recover = scrub_policy.recover = true;
    recovery_policy.scrub_interval = 2048;
    scrub_policy.scrub_interval = 256;
  }
};

struct Shape {
  const char* name;
  const char* layer;  ///< Where the shard work lives.
  std::uint64_t strikes;
  std::function<Counters(const Plan&, const CampaignConfig&,
                         const exec::ExecConfig&)>
      run;
};

std::vector<Shape> shapes() {
  return {
      {"static", "fault", 14'000'000,
       [](const Plan& p, const CampaignConfig& cfg,
          const exec::ExecConfig& ex) {
         return Counters{
             exec::run_campaign_sharded(p.static_regions, p.model, cfg, ex)
                 .merged,
             {}};
       }},
      {"recovery", "fault", 7'000'000,
       [](const Plan& p, const CampaignConfig& cfg,
          const exec::ExecConfig& ex) {
         const exec::RecoveryShardedRun r = exec::run_recovery_campaign_sharded(
             {p.recovery_region}, p.model, cfg, p.recovery_policy, ex);
         return Counters{r.merged.strikes, r.merged.recovery};
       }},
      {"scrub", "fault", 5'500'000,
       [](const Plan& p, const CampaignConfig& cfg,
          const exec::ExecConfig& ex) {
         const exec::RecoveryShardedRun r = exec::run_recovery_campaign_sharded(
             {p.scrub_region}, p.model, cfg, p.scrub_policy, ex);
         return Counters{r.merged.strikes, r.merged.recovery};
       }},
      {"temporal", "core", 14'000'000,
       [](const Plan& p, const CampaignConfig& cfg,
          const exec::ExecConfig& ex) {
         return Counters{
             run_temporal_campaign_parallel(
                 p.evaluator.ftspm_layout(), p.ftspm_plan,
                 p.case_study.program, p.profile,
                 p.evaluator.strike_model(), cfg, ex)
                 .merged,
             {}};
       }},
  };
}

/// Counters at (kPinnedSeed, kPinnedStrikes, kShards), per shape.
const std::array<Flat, 4> kPinned = {{
    {1000000, 309304, 239444, 311551, 139701, 0, 0, 0, 0, 0, 0, 0, 0},
    {1000000, 748093, 169574, 29597, 52736, 252825, 80564, 488, 499712, 89224,
     212656, 70569, 52776},
    {1000000, 949210, 37141, 4674, 8975, 50831, 23493, 3904, 3997696, 389437,
     241731, 80905, 8977},
    {1000000, 942997, 35418, 18239, 3346, 0, 0, 0, 0, 0, 0, 0, 0},
}};

/// One sharded run's wall-clock shard stamps, as ExecConfig::shard_span
/// reports them after the join.
struct ShardStamps {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;  // ns
  std::uint64_t joined_ns = 0;  ///< Benchmark clock at the first report.
};

struct ExecFigures {
  std::vector<double> efficiency, skew, tail_ms;
};

/// Records the shards as child spans of `op` and, when `fig` is given,
/// takes the exec figures. The runner's epoch is not visible to
/// callers, so the stamps are anchored at the join: the last shard ends
/// when the first report arrives. `tail_ms` is therefore the wall time
/// from the join to the caller regaining control (merge, final
/// checkpoint, return).
void account_shards(SpanLog& log, std::uint32_t op, const char* layer,
                    std::uint32_t jobs, const ShardStamps& st,
                    ExecFigures* fig) {
  const Span& parent = log.span(op);
  std::uint64_t last_end = 0, busy = 0, longest = 0;
  for (const auto& [a, b] : st.spans) {
    last_end = std::max(last_end, b);
    busy += b - std::min(a, b);
    longest = std::max(longest, b - std::min(a, b));
  }
  const std::uint64_t base = st.joined_ns - std::min(st.joined_ns, last_end);
  for (std::size_t i = 0; i < st.spans.size(); ++i) {
    Span s;
    s.parent = op;
    s.layer = layer;
    s.name = "shard " + std::to_string(i);
    s.track = "shard " + std::to_string(i);
    s.start_ns = base + st.spans[i].first;
    s.end_ns = base + st.spans[i].second;
    log.add(std::move(s));
  }
  if (fig == nullptr || busy == 0) return;
  const double wall_ns = static_cast<double>(parent.end_ns - parent.start_ns);
  fig->efficiency.push_back(static_cast<double>(busy) / (jobs * wall_ns));
  fig->skew.push_back(static_cast<double>(longest) *
                      static_cast<double>(st.spans.size()) /
                      static_cast<double>(busy));
  fig->tail_ms.push_back(ms_between(st.joined_ns, parent.end_ns));
}

/// SecDedCodec::fold_syndromes throughput on random error patterns.
double folds_per_s(SpanLog& log, std::uint32_t parent, std::uint64_t seed) {
  constexpr std::size_t kBatch = 4096;
  std::vector<std::uint64_t> data(kBatch);
  std::vector<std::uint8_t> check(kBatch), syndromes(kBatch);
  Rng rng(seed);
  for (std::size_t i = 0; i < kBatch; ++i) {
    data[i] = rng.next_u64();
    check[i] = static_cast<std::uint8_t>(rng.next_u64());
  }
  const Scoped s(&log, "ecc", "SecDedCodec::fold_syndromes", parent);
  std::uint64_t folded = 0, sink = 0;
  const std::uint64_t t0 = now_ns();
  while (ms_since(t0) < 200.0) {
    for (int r = 0; r < 64; ++r) {
      SecDedCodec::fold_syndromes(data.data(), check.data(), kBatch,
                                  syndromes.data());
      sink += syndromes[static_cast<std::size_t>(r)];
      folded += kBatch;
    }
  }
  const double secs = ms_since(t0) / 1e3;
  std::cout << "ecc: fold backend " << SecDedCodec::fold_backend()
            << " (checksum " << sink << ")\n";
  return static_cast<double>(folded) / secs;
}

}  // namespace

EndToEnd run_campaign_mix(const Options& options, double seconds,
                          Report& report, SpanLog* spans, Layers* layers) {
  const Scoped root(spans, "bench", "campaign_mix");
  EndToEnd e2e;
  // One set-up sample before each round of campaigns: spread over the
  // run, the samples see the host the campaigns see, not only its first
  // second.
  std::vector<double> setups;
  std::unique_ptr<Plan> plan;
  const auto set_up = [&] {
    const Scoped s(spans, "core", "campaign plan + profile", root.id());
    const std::uint64_t t0 = now_ns();
    plan = std::make_unique<Plan>();
    setups.push_back(ms_since(t0) / 1e3);
  };

  std::optional<obs::EnabledScope> obs_on;
  if (spans != nullptr) obs_on.emplace(true);
  const std::vector<Shape> kinds = shapes();
  std::vector<std::optional<Flat>> first(kinds.size());
  std::vector<std::vector<double>> kind_ms(kinds.size());
  std::vector<double> op_ms;
  std::uint64_t total_strikes = 0;
  double total_ms = 0.0;
  ExecFigures exec_fig;

  // One campaign of shape k. Traced, its shards become child spans of
  // the campaign's span and, given `fig`, feed the exec figures.
  const auto run_op = [&](std::size_t k, std::uint64_t seed,
                          std::uint64_t strikes, std::uint32_t jobs,
                          std::uint32_t shards, ExecFigures* fig) {
    CampaignConfig cfg;
    cfg.seed = seed;
    cfg.strikes = strikes;
    exec::ExecConfig ex;
    ex.jobs = jobs;
    ex.shards = shards;
    ShardStamps stamps;
    if (spans != nullptr)
      ex.shard_span = [&stamps](std::uint32_t, std::uint64_t a,
                                std::uint64_t b) {
        if (stamps.spans.empty()) stamps.joined_ns = now_ns();
        stamps.spans.emplace_back(a, b);
      };
    report.attempt();
    const std::uint32_t op =
        spans != nullptr ? spans->open("exec", kinds[k].name, root.id()) : 0;
    const std::uint64_t t0 = now_ns();
    const Counters c = kinds[k].run(*plan, cfg, ex);
    const double ms = ms_since(t0);
    if (spans != nullptr) {
      spans->close(op);
      account_shards(*spans, op, kinds[k].layer, jobs, stamps, fig);
    }
    const CampaignResult& r = c.strikes;
    report.check(r.strikes == strikes,
                 std::string(kinds[k].name) + " ran " +
                     std::to_string(r.strikes) + " of " +
                     std::to_string(strikes) + " strikes");
    report.check(r.masked + r.dre + r.due + r.sdc == r.strikes,
                 std::string(kinds[k].name) + " outcomes do not sum");
    return std::make_pair(c, ms);
  };

  const std::uint64_t start = now_ns();
  for (int round = 0; round < kMinRounds || ms_since(start) < seconds * 1e3;
       ++round) {
    set_up();
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const std::uint64_t seed = Rng::derive_stream_seed(options.seed, k);
      const auto [c, ms] =
          run_op(k, seed, kinds[k].strikes, kJobs, kShards, &exec_fig);
      const Flat got = flatten(c);
      if (!first[k]) first[k] = got;
      report.check(got == *first[k], std::string(kinds[k].name) +
                                         " counters differ between runs of "
                                         "one seed");
      kind_ms[k].push_back(ms);
      op_ms.push_back(ms);
      total_ms += ms;
      total_strikes += kinds[k].strikes;
    }
  }
  e2e.setup_s = median(setups);
  e2e.p50_ms = median(op_ms);
  e2e.tail_quantile = kTailQuantile;
  e2e.tail_ms = quantile(op_ms, kTailQuantile);
  e2e.throughput_per_s = static_cast<double>(total_strikes) / (total_ms / 1e3);
  for (std::size_t k = 0; k < kinds.size(); ++k)
    std::cout << "campaign " << kinds[k].name << ": " << kinds[k].strikes
              << " strikes, " << kind_ms[k].size() << " runs, median "
              << median(kind_ms[k]) << " ms, "
              << static_cast<double>(kinds[k].strikes) /
                     (median(kind_ms[k]) / 1e3)
              << " strikes/s at " << kJobs << " jobs\n";

  // Pinned counters: untimed, once per shape, at the default seed.
  if (spans != nullptr) obs::registry().reset_values();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const Flat got =
        flatten(run_op(k, kPinnedSeed, kPinnedStrikes, kJobs, kShards,
                       nullptr).first);
    std::string text;
    for (const std::uint64_t v : got) text += std::to_string(v) + ",";
    report.check(got == kPinned[k], std::string(kinds[k].name) +
                                        " pinned counters differ: {" + text +
                                        "}");
  }

  if (layers != nullptr) {
    const JsonValue reg = parse_json(obs::registry().to_json());
    const auto counter = [&](const char* name) {
      const JsonValue* v = reg.at("counters").find(name);
      return v != nullptr ? v->number : 0.0;
    };
    // Single-thread figures: the same shapes through the same sharded
    // entry points at jobs=1, shards=1, at half the strikes.
    const int reps = seconds >= 10.0 ? 3 : 1;
    const char* names[] = {"fault.static_1t_strikes_per_s",
                           "fault.recovery_1t_strikes_per_s",
                           "fault.scrub_1t_strikes_per_s",
                           "core.temporal_1t_strikes_per_s"};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      std::vector<double> rates;
      const std::uint64_t strikes = kinds[k].strikes / 2;
      for (int r = 0; r < reps; ++r) {
        const double ms = run_op(k, Rng::derive_stream_seed(options.seed, k),
                                 strikes, 1, 1, nullptr)
                              .second;
        rates.push_back(static_cast<double>(strikes) / (ms / 1e3));
      }
      layers->push_back({names[k], median(rates), "1/s"});
    }
    layers->push_back(
        {"ecc.folds_per_s", folds_per_s(*spans, root.id(), options.seed),
         "1/s"});
    layers->push_back(
        {"exec.parallel_efficiency", median(exec_fig.efficiency), "ratio"});
    layers->push_back({"exec.shard_skew", median(exec_fig.skew), "ratio"});
    layers->push_back({"exec.tail_ms", median(exec_fig.tail_ms), "ms"});
    layers->push_back(
        {"recovery.demand_reads", counter("recovery.demand_reads"), "count"});
    layers->push_back(
        {"recovery.scrub_words", counter("recovery.scrub_words"), "count"});
  }
  return e2e;
}

}  // namespace perfbench
