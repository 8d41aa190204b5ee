// paper_suite: repeated warm passes of the 12-benchmark MiBench-style
// suite at scale 1, all three structures, through serial run_suite —
// the paper's evaluation pipeline (workload generation, profiling, MDA,
// simulation). No fault, ecc, exec, serve or ledger code runs, so this
// is the workload on which a change to campaigns or the daemon should
// move nothing.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "ftspm/core/baseline_mapper.h"
#include "ftspm/core/mapping_determiner.h"
#include "ftspm/core/systems.h"
#include "ftspm/obs/metrics.h"
#include "ftspm/profile/profiler.h"
#include "ftspm/report/json_report.h"
#include "ftspm/report/suite_runner.h"
#include "ftspm/sim/simulator.h"
#include "ftspm/util/json.h"
#include "ftspm/workload/suite.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ftspm;

/// FNV-1a of suite_json() over one scale-1 pass: every simulated
/// statistic (cycles, energies, AVF, endurance, mapping plans) of all
/// 36 evaluations. A pass whose digest differs is a failed operation.
constexpr std::uint64_t kSuiteDigest = 0x442269a532195767;

/// Constructions timed together per set-up sample: one takes under a
/// microsecond, about ten clock reads.
constexpr int kSetupBatch = 1000;
constexpr int kMinPasses = 3;
/// 30 s or more of ~0.5 s passes leaves ten passes beyond the 80th
/// percentile.
constexpr double kTailQuantile = 0.8;

std::uint64_t suite_digest(const std::vector<SuiteRow>& rows,
                           const StructureEvaluator& evaluator) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (const char c : suite_json(rows, evaluator)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t accesses(const SystemResult& r) {
  std::uint64_t n = r.run.icache.accesses() + r.run.dcache.accesses();
  for (const RegionRunStats& region : r.run.regions) n += region.accesses();
  return n;
}

std::uint64_t pass_accesses(const std::vector<SuiteRow>& rows) {
  std::uint64_t n = 0;
  for (const SuiteRow& row : rows)
    n += accesses(row.ftspm) + accesses(row.pure_sram) + accesses(row.pure_stt);
  return n;
}

void print_headline(const std::vector<SuiteRow>& rows) {
  const double vuln = geomean_ratio(rows, [](const SuiteRow& r) {
    return r.pure_sram.avf.vulnerability() / r.ftspm.avf.vulnerability();
  });
  const double vs_sram = geomean_ratio(rows, [](const SuiteRow& r) {
    return r.ftspm.run.spm_dynamic_energy_pj() /
           r.pure_sram.run.spm_dynamic_energy_pj();
  });
  const double vs_stt = geomean_ratio(rows, [](const SuiteRow& r) {
    return r.ftspm.run.spm_dynamic_energy_pj() /
           r.pure_stt.run.spm_dynamic_energy_pj();
  });
  std::cout << "headline (analytic substrate, not validated against "
               "hardware): vulnerability vs pure SRAM "
            << vuln << "x lower (paper ~7x); SPM dynamic energy "
            << (vs_sram - 1.0) * 100.0 << "% vs pure SRAM (paper -47%), "
            << (vs_stt - 1.0) * 100.0 << "% vs pure STT-RAM (paper -77%)\n";
}

/// Per-call host time of one layer entry point in the traced passes.
struct CallTimes {
  double total_ms = 0.0;
  std::uint64_t calls = 0;

  void add(double ms) {
    total_ms += ms;
    ++calls;
  }
  double per_call() const {
    return calls ? total_ms / static_cast<double>(calls) : 0.0;
  }
};

struct TracedLayers {
  CallTimes gen, profile, mda, sim;
  std::uint64_t sim_accesses = 0;
};

template <typename Fn>
auto timed(SpanLog& log, const char* layer, const char* name,
           std::uint32_t parent, CallTimes& times, Fn&& fn) {
  const std::uint32_t id = log.open(layer, name, parent);
  auto result = fn();
  log.close(id);
  times.add(ms_between(log.span(id).start_ns, log.span(id).end_ns));
  return result;
}

/// run_suite's work (StructureEvaluator::evaluate_all per benchmark),
/// issued call by call so each layer entry point gets its own span.
/// Returns the same rows: the digest check proves it.
std::vector<SuiteRow> traced_pass(const StructureEvaluator& ev, SpanLog& log,
                                  std::uint32_t parent, TracedLayers& t) {
  std::vector<SuiteRow> rows;
  for (const MiBenchmark bench : all_benchmarks()) {
    const Scoped b(&log, "bench", to_string(bench), parent);
    const Workload w = timed(log, "workload", "make_benchmark", b.id(), t.gen,
                             [&] { return make_benchmark(bench, 1); });
    const ProgramProfile prof =
        timed(log, "profile", "profile_workload", b.id(), t.profile,
              [&] { return profile_workload(w); });
    const auto finish = [&](const SpmLayout& layout, MappingPlan plan,
                            const char* structure) {
      RunResult run = timed(log, "sim", "Simulator::run", b.id(), t.sim, [&] {
        return Simulator(layout, ev.sim_config())
            .run(w, plan.block_to_region());
      });
      const Scoped rest(&log, "core", "avf+endurance", b.id());
      const AvfResult avf = compute_system_avf(layout, plan, w.program, prof,
                                               ev.strike_model());
      const EnduranceReport endurance = compute_endurance(layout, run);
      SystemResult r{structure, std::move(plan), std::move(run), avf,
                     endurance};
      t.sim_accesses += accesses(r);
      return r;
    };
    MappingPlan ft_plan =
        timed(log, "core", "MappingDeterminer::determine", b.id(), t.mda, [&] {
          return MappingDeterminer(ev.ftspm_layout(), ev.sim_config())
              .determine(w.program, prof);
        });
    SystemResult ft = finish(ev.ftspm_layout(), std::move(ft_plan), "FTSPM");
    MappingPlan sram_plan =
        timed(log, "core", "determine_baseline_mapping", b.id(), t.mda, [&] {
          return determine_baseline_mapping(ev.pure_sram_layout(), w.program,
                                            prof);
        });
    SystemResult sram =
        finish(ev.pure_sram_layout(), std::move(sram_plan), "Pure SRAM");
    MappingPlan stt_plan =
        timed(log, "core", "determine_baseline_mapping", b.id(), t.mda, [&] {
          return determine_baseline_mapping(ev.pure_stt_layout(), w.program,
                                            prof);
        });
    SystemResult stt =
        finish(ev.pure_stt_layout(), std::move(stt_plan), "Pure STT-RAM");
    rows.push_back(SuiteRow{bench, to_string(bench), std::move(ft),
                            std::move(sram), std::move(stt)});
  }
  return rows;
}

/// The exact per-pass counts the product's registry holds after a pass.
struct PassCounts {
  std::uint64_t dma_words = 0;
  std::uint64_t cache_fills = 0;
  std::uint64_t mda_evictions = 0;

  bool operator==(const PassCounts&) const = default;
};

PassCounts registry_counts() {
  const JsonValue snapshot = parse_json(obs::registry().to_json());
  PassCounts c;
  for (const auto& [name, value] : snapshot.at("counters").object) {
    const auto n = static_cast<std::uint64_t>(value.number);
    if (name == "sim.dma_words") c.dma_words = n;
    if (name == "sim.cache_fills") c.cache_fills = n;
    if (name.rfind("mda.evict.", 0) == 0) c.mda_evictions += n;
  }
  return c;
}

}  // namespace

EndToEnd run_paper_suite(const Options&, double seconds, Report& report,
                         SpanLog* spans, Layers* layers) {
  const Scoped root(spans, "bench", "paper_suite");
  EndToEnd e2e;
  // One set-up sample before the warm-up and one before each timed pass:
  // spread over the run, the samples see the host the passes see, not
  // only its first tenth of a second.
  std::vector<double> setups;
  std::optional<StructureEvaluator> evaluator;
  const auto set_up = [&] {
    const Scoped s(spans, "core", "StructureEvaluator() x1000", root.id());
    const std::uint64_t t0 = now_ns();
    for (int k = 0; k < kSetupBatch; ++k) evaluator.emplace();
    setups.push_back(ms_since(t0) / 1e3 / kSetupBatch);
  };
  set_up();

  // Warm-up pass, untimed: page faults and allocator growth land here.
  report.attempt();
  std::vector<SuiteRow> rows;
  {
    const Scoped s(spans, "report", "run_suite (warm-up)", root.id());
    rows = run_suite(*evaluator, 1);
  }
  const std::uint64_t digest = suite_digest(rows, *evaluator);
  report.check(digest == kSuiteDigest,
               "suite digest " + hex64(digest) + " != pinned " +
                   hex64(kSuiteDigest));
  print_headline(rows);
  const std::uint64_t per_pass_accesses = pass_accesses(rows);

  std::optional<obs::EnabledScope> obs_on;
  if (spans != nullptr) obs_on.emplace(true);
  TracedLayers traced;
  std::optional<PassCounts> counts;
  std::vector<double> pass_ms;
  const std::uint64_t start = now_ns();
  while (pass_ms.size() < kMinPasses || ms_since(start) < seconds * 1e3) {
    set_up();
    report.attempt();
    if (spans == nullptr) {
      const std::uint64_t t0 = now_ns();
      rows = run_suite(*evaluator, 1);
      pass_ms.push_back(ms_since(t0));
    } else {
      obs::registry().reset_values();
      const std::uint64_t t0 = now_ns();
      {
        const Scoped pass(spans, "bench", "suite pass", root.id());
        rows = traced_pass(*evaluator, *spans, pass.id(), traced);
      }
      pass_ms.push_back(ms_since(t0));
      const PassCounts now = registry_counts();
      if (!counts) counts = now;
      report.check(now == *counts, "registry counts differ between passes");
    }
    report.check(suite_digest(rows, *evaluator) == kSuiteDigest,
                 "suite digest differs from the pinned value");
  }
  e2e.setup_s = median(setups);
  e2e.p50_ms = median(pass_ms);
  e2e.tail_quantile = kTailQuantile;
  e2e.tail_ms = quantile(pass_ms, kTailQuantile);
  double total_ms = 0.0;
  for (const double ms : pass_ms) total_ms += ms;
  e2e.throughput_per_s = static_cast<double>(per_pass_accesses) *
                         static_cast<double>(pass_ms.size()) /
                         (total_ms / 1e3);
  std::cout << "paper_suite: " << pass_ms.size() << " passes, "
            << per_pass_accesses << " simulated accesses per pass\n";

  if (layers != nullptr) {
    layers->push_back({"workload.gen_ms", traced.gen.per_call(), "ms"});
    layers->push_back({"profile.profile_ms", traced.profile.per_call(), "ms"});
    layers->push_back({"core.mda_ms", traced.mda.per_call(), "ms"});
    layers->push_back({"sim.run_ms", traced.sim.per_call(), "ms"});
    layers->push_back({"sim.accesses_per_s",
                       static_cast<double>(traced.sim_accesses) /
                           (traced.sim.total_ms / 1e3),
                       "1/s"});
    layers->push_back({"sim.dma_words", static_cast<double>(counts->dma_words),
                       "count"});
    layers->push_back({"sim.cache_fills",
                       static_cast<double>(counts->cache_fills), "count"});
    layers->push_back({"mda.evictions",
                       static_cast<double>(counts->mda_evictions), "count"});
  }
  return e2e;
}

}  // namespace perfbench
