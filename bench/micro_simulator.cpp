// Simulator and profiler throughput microbenchmarks (google-benchmark):
// how fast the substrate chews through trace events and word accesses —
// the practical limit on evaluation scale.
#include <benchmark/benchmark.h>

#include "bench_io.h"

#include "ftspm/core/baseline_mapper.h"
#include "ftspm/core/systems.h"
#include "ftspm/profile/profiler.h"
#include "ftspm/workload/suite.h"

namespace {

using namespace ftspm;

const Workload& workload() {
  static const Workload w = make_benchmark(MiBenchmark::Sha, 4);
  return w;
}

/// FFT's re/im arrays exceed the 2 KiB protected SRAM regions, so the
/// FTSPM plan leaves them to the D-cache: about a third of its accesses
/// take the per-line cache path.
const Workload& cache_heavy_workload() {
  static const Workload w = make_benchmark(MiBenchmark::Fft, 4);
  return w;
}

/// Replays `w` under `plan` on `layout`; items are word accesses, and
/// the counters split them between the SPM and the cache path.
void simulate(benchmark::State& state, const Workload& w,
              const SpmLayout& layout, const SimConfig& config,
              const MappingPlan& plan) {
  const Simulator sim(layout, config);
  RunResult last;
  for (auto _ : state) {
    last = sim.run(w, plan.block_to_region());
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.total_accesses()));
  state.counters["spm_accesses"] =
      static_cast<double>(last.spm_accesses());
  state.counters["cache_accesses"] = static_cast<double>(
      last.icache.accesses() + last.dcache.accesses());
}

void BM_ProfileWorkload(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(profile_workload(workload()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              workload().total_accesses()));
}
BENCHMARK(BM_ProfileWorkload);

void BM_SimulateFtspm(benchmark::State& state) {
  const StructureEvaluator evaluator;
  const MappingPlan plan =
      MappingDeterminer(evaluator.ftspm_layout(), evaluator.sim_config())
          .determine(workload().program, profile_workload(workload()));
  simulate(state, workload(), evaluator.ftspm_layout(),
           evaluator.sim_config(), plan);
}
BENCHMARK(BM_SimulateFtspm);

// The cache path: one Cache::access per touched line, the rest of the
// line's words booked as hits.
void BM_SimulateFtspmCacheHeavy(benchmark::State& state) {
  const StructureEvaluator evaluator;
  const Workload& w = cache_heavy_workload();
  const MappingPlan plan =
      MappingDeterminer(evaluator.ftspm_layout(), evaluator.sim_config())
          .determine(w.program, profile_workload(w));
  simulate(state, w, evaluator.ftspm_layout(), evaluator.sim_config(), plan);
}
BENCHMARK(BM_SimulateFtspmCacheHeavy);

// The STT wear path: every data block sits in STT-RAM, so each write
// run books per-word wear (lap counts plus one partial lap).
void BM_SimulatePureStt(benchmark::State& state) {
  const StructureEvaluator evaluator;
  const MappingPlan plan = determine_baseline_mapping(
      evaluator.pure_stt_layout(), workload().program,
      profile_workload(workload()));
  simulate(state, workload(), evaluator.pure_stt_layout(),
           evaluator.sim_config(), plan);
}
BENCHMARK(BM_SimulatePureStt);

void BM_MdaDetermine(benchmark::State& state) {
  const StructureEvaluator evaluator;
  const ProgramProfile prof = profile_workload(workload());
  const MappingDeterminer mda(evaluator.ftspm_layout(),
                              evaluator.sim_config());
  for (auto _ : state)
    benchmark::DoNotOptimize(mda.determine(workload().program, prof));
}
BENCHMARK(BM_MdaDetermine);

void BM_GenerateSuiteWorkload(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(make_benchmark(MiBenchmark::Sha, 4));
}
BENCHMARK(BM_GenerateSuiteWorkload);

}  // namespace

int main(int argc, char** argv) {
  return ftspm::bench::run_google_benchmark(argc, argv);
}
