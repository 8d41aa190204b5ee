#include "ftspm/report/suite_runner.h"

#include <cmath>
#include <mutex>
#include <optional>
#include <utility>

#include "ftspm/exec/thread_pool.h"
#include "ftspm/obs/event_log.h"
#include "ftspm/obs/timer.h"
#include "ftspm/util/error.h"

namespace ftspm {

std::vector<SuiteRow> run_suite(const StructureEvaluator& evaluator,
                                std::uint64_t scale_divisor,
                                std::uint32_t jobs,
                                const SuiteProgress& progress) {
  const std::vector<MiBenchmark>& benchmarks = all_benchmarks();
  const std::size_t n = benchmarks.size();
  obs::TraceEventSink* trace =
      obs::enabled() ? obs::current_trace() : nullptr;

  // Each benchmark is one pool task that records into its own registry
  // and trace; the coordinator folds them in benchmark order after the
  // join, so every artefact is the same whatever `jobs` says.
  std::vector<std::optional<SuiteRow>> slots(n);
  std::vector<obs::Registry> registries(n);
  std::vector<obs::TraceEventSink> traces(trace != nullptr ? n : 0);
  std::mutex progress_mutex;
  std::size_t completed = 0;
  exec::ThreadPool pool(jobs);
  parallel_for(pool, n, [&](std::size_t i) {
    const obs::ThreadRegistryScope redirect(
        registries[i], traces.empty() ? nullptr : &traces[i]);
    const MiBenchmark bench = benchmarks[i];
    const std::string name = to_string(bench);
    std::vector<SystemResult> results;
    {
      const obs::ScopedTimer timer("suite." + name);
      results = evaluator.evaluate_all(make_benchmark(bench, scale_divisor));
    }
    FTSPM_CHECK(results.size() == 3, "expected three structures");
    slots[i] = SuiteRow{bench, name, std::move(results[0]),
                        std::move(results[1]), std::move(results[2])};
    if (progress) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      progress(++completed, n, name);
    }
  });

  for (const obs::Registry& reg : registries) obs::registry().merge_from(reg);
  // The suite lane is registered before any task's lanes so pid/tid
  // numbering matches one sink fed benchmark by benchmark.
  const obs::TraceEventSink::LaneId lane =
      trace != nullptr ? trace->lane("suite", "benchmarks") : 0;
  obs::EventLog* events = obs::enabled() ? obs::current_event_log() : nullptr;
  std::vector<SuiteRow> rows;
  rows.reserve(n);
  std::uint64_t cumulative_cycles = 0;
  for (std::size_t i = 0; i < n; ++i) {
    SuiteRow& row = *slots[i];
    const std::uint64_t cycles = row.ftspm.run.total_cycles;
    if (events != nullptr)
      events->emit("phase_start", cumulative_cycles,
                   {obs::TraceArg::str("kind", "suite"),
                    obs::TraceArg::str("benchmark", row.name)});
    if (trace != nullptr) {
      trace->append(std::move(traces[i]));
      // Span the benchmark over its own FTSPM run on a cumulative
      // simulated-cycle axis (deterministic, unlike wall time).
      trace->complete(lane, row.name, cumulative_cycles, cycles,
                      {obs::TraceArg::num("cycles", cycles)});
    }
    if (events != nullptr)
      events->emit("phase_end", cumulative_cycles + cycles,
                   {obs::TraceArg::str("kind", "suite"),
                    obs::TraceArg::str("benchmark", row.name),
                    obs::TraceArg::num("cycles", cycles)});
    cumulative_cycles += cycles;
    rows.push_back(std::move(row));
  }
  return rows;
}

double geomean_ratio(const std::vector<SuiteRow>& rows,
                     double (*ratio)(const SuiteRow&)) {
  FTSPM_REQUIRE(ratio != nullptr, "ratio function required");
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const SuiteRow& row : rows) {
    const double r = ratio(row);
    if (!(r > 0.0) || !std::isfinite(r)) continue;
    log_sum += std::log(r);
    ++n;
  }
  return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

}  // namespace ftspm
