// Evaluation driver: runs the MiBench-style suite against the three
// structures — the inner loop behind Figs. 4-8. Shared by the bench
// binaries and the examples so every artefact reports the same numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ftspm/core/systems.h"
#include "ftspm/workload/suite.h"

namespace ftspm {

/// All three structures' results for one benchmark.
struct SuiteRow {
  MiBenchmark benchmark{};
  std::string name;
  SystemResult ftspm;
  SystemResult pure_sram;
  SystemResult pure_stt;
};

/// Invoked after each benchmark completes with (benchmarks_done,
/// benchmarks_total, name_of_the_one_just_finished), serialized, in
/// completion order. Reporting only; results are unaffected.
using SuiteProgress =
    std::function<void(std::size_t, std::size_t, const std::string&)>;

/// Runs every benchmark at the given scale on an exec::ThreadPool of
/// `jobs` workers (0 = exec::default_jobs(); 1 runs on the caller's
/// thread). Each benchmark is one task that records into its own
/// metrics registry and trace sink; after the join they are folded into
/// the process-wide ones in benchmark order. When observability is
/// enabled, each benchmark also gets a wall-clock timer ("suite.<name>"),
/// a span on the trace's "suite" lane timestamped by cumulative
/// simulated FTSPM cycles, and phase_start/phase_end event-log records.
/// Rows, metrics snapshot, trace and event log are byte-identical for
/// any `jobs`; the progress order is the only thing that varies.
std::vector<SuiteRow> run_suite(const StructureEvaluator& evaluator,
                                std::uint64_t scale_divisor = 1,
                                std::uint32_t jobs = 1,
                                const SuiteProgress& progress = {});

/// Geometric mean of per-row ratios f(row); rows where the ratio is
/// non-positive or non-finite are skipped.
double geomean_ratio(const std::vector<SuiteRow>& rows,
                     double (*ratio)(const SuiteRow&));

}  // namespace ftspm
