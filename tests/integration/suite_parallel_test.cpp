// run_suite's worker count must never reach what it reports: rows,
// metrics snapshot, trace and event log are the same for any jobs
// value, with progress as the only (completion-ordered) observable
// difference.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ftspm/obs/event_log.h"
#include "ftspm/obs/metrics.h"
#include "ftspm/obs/trace_sink.h"
#include "ftspm/report/suite_runner.h"

namespace ftspm {
namespace {

constexpr std::uint64_t kScale = 64;  // keep the 12x3 sweep quick

void expect_same_rows(const std::vector<SuiteRow>& a,
                      const std::vector<SuiteRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].benchmark, b[i].benchmark);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].ftspm.run.total_cycles, b[i].ftspm.run.total_cycles);
    EXPECT_EQ(a[i].pure_sram.run.total_cycles,
              b[i].pure_sram.run.total_cycles);
    EXPECT_EQ(a[i].pure_stt.run.total_cycles, b[i].pure_stt.run.total_cycles);
    EXPECT_EQ(a[i].ftspm.avf.sdc_avf, b[i].ftspm.avf.sdc_avf);
    EXPECT_EQ(a[i].ftspm.avf.due_avf, b[i].ftspm.avf.due_avf);
    EXPECT_EQ(a[i].ftspm.run.spm_dynamic_energy_pj(),
              b[i].ftspm.run.spm_dynamic_energy_pj());
  }
}

TEST(SuiteParallelTest, RowsMatchSerialForAnyJobsValue) {
  const StructureEvaluator evaluator;
  const std::vector<SuiteRow> serial = run_suite(evaluator, kScale);
  for (std::uint32_t jobs : {1u, 2u, 4u})
    expect_same_rows(serial, run_suite(evaluator, kScale, jobs));
}

TEST(SuiteParallelTest, JobsOneFallsThroughToSerial) {
  // jobs 1 is the serial case: every benchmark runs on the caller's
  // thread, one after another in suite order, with the same rows as the
  // default call.
  const StructureEvaluator evaluator;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::string> order;
  const std::vector<SuiteRow> rows = run_suite(
      evaluator, kScale, 1,
      [&](std::size_t done, std::size_t total, const std::string& name) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(done, order.size() + 1);
        EXPECT_EQ(total, kMiBenchmarkCount);
        order.push_back(name);
      });
  ASSERT_EQ(order.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(order[i], rows[i].name);
  expect_same_rows(run_suite(evaluator, kScale), rows);
}

/// The snapshot, trace document and event log one run_suite call
/// leaves behind with observability on.
struct SuiteArtefacts {
  std::string metrics;
  std::string trace;
  std::string events;
};

SuiteArtefacts observed_suite(std::uint32_t jobs) {
  obs::registry().clear();
  const obs::EnabledScope enable(true);
  obs::TraceEventSink trace;
  obs::EventLog events;
  {
    const obs::TraceScope trace_scope(&trace);
    const obs::EventLogScope events_scope(&events);
    run_suite(StructureEvaluator(), kScale, jobs);
  }
  SuiteArtefacts out{obs::registry().to_json(), trace.str(), events.str()};
  obs::registry().clear();
  return out;
}

TEST(SuiteParallelTest, ArtefactsMatchForAnyJobs) {
  const SuiteArtefacts serial = observed_suite(1);
  // The MDA and simulator instruments record on the pool's threads and
  // reach the snapshot and the trace, not only the suite's own spans
  // and events.
  EXPECT_NE(serial.metrics.find("\"sim."), std::string::npos);
  for (const char* process : {"\"suite\"", "\"mda\"", "\"sim\""})
    EXPECT_NE(serial.trace.find(process), std::string::npos) << process;
  EXPECT_NE(serial.events.find("\"phase_end\""), std::string::npos);
  for (std::uint32_t jobs : {2u, 4u}) {
    const SuiteArtefacts parallel = observed_suite(jobs);
    EXPECT_EQ(parallel.metrics, serial.metrics) << "jobs " << jobs;
    EXPECT_EQ(parallel.trace, serial.trace) << "jobs " << jobs;
    EXPECT_EQ(parallel.events, serial.events) << "jobs " << jobs;
  }
}

TEST(SuiteParallelTest, ProgressReportsEveryBenchmarkOnce) {
  const StructureEvaluator evaluator;
  std::mutex mutex;
  std::set<std::string> names;
  std::size_t calls = 0;
  std::size_t max_done = 0;
  run_suite(evaluator, kScale, 4,
            [&](std::size_t done, std::size_t total, const std::string& name) {
              const std::lock_guard<std::mutex> lock(mutex);
              ++calls;
              EXPECT_EQ(total, kMiBenchmarkCount);
              EXPECT_GE(done, 1u);
              EXPECT_LE(done, total);
              if (done > max_done) max_done = done;
              names.insert(name);
            });
  EXPECT_EQ(calls, kMiBenchmarkCount);
  EXPECT_EQ(names.size(), kMiBenchmarkCount);
  EXPECT_EQ(max_done, kMiBenchmarkCount);
}

}  // namespace
}  // namespace ftspm
