// Observability: the metrics registry.
//
// A process-wide registry of named counters, gauges, and fixed-bucket
// histograms that any layer can increment without threading a handle
// through every API. Two guards keep the cost near zero when nobody is
// looking:
//
//  * compile time — building with -DFTSPM_OBS=0 turns the FTSPM_OBS_*
//    macros into no-ops (no registry lookups are even compiled in);
//  * run time — the registry starts disabled; `set_enabled(false)`
//    (the default) makes every mutation a single predictable branch.
//
// Instruments cache their handles (`Counter&` etc.) outside hot loops:
// name lookup happens once per run, not per event. Snapshots are
// deterministic — entries are stored in a sorted map and the JSON/CSV
// dumps contain only simulation-derived quantities. Wall-clock timer
// entries (see timer.h) are excluded unless explicitly requested, so
// two runs with the same seed produce byte-identical dumps.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ftspm/obs/labels.h"

#ifndef FTSPM_OBS
#define FTSPM_OBS 1
#endif

namespace ftspm::obs {

class TraceEventSink;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  double value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Bucket `i` counts observations with
/// `value <= bounds[i]`; one implicit overflow bucket catches the rest.
/// Also tracks count/sum/min/max for cheap summary statistics.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bucket_bounds);

  void observe(double value) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }
  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Quantile estimate interpolated linearly inside the fixed buckets
  /// (Prometheus histogram_quantile style), with the tracked min/max
  /// standing in for the open edges of the first and overflow buckets.
  /// `q` is clamped to [0, 1]; returns 0 for an empty histogram. A
  /// pure function of the bucket counts, so snapshots stay
  /// deterministic.
  double quantile(double q) const noexcept;
  void reset() noexcept;

  /// Adds `other`'s observations into this histogram (bucket-wise).
  /// Requires identical bucket bounds.
  void merge_from(const Histogram& other);

 private:
  std::vector<double> bounds_;  ///< Strictly increasing.
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Wall-clock duration accumulator fed by ScopedTimer (timer.h).
/// Non-deterministic by nature, so snapshots skip timers by default.
class TimerStat {
 public:
  void record_ns(std::uint64_t ns) noexcept {
    ++count_;
    total_ns_ += ns;
    if (count_ == 1 || ns > max_ns_) max_ns_ = ns;
  }
  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t total_ns() const noexcept { return total_ns_; }
  std::uint64_t max_ns() const noexcept { return max_ns_; }
  void reset() noexcept { count_ = total_ns_ = max_ns_ = 0; }

  /// Folds another accumulator's summary in (count/total add, max
  /// keeps the larger).
  void merge_from(const TimerStat& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0 || other.max_ns_ > max_ns_) max_ns_ = other.max_ns_;
    count_ += other.count_;
    total_ns_ += other.total_ns_;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t total_ns_ = 0;
  std::uint64_t max_ns_ = 0;
};

/// What a snapshot should include.
struct SnapshotOptions {
  /// Wall-clock timers vary run to run; keep them out of dumps that
  /// must be byte-identical for a fixed seed (the default).
  bool include_wall_time = false;
};

/// Named-instrument registry. Lookup creates on first use; names are
/// conventionally dot-separated ("sim.evictions", "mda.evicted.energy").
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Creates with `bucket_bounds` on first use; later calls with the
  /// same name ignore the bounds argument.
  Histogram& histogram(std::string_view name,
                       std::vector<double> bucket_bounds);
  TimerStat& timer(std::string_view name);

  /// Labelled (dimensional) variants: one family `name`, one series per
  /// distinct LabelSet (see labels.h). Series are keyed by the
  /// canonical label encoding, so lookup order never affects snapshots
  /// or merges. All series of a histogram family share the bounds fixed
  /// by its first call; later bounds arguments are ignored.
  Counter& counter(std::string_view name, const LabelSet& labels);
  Histogram& histogram(std::string_view name, const LabelSet& labels,
                       std::vector<double> bucket_bounds);

  /// Deterministic JSON document: {"counters":{...},"gauges":{...},
  /// "histograms":{...}} with keys in sorted order.
  std::string to_json(const SnapshotOptions& options = {}) const;
  /// Flat CSV: kind,name,field,value — one row per scalar.
  std::string to_csv(const SnapshotOptions& options = {}) const;

  /// Zeroes every instrument but keeps registrations (and histogram
  /// bucket layouts) so cached handles stay valid.
  void reset_values();
  /// Drops every instrument. Invalidates cached handles.
  void clear();

  /// Folds `other`'s instruments into this registry: counters and
  /// timers add, histograms merge bucket-wise, gauges take `other`'s
  /// value (last write wins, matching what a serial run would have left
  /// behind). Every instrument `other` registered is registered here,
  /// zero-valued ones included, so merging per-task deltas in task
  /// order leaves the same key set and values as one thread filling
  /// this registry. The campaign driver (per shard) and the suite
  /// runner (per benchmark) merge through this after the join.
  void merge_from(const Registry& other);

  std::size_t size() const noexcept {
    std::size_t n = counters_.size() + gauges_.size() + histograms_.size() +
                    timers_.size();
    for (const auto& [name, family] : labelled_counters_)
      n += family.size();
    for (const auto& [name, family] : labelled_histograms_)
      n += family.series.size();
    return n;
  }

 private:
  /// Series of one labelled histogram family, sharing one bounds
  /// vector. Series keys are canonical label encodings.
  struct HistogramFamily {
    std::vector<double> bounds;
    std::map<std::string, Histogram, std::less<>> series;
  };

  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, TimerStat, std::less<>> timers_;
  std::map<std::string, std::map<std::string, Counter, std::less<>>,
           std::less<>>
      labelled_counters_;
  std::map<std::string, HistogramFamily, std::less<>> labelled_histograms_;
};

/// The process-wide registry used by the FTSPM_OBS_* macros and by all
/// built-in instrumentation.
Registry& registry();

/// Runtime master switch; instrumentation sites must check this before
/// touching the registry or the trace sink. Starts false.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// RAII per-thread redirect for pool tasks: while alive, registry() on
/// this thread resolves to `local` instead of the process-wide
/// instance, and current_trace() to `trace` (nullptr: no tracing on
/// this thread), so instrumentation keeps firing on worker threads
/// without racing. Each task records into its own sinks and the
/// coordinator folds them into the process-wide ones (Registry::
/// merge_from, TraceEventSink::append) in task order after the join,
/// which keeps the result independent of the worker count. The event
/// log stays coordinator-only: current_event_log() returns nullptr on
/// a redirected thread. Nests; the innermost redirect wins.
class ThreadRegistryScope {
 public:
  explicit ThreadRegistryScope(Registry& local,
                               TraceEventSink* trace = nullptr) noexcept;
  ~ThreadRegistryScope();
  ThreadRegistryScope(const ThreadRegistryScope&) = delete;
  ThreadRegistryScope& operator=(const ThreadRegistryScope&) = delete;

 private:
  Registry* prev_;
  TraceEventSink* prev_trace_;
};

/// True while the calling thread's registry() is redirected by a
/// ThreadRegistryScope (used by the trace and event-log accessors).
bool thread_registry_redirected() noexcept;

/// The trace sink installed by the calling thread's innermost
/// ThreadRegistryScope, or nullptr (current_trace() on a redirected
/// thread).
TraceEventSink* thread_trace() noexcept;

/// RAII enable/disable for tests and tool scopes.
class EnabledScope {
 public:
  explicit EnabledScope(bool on) : prev_(enabled()) { set_enabled(on); }
  ~EnabledScope() { set_enabled(prev_); }
  EnabledScope(const EnabledScope&) = delete;
  EnabledScope& operator=(const EnabledScope&) = delete;

 private:
  bool prev_;
};

}  // namespace ftspm::obs

// Fire-and-forget instrumentation macros for sites too cold to bother
// caching a handle. Hot loops should hoist `obs::enabled()` and the
// handle lookup instead.
#if FTSPM_OBS
#define FTSPM_OBS_COUNT(name, n)                          \
  do {                                                    \
    if (::ftspm::obs::enabled())                          \
      ::ftspm::obs::registry().counter(name).add(n);      \
  } while (false)
#define FTSPM_OBS_GAUGE(name, v)                          \
  do {                                                    \
    if (::ftspm::obs::enabled())                          \
      ::ftspm::obs::registry().gauge(name).set(v);        \
  } while (false)
#else
#define FTSPM_OBS_COUNT(name, n) \
  do {                           \
  } while (false)
#define FTSPM_OBS_GAUGE(name, v) \
  do {                           \
  } while (false)
#endif
