// Shared plumbing of the perfbench workloads: the clock, order
// statistics, the run report (checks + metrics + the final JSON line),
// and the in-memory span log the traced run fills and writes out as one
// Chrome/Perfetto trace.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ftspm {
class JsonValue;
}

namespace perfbench {

/// Nanoseconds on the steady clock since the benchmark process started.
std::uint64_t now_ns();
double ms_since(std::uint64_t start_ns);
double ms_between(std::uint64_t start_ns, std::uint64_t end_ns);

/// The q-quantile (0..1) with linear interpolation between closest
/// ranks, over a copy of `values`. Infinite samples sort last. Returns
/// 0 for an empty input.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// What one invocation was asked to do.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Artefacts (trace, served ledgers, sockets), relative to the cwd.
  std::string out_dir = ".bench_build/out";
};

/// Checks and metrics of one invocation. Every operation the workload
/// issues is `attempt`ed; a failed output check counts it `fail`ed.
class Report {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation and keeps `what` for the log.
  void fail(const std::string& what);
  /// fail(what) unless `ok`. Returns ok.
  bool check(bool ok, const std::string& what);

  /// Appends a metric to the printed lines and the JSON result.
  void metric(const std::string& name, double value, const std::string& unit);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

  /// Human-readable metric lines and failures (stdout), then the one
  /// JSON result line, last.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
};

/// One timed interval at a layer boundary. `parent` is the span that
/// caused it (0 = a root); spans of one request share `request`.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::string layer;
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Viewer row ("main", "shard 1", ...); ignored for request spans.
  std::string track;
  /// Request id; a non-empty id draws the span as an async slice.
  std::string request;
};

/// Spans kept in memory for the traced run, written once at exit.
/// Single-threaded: the workloads record from their driving thread only
/// (shard stamps arrive on it after the pool joins).
class SpanLog {
 public:
  std::uint32_t add(Span span);
  std::uint32_t open(std::string layer, std::string name,
                     std::uint32_t parent = 0, std::string track = "main");
  void close(std::uint32_t id);
  void close_at(std::uint32_t id, std::uint64_t end_ns);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const Span& span(std::uint32_t id) const { return spans_.at(id - 1); }

  /// Copies the events of a Chrome trace document (the daemon's wall
  /// trace) into the output, shifted by `offset_us` and moved to their
  /// own process rows.
  void import_chrome(const ftspm::JsonValue& doc, std::uint64_t offset_us);

  /// Self time of one span in ms: its duration minus the union of its
  /// children's intervals.
  double own_ms(std::uint32_t id) const;
  /// Self time per layer over `root` and its descendants, in ms, largest
  /// first.
  std::vector<std::pair<std::string, double>> self_ms(std::uint32_t root) const;

  /// Writes the merged trace ({"traceEvents":[...]}) to `path`.
  void write(const std::string& path, const std::string& metadata_json) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::vector<std::uint32_t>> children_;  ///< By parent id.
  std::vector<std::string> imported_;  ///< Raw, already re-based events.
};

/// RAII span over a scope; a no-op when `log` is null.
class Scoped {
 public:
  Scoped(SpanLog* log, std::string layer, std::string name,
         std::uint32_t parent = 0, std::string track = "main");
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint32_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_ = 0;
};

/// The end-to-end figures every workload reports (see README.md).
struct EndToEnd {
  double setup_s = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_quantile = 0.0;  ///< Which percentile tail_ms is.
  double throughput_per_s = 0.0;
};

/// Machine, toolchain and build fingerprint as a JSON object.
std::string machine_json();

}  // namespace perfbench
