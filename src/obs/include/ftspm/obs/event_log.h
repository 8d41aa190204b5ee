// Observability: the structured event log.
//
// EventLog accumulates schema-versioned NDJSON records — one JSON
// object per line — describing the lifecycle of a run: the manifest,
// phase and shard boundaries, checkpoint writes, and the final
// campaign summary. Every record carries a
// caller-supplied *simulated* timestamp (strike index, simulated
// cycle), never wall time, and a monotonically increasing sequence
// number, so the log for a fixed seed is byte-identical regardless of
// `--jobs`, chunk size, or host speed. Wall-clock liveness belongs to
// the heartbeat stream (see exec::HeartbeatConfig), not here.
//
// Line shape:
//   {"schema":1,"seq":0,"ts":0,"event":"run_manifest","command":...}
//
// The sink is single-writer: only the coordinating thread emits.
// current_event_log() returns nullptr on worker threads running under
// an obs::ThreadRegistryScope redirect.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ftspm/obs/trace_sink.h"  // TraceArg

namespace ftspm::obs {

class EventLog {
 public:
  /// Bump when a record's field set changes incompatibly; documented
  /// in docs/observability.md.
  static constexpr std::uint32_t kSchemaVersion = 1;

  EventLog() = default;

  /// Appends one record. `ts` is a simulated timestamp (strike index
  /// or simulated cycle); `fields` are extra key/value pairs appended
  /// after the fixed header, in the given order.
  void emit(std::string_view event, std::uint64_t ts,
            std::vector<TraceArg> fields = {});

  std::size_t record_count() const noexcept { return records_.size(); }

  /// The full NDJSON document: one object per line, trailing newline.
  std::string str() const;

  /// Writes str() to `path` (throws ftspm::Error on I/O failure).
  void write_file(const std::string& path) const;

 private:
  struct Record {
    std::string event;
    std::uint64_t ts;
    std::vector<TraceArg> fields;
  };
  std::vector<Record> records_;
};

/// The process-wide event log instrumentation sites emit into, or
/// nullptr when event logging is off, or when the calling thread is
/// redirected (the log is single-writer). Sites must also
/// check obs::enabled().
EventLog* current_event_log() noexcept;

/// Installs `log` as the current event log for this scope (RAII
/// restore).
class EventLogScope {
 public:
  explicit EventLogScope(EventLog* log);
  ~EventLogScope();
  EventLogScope(const EventLogScope&) = delete;
  EventLogScope& operator=(const EventLogScope&) = delete;

 private:
  EventLog* prev_;
};

}  // namespace ftspm::obs
