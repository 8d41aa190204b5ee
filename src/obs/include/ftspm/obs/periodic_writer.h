// Observability: the periodic NDJSON writer.
//
// One dedicated thread that appends a caller-built record to a file
// every `interval_ms`: an immediate first record (so even a run shorter
// than the interval leaves one), one per interval after that, and a
// final record at stop(). The campaign heartbeat (exec) and the serve
// daemon's telemetry stream are both this writer with different line
// callbacks.
//
// The writer is never on the hot path: producers only publish state the
// callback reads (relaxed atomics, a locked registry), and nobody waits
// on the writer thread except stop(). A failed write is reported once
// on stderr instead of thrown — a full disk must not kill the run the
// stream describes. Records carry wall-clock quantities, so they belong
// in their own file and never in a deterministic artefact.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace ftspm::obs {

class PeriodicWriter {
 public:
  /// Returns one NDJSON record (no trailing newline); `final` is true
  /// only for the record written by stop(). Runs on the writer thread.
  using LineFn = std::function<std::string(bool final)>;

  /// Opens `path` for appending (InvalidArgument when it cannot be
  /// opened, naming `what`) and starts the writer thread. `what` labels
  /// the stream in error and warning messages ("heartbeat").
  PeriodicWriter(const std::string& path, std::uint32_t interval_ms,
                 std::string what, LineFn line);
  ~PeriodicWriter();
  PeriodicWriter(const PeriodicWriter&) = delete;
  PeriodicWriter& operator=(const PeriodicWriter&) = delete;

  /// Writes the final record and joins the thread. Idempotent; also
  /// called by the destructor, so an exception in the producer still
  /// shuts the thread down.
  void stop();

 private:
  void run();
  void write(bool final);

  const std::string path_;
  const std::uint32_t interval_ms_;
  const std::string what_;
  const LineFn line_;
  std::ofstream out_;
  bool write_failed_ = false;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace ftspm::obs
