// Block-level access traces.
//
// The whole reproduction is trace-driven: workload generators emit a
// deterministic stream of block accesses which the profiler, the MDA
// mapping pipeline, the cycle-level simulator, and the fault campaign
// all consume. Events are *aggregated*: one TraceEvent can represent a
// run of `repeat` consecutive word accesses (a streaming loop), which
// keeps multi-million-access workloads compact while preserving exact
// per-word counts.
#pragma once

#include <cstdint>
#include <vector>

#include "ftspm/workload/program.h"

namespace ftspm {

/// What one trace event does to its block.
enum class AccessType : std::uint8_t {
  Fetch,      ///< Instruction fetch from a code block.
  Read,       ///< Data word read.
  Write,      ///< Data word write.
  CallEnter,  ///< Marker: a call into a code block begins; `offset`
              ///< carries the stack bytes the activation needs.
  CallExit,   ///< Marker: the matching return.
};

const char* to_string(AccessType type) noexcept;

/// One (possibly aggregated) trace event.
///
/// Semantics of an event with repeat == n > 1: n word accesses to
/// consecutive word offsets offset, offset+1, ... wrapping modulo the
/// block's word count; each access is preceded by `gap` cycles of pure
/// compute. CallEnter/CallExit markers always have repeat == 1 and cost
/// no memory access themselves.
struct TraceEvent {
  BlockId block = 0;
  AccessType type = AccessType::Read;
  std::uint16_t gap = 0;      ///< Compute cycles before each access.
  std::uint32_t offset = 0;   ///< Starting word offset (stack bytes for
                              ///< CallEnter).
  std::uint32_t repeat = 1;   ///< Number of consecutive word accesses.

  bool is_marker() const noexcept {
    return type == AccessType::CallEnter || type == AccessType::CallExit;
  }
  bool is_memory_access() const noexcept { return !is_marker(); }

  /// Nominal cycles the event occupies on a 1-cycle-per-access machine
  /// (the profiler's timebase). Markers take zero time.
  std::uint64_t nominal_cycles() const noexcept {
    if (is_marker()) return 0;
    return static_cast<std::uint64_t>(repeat) * (gap + 1ULL);
  }

  /// Word accesses this event performs.
  std::uint64_t accesses() const noexcept { return is_marker() ? 0 : repeat; }
};

/// Visits accesses [first, first + count) of memory-access event `e` on
/// a block of `n_words` words, count <= n_words, as at most two
/// stretches of consecutive words: fn(word, k, length) means accesses
/// k .. k + length - 1 touch words word .. word + length - 1. Lets a
/// replay walk one lap of a run with no division per word.
template <typename Fn>
void for_each_stretch(const TraceEvent& e, std::uint32_t n_words,
                      std::uint32_t first, std::uint32_t count, Fn&& fn) {
  if (count == 0) return;
  const auto word = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(e.offset) + first) % n_words);
  const std::uint32_t head = count < n_words - word ? count : n_words - word;
  fn(word, first, head);
  if (head < count) fn(std::uint32_t{0}, first + head, count - head);
}

/// A complete workload: the program plus its deterministic trace.
struct Workload {
  Program program;
  std::vector<TraceEvent> trace;

  /// Total word accesses across the trace.
  std::uint64_t total_accesses() const noexcept;
  /// Total nominal cycles (profiler timebase).
  std::uint64_t nominal_cycles() const noexcept;
};

/// Validates a trace against its program: block ids in range, offsets
/// within blocks, fetches only from code blocks, reads/writes only to
/// data blocks, and balanced call markers. Throws ftspm::Error on the
/// first violation.
void validate_trace(const Program& program,
                    const std::vector<TraceEvent>& trace);

}  // namespace ftspm
