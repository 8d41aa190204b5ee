// Set-associative write-back L1 cache model.
//
// Blocks the mapping algorithm leaves out of the SPM are served by the
// processor's L1 caches (Table IV row "Cache Inst./Data": 8 KiB,
// unprotected SRAM, 1-cycle hit). The model is functional-timing only:
// true LRU, write-allocate, write-back; no coherence (single core).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ftspm {

struct CacheConfig {
  std::uint32_t size_bytes = 8 * 1024;
  std::uint32_t line_bytes = 32;
  std::uint32_t ways = 4;
  std::uint32_t hit_latency_cycles = 1;
};

struct CacheStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t writebacks = 0;

  std::uint64_t accesses() const noexcept { return reads + writes; }
  std::uint64_t misses() const noexcept { return read_misses + write_misses; }
  double miss_rate() const noexcept {
    return accesses() ? static_cast<double>(misses()) /
                            static_cast<double>(accesses())
                      : 0.0;
  }
};

/// Outcome of one cache access, used by the simulator for timing/energy.
struct CacheAccessResult {
  bool hit = true;
  bool writeback = false;  ///< A dirty victim line was evicted.
};

class Cache {
 public:
  explicit Cache(CacheConfig config);

  const CacheConfig& config() const noexcept { return config_; }
  const CacheStats& stats() const noexcept { return stats_; }

  /// Performs one word access at byte address `addr`.
  CacheAccessResult access(std::uint64_t addr, bool is_write);

  /// Books `n` more accesses to the line the last access() touched
  /// (call access() first). They are guaranteed hits, so the tick, LRU
  /// stamp, dirty bit and read/write counts end exactly as after `n`
  /// repeated access() calls to that line. Serves a run of consecutive
  /// words in one line.
  void repeat_last(std::uint32_t n, bool is_write) noexcept;

  /// Invalidates everything and clears statistics.
  void reset();

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;  ///< Monotonic use stamp.
  };

  CacheConfig config_;
  CacheStats stats_;
  std::vector<Line> lines_;  ///< sets * ways, row-major by set.
  std::uint32_t sets_ = 0;
  std::uint32_t line_shift_ = 0;  ///< log2(line_bytes).
  std::uint32_t set_shift_ = 0;   ///< log2(sets_).
  std::uint64_t tick_ = 0;
  std::size_t last_ = 0;  ///< Index of the line access() last touched.
};

}  // namespace ftspm
