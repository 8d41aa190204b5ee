#include "ftspm/sim/cache.h"

#include <bit>

#include "ftspm/util/error.h"

namespace ftspm {

Cache::Cache(CacheConfig config) : config_(config) {
  FTSPM_REQUIRE(config_.line_bytes >= 8 &&
                    std::has_single_bit(config_.line_bytes),
                "line size must be a power of two >= 8");
  FTSPM_REQUIRE(config_.ways >= 1, "cache needs at least one way");
  FTSPM_REQUIRE(config_.size_bytes % (config_.line_bytes * config_.ways) == 0,
                "cache size must divide evenly into sets");
  sets_ = config_.size_bytes / (config_.line_bytes * config_.ways);
  FTSPM_REQUIRE(std::has_single_bit(sets_), "set count must be a power of 2");
  // Both are powers of two, so address splitting is shifts and masks.
  line_shift_ =
      static_cast<std::uint32_t>(std::countr_zero(config_.line_bytes));
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets_));
  lines_.assign(static_cast<std::size_t>(sets_) * config_.ways, Line{});
}

void Cache::reset() {
  lines_.assign(lines_.size(), Line{});
  stats_ = CacheStats{};
  tick_ = 0;
  last_ = 0;
}

CacheAccessResult Cache::access(std::uint64_t addr, bool is_write) {
  ++tick_;
  if (is_write)
    ++stats_.writes;
  else
    ++stats_.reads;

  const std::uint64_t line_addr = addr >> line_shift_;
  const std::uint32_t set = static_cast<std::uint32_t>(line_addr & (sets_ - 1));
  const std::uint64_t tag = line_addr >> set_shift_;
  Line* base = &lines_[static_cast<std::size_t>(set) * config_.ways];

  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      line.lru = tick_;
      line.dirty = line.dirty || is_write;
      last_ = static_cast<std::size_t>(&line - lines_.data());
      return CacheAccessResult{true, false};
    }
  }

  // Miss: pick the invalid or least-recently-used way.
  if (is_write)
    ++stats_.write_misses;
  else
    ++stats_.read_misses;
  Line* victim = base;
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    Line& line = base[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (line.lru < victim->lru) victim = &line;
  }
  const bool writeback = victim->valid && victim->dirty;
  if (writeback) ++stats_.writebacks;
  victim->valid = true;
  victim->dirty = is_write;  // write-allocate
  victim->tag = tag;
  victim->lru = tick_;
  last_ = static_cast<std::size_t>(victim - lines_.data());
  return CacheAccessResult{false, writeback};
}

void Cache::repeat_last(std::uint32_t n, bool is_write) noexcept {
  if (n == 0) return;
  tick_ += n;
  if (is_write)
    stats_.writes += n;
  else
    stats_.reads += n;
  Line& line = lines_[last_];
  line.lru = tick_;
  line.dirty = line.dirty || is_write;
}

}  // namespace ftspm
