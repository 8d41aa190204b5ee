// Deterministic pseudo-random number generation.
//
// All stochastic components of the reproduction (workload generators,
// Monte-Carlo fault injection) draw from `Rng`, a xoshiro256** generator
// seeded via SplitMix64. Determinism across platforms is a hard
// requirement: identical seeds must yield identical traces, profiles,
// mappings, and injection campaigns, so results in EXPERIMENTS.md are
// exactly reproducible.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "ftspm/util/error.h"

namespace ftspm {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** deterministic PRNG with convenience distributions.
///
/// Not a std::uniform_random_bit_generator replacement on purpose: the
/// standard distributions are implementation-defined, which would break
/// cross-platform reproducibility.
class Rng {
 public:
  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  // The per-draw primitives are defined inline: the campaign chunk
  // engines draw several per strike at tens of millions of strikes/sec,
  // where a cross-TU call per draw is measurable. Sequences are
  // unchanged — only the call overhead moved.

  /// Next raw 64-bit value.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl_(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl_(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  /// Uses Lemire's unbiased multiply-shift rejection method.
  std::uint64_t next_below(std::uint64_t bound) {
    FTSPM_REQUIRE(bound > 0, "next_below bound must be positive");
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Samples an index from a discrete distribution given non-negative
  /// weights. Throws InvalidArgument if weights are empty or all zero.
  std::size_t next_discrete(std::span<const double> weights);

  /// Geometric-ish burst length: 1 + number of successes of repeated
  /// Bernoulli(p) trials, capped at `cap`. Used by workload generators
  /// to produce bursty access runs.
  std::uint32_t next_burst(double p, std::uint32_t cap);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Forks a statistically independent child generator; the child's seed
  /// is derived from this generator's stream.
  Rng fork() noexcept;

  /// Derives the seed of logical stream `stream_index` under `root_seed`
  /// via SplitMix64 mixing. Pure function of its arguments (the golden
  /// values are asserted by tests), so shard i of a campaign draws the
  /// same sequence no matter which worker thread runs it or in what
  /// order shards complete. Distinct indices yield decorrelated
  /// streams; index 0 does NOT reproduce `Rng(root_seed)` — callers
  /// that need serial compatibility must keep the root seed for the
  /// single-stream case.
  static std::uint64_t derive_stream_seed(std::uint64_t root_seed,
                                          std::uint64_t stream_index) noexcept;

  /// Convenience: a generator seeded with
  /// `derive_stream_seed(root_seed, stream_index)`.
  static Rng for_stream(std::uint64_t root_seed,
                        std::uint64_t stream_index) noexcept;

  /// The four xoshiro256** state words, for checkpointing a generator
  /// mid-stream. Round-trips exactly through `from_state`.
  std::array<std::uint64_t, 4> state() const noexcept { return state_; }

  /// Rebuilds a generator from `state()` output. The all-zero state is
  /// invalid for xoshiro256** and is nudged the same way seeding does.
  static Rng from_state(const std::array<std::uint64_t, 4>& words) noexcept;

 private:
  static constexpr std::uint64_t rotl_(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace ftspm
