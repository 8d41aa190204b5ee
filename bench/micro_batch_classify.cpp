// Pattern-classification microbenchmarks (google-benchmark): the
// SEC-DED syndrome-fold kernel (docs/performance.md, "Per-strike
// classification") over arrays of several sizes, and the per-pattern
// classify_pattern calls the campaign engines make — SEC-DED and
// parity — on the same pattern pool, so the per-pattern cost is
// visible in isolation from the campaign's generation stage.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_io.h"
#include "ftspm/ecc/parity_codec.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/util/rng.h"

namespace {

using namespace ftspm;

/// Deterministic pattern soup: mostly 1-3 bit errors like a real
/// campaign block, with check-bit flips sprinkled in.
struct PatternArrays {
  std::vector<std::uint64_t> data;
  std::vector<std::uint8_t> check;
};

/// Deterministic 64 Ki-pattern pool every size argument slices from.
const PatternArrays& patterns() {
  static const PatternArrays arrays = [] {
    PatternArrays p;
    Rng rng(0xbeef);
    constexpr std::size_t kMax = 1 << 16;
    p.data.reserve(kMax);
    p.check.reserve(kMax);
    for (std::size_t i = 0; i < kMax; ++i) {
      std::uint64_t d = 1ULL << rng.next_below(64);
      if (i % 3 == 0) d |= 1ULL << rng.next_below(64);
      if (i % 7 == 0) d |= 1ULL << rng.next_below(64);
      p.data.push_back(d);
      p.check.push_back(i % 5 == 0
                            ? static_cast<std::uint8_t>(1u << rng.next_below(8))
                            : 0);
    }
    return p;
  }();
  return arrays;
}

void BM_FoldSyndromes(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const PatternArrays& p = patterns();
  std::vector<std::uint8_t> syndromes(count);
  for (auto _ : state) {
    SecDedCodec::fold_syndromes(p.data.data(), p.check.data(), count,
                                syndromes.data());
    benchmark::DoNotOptimize(syndromes.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_FoldSyndromes)->Arg(64)->Arg(256)->Arg(4096);

// classify_pattern (fold + syndrome-LUT decode) one pattern at a
// time, as the campaign engines call it.
void BM_ClassifyPatternLoop(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const PatternArrays& p = patterns();
  std::vector<PatternDecode> out(count);
  for (auto _ : state) {
    for (std::size_t i = 0; i < count; ++i)
      out[i] = SecDedCodec::classify_pattern(p.data[i], p.check[i]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ClassifyPatternLoop)->Arg(64)->Arg(256)->Arg(4096);

void BM_ParityClassifyPatternLoop(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const PatternArrays& p = patterns();
  std::vector<PatternDecode> out(count);
  for (auto _ : state) {
    for (std::size_t i = 0; i < count; ++i)
      out[i] = ParityCodec::classify_pattern(p.data[i], p.check[i]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ParityClassifyPatternLoop)->Arg(64)->Arg(256)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  return ftspm::bench::run_google_benchmark(argc, argv);
}
