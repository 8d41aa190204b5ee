// Campaign hot-loop microbenchmarks (google-benchmark): the syndrome
// kernel strike classifier against the encode/flip/decode oracle it
// replaced, and the allocation-free static-campaign chunk loop. The
// kernel-vs-oracle pair is the per-strike view of the speedup
// bench/perf_harness records end to end in BENCH_campaign.json.
#include <benchmark/benchmark.h>

#include "bench_io.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/util/rng.h"
#include "support/campaign_oracles.h"

namespace {

using namespace ftspm;

const InjectionRegion& secded_region() {
  static const InjectionRegion region{RegionGeometry(8192, 8),
                                      ProtectionKind::SecDed, 1.0, 1};
  return region;
}

// Kernel and oracle walk identical (origin, flips, RNG) sequences, so
// their timings divide into the classifier speedup directly.
void BM_ClassifyStrikeKernel(benchmark::State& state) {
  const InjectionRegion& region = secded_region();
  const std::uint64_t bits = region.geometry.physical_bits();
  const auto flips = static_cast<std::uint32_t>(state.range(0));
  CampaignScratch scratch;
  Rng rng(7);
  std::uint64_t bit = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classify_strike(region, bit % bits, flips, rng, scratch));
    bit += 131;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifyStrikeKernel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ClassifyStrikeOracle(benchmark::State& state) {
  const InjectionRegion& region = secded_region();
  const std::uint64_t bits = region.geometry.physical_bits();
  const auto flips = static_cast<std::uint32_t>(state.range(0));
  Rng rng(7);
  std::uint64_t bit = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classify_strike_oracle(region, bit % bits, flips, rng));
    bit += 131;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifyStrikeOracle)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The full chunk loop over a mixed surface — aim draws, classifier,
// ACE filter, counter update — at the shard-scratch steady state the
// parallel runner reaches after its first chunk.
void BM_CampaignChunk(benchmark::State& state) {
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(8192, 8), ProtectionKind::SecDed, 0.9, 1},
      {RegionGeometry(8192, 1), ProtectionKind::Parity, 0.7, 1},
      {RegionGeometry(2048, 0), ProtectionKind::None, 0.4, 1},
      {RegionGeometry(2048, 0), ProtectionKind::Immune, 1.0, 1}};
  const StrikeMultiplicityModel strikes = StrikeMultiplicityModel::at_40nm();
  constexpr std::uint64_t kChunk = 4096;
  CampaignConfig config;
  config.strikes = ~std::uint64_t{0};  // never the stopping condition
  CampaignShardState shard = begin_campaign_shard(config.seed);
  for (auto _ : state) {
    run_campaign_chunk(regions, strikes, config, shard, kChunk);
    benchmark::DoNotOptimize(shard.partial);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunk));
}
BENCHMARK(BM_CampaignChunk);

}  // namespace

int main(int argc, char** argv) {
  return ftspm::bench::run_google_benchmark(argc, argv);
}
