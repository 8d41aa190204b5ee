// Parallel execution microbenchmarks (google-benchmark): strikes/sec
// of the sharded campaign engine at 1/2/4/8 worker threads over a
// fixed 8-shard plan, the raw thread-pool dispatch overhead, and the
// checkpoint serialization cost. Scaling headroom depends on the host
// core count — on an N-core machine the jobs > N rows flatten out.
#include <benchmark/benchmark.h>

#include "bench_io.h"

#include <vector>

#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/exec/shard.h"
#include "ftspm/exec/thread_pool.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/strike_model.h"

namespace {

using namespace ftspm;

std::vector<InjectionRegion> surfaces() {
  return {
      InjectionRegion{RegionGeometry(8192, 8), ProtectionKind::SecDed, 0.9,
                      1},
      InjectionRegion{RegionGeometry(4096, 1), ProtectionKind::Parity, 0.8,
                      1},
  };
}

// strikes/sec at a given --jobs over a pinned 8-shard plan, so every
// row computes the identical campaign and only the scheduling varies.
void BM_ShardedCampaign(benchmark::State& state) {
  const std::vector<InjectionRegion> regions = surfaces();
  const StrikeMultiplicityModel model =
      StrikeMultiplicityModel::for_node(40.0);
  CampaignConfig cfg;
  cfg.strikes = 200'000;
  exec::ExecConfig exec;
  exec.jobs = static_cast<std::uint32_t>(state.range(0));
  exec.shards = 8;
  for (auto _ : state) {
    const exec::ShardedRun run =
        exec::run_campaign_sharded(regions, model, cfg, exec);
    benchmark::DoNotOptimize(run.merged.sdc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.strikes));
}
BENCHMARK(BM_ShardedCampaign)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The bare engine — the whole campaign as one chunk on this thread —
// that the jobs=1 row is paying runner and pool overhead against.
void BM_SerialCampaign(benchmark::State& state) {
  const std::vector<InjectionRegion> regions = surfaces();
  const StrikeMultiplicityModel model =
      StrikeMultiplicityModel::for_node(40.0);
  CampaignConfig cfg;
  cfg.strikes = 200'000;
  for (auto _ : state) {
    CampaignShardState shard = begin_campaign_shard(cfg.seed);
    run_campaign_chunk(regions, model, cfg, shard, cfg.strikes);
    benchmark::DoNotOptimize(shard.partial.sdc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.strikes));
}
BENCHMARK(BM_SerialCampaign)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PoolDispatch(benchmark::State& state) {
  exec::ThreadPool pool(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(64);
    for (int i = 0; i < 64; ++i) tasks.push_back([] {});
    pool.run_all(std::move(tasks));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_PoolDispatch)->Arg(1)->Arg(4)->UseRealTime();

void BM_CheckpointJsonRoundTrip(benchmark::State& state) {
  exec::CampaignCheckpoint cp;
  cp.root_seed = 0x57a1ce5eed;
  cp.strikes = 8 * 1'000'000;
  cp.shard_count = 8;
  cp.kind = "static";
  for (std::uint32_t i = 0; i < 8; ++i) {
    exec::ShardCheckpoint s;
    s.index = i;
    s.strikes = 1'000'000;
    s.done = 500'000;
    s.partial = CampaignResult{500'000, 400'000, 60'000, 30'000, 10'000};
    s.rng_state = {~0ULL - i, i + 1, 0x8000000000000000ULL | i, 42};
    cp.shards.push_back(s);
  }
  for (auto _ : state) {
    const exec::CampaignCheckpoint back =
        exec::checkpoint_from_json(exec::checkpoint_to_json(cp));
    benchmark::DoNotOptimize(back.shards.size());
  }
}
BENCHMARK(BM_CheckpointJsonRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  return ftspm::bench::run_google_benchmark(argc, argv);
}
