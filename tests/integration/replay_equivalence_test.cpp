// The product's run-granular replays against per-word references.
//
// profile_workload and Simulator::run serve each aggregated trace event
// in closed form (one lap for ACE, one cache lookup per touched line,
// lap counts for STT wear). Every statistic they report must equal, with
// exact ==, what a literal one-access-at-a-time replay reports: the
// floating-point energy sums included, with observability off and on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ftspm/core/baseline_mapper.h"
#include "ftspm/core/mapping_determiner.h"
#include "ftspm/core/systems.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/obs/metrics.h"
#include "ftspm/util/rng.h"
#include "ftspm/workload/suite.h"
#include "support/reference_replay.h"

namespace ftspm {
namespace {

// --- exact comparison of every reported field ------------------------

void expect_same(const ProgramProfile& got, const ProgramProfile& want) {
  ASSERT_EQ(got.blocks.size(), want.blocks.size());
  for (std::size_t i = 0; i < want.blocks.size(); ++i) {
    SCOPED_TRACE("block " + std::to_string(i));
    const BlockProfile& g = got.blocks[i];
    const BlockProfile& w = want.blocks[i];
    EXPECT_EQ(g.id, w.id);
    EXPECT_EQ(g.reads, w.reads);
    EXPECT_EQ(g.writes, w.writes);
    EXPECT_EQ(g.references, w.references);
    EXPECT_EQ(g.stack_calls, w.stack_calls);
    EXPECT_EQ(g.max_stack_bytes, w.max_stack_bytes);
    EXPECT_EQ(g.lifetime_cycles, w.lifetime_cycles);
    EXPECT_EQ(g.ace_cycles, w.ace_cycles);
    EXPECT_EQ(g.max_word_writes, w.max_word_writes);
  }
  EXPECT_EQ(got.total_cycles, want.total_cycles);
  EXPECT_EQ(got.total_accesses, want.total_accesses);
  EXPECT_EQ(got.reference_sequence, want.reference_sequence);
}

void expect_same(const CacheStats& g, const CacheStats& w) {
  EXPECT_EQ(g.reads, w.reads);
  EXPECT_EQ(g.writes, w.writes);
  EXPECT_EQ(g.read_misses, w.read_misses);
  EXPECT_EQ(g.write_misses, w.write_misses);
  EXPECT_EQ(g.writebacks, w.writebacks);
}

void expect_same(const RunResult& got, const RunResult& want) {
  EXPECT_EQ(got.layout_name, want.layout_name);
  EXPECT_EQ(got.clock_mhz, want.clock_mhz);
  EXPECT_EQ(got.total_cycles, want.total_cycles);
  EXPECT_EQ(got.compute_cycles, want.compute_cycles);
  EXPECT_EQ(got.spm_cycles, want.spm_cycles);
  EXPECT_EQ(got.cache_cycles, want.cache_cycles);
  EXPECT_EQ(got.dram_penalty_cycles, want.dram_penalty_cycles);
  EXPECT_EQ(got.dma_cycles, want.dma_cycles);
  ASSERT_EQ(got.regions.size(), want.regions.size());
  for (std::size_t r = 0; r < want.regions.size(); ++r) {
    SCOPED_TRACE("region " + std::to_string(r));
    const RegionRunStats& g = got.regions[r];
    const RegionRunStats& w = want.regions[r];
    EXPECT_EQ(g.reads, w.reads);
    EXPECT_EQ(g.writes, w.writes);
    EXPECT_EQ(g.read_energy_pj, w.read_energy_pj);
    EXPECT_EQ(g.write_energy_pj, w.write_energy_pj);
    EXPECT_EQ(g.dma_in_words, w.dma_in_words);
    EXPECT_EQ(g.dma_out_words, w.dma_out_words);
    EXPECT_EQ(g.capacity_evictions, w.capacity_evictions);
    EXPECT_EQ(g.max_word_writes, w.max_word_writes);
  }
  {
    SCOPED_TRACE("icache");
    expect_same(got.icache, want.icache);
  }
  {
    SCOPED_TRACE("dcache");
    expect_same(got.dcache, want.dcache);
  }
  EXPECT_EQ(got.cache_energy_pj, want.cache_energy_pj);
  EXPECT_EQ(got.dram_energy_pj, want.dram_energy_pj);
  EXPECT_EQ(got.dma_energy_pj, want.dma_energy_pj);
  EXPECT_EQ(got.dma_dram_side_energy_pj, want.dma_dram_side_energy_pj);
  EXPECT_EQ(got.spm_static_energy_pj, want.spm_static_energy_pj);
  ASSERT_EQ(got.phases.size(), want.phases.size());
  for (std::size_t p = 0; p < want.phases.size(); ++p) {
    SCOPED_TRACE("phase " + want.phases[p].name);
    const PhaseStats& g = got.phases[p];
    const PhaseStats& w = want.phases[p];
    EXPECT_EQ(g.name, w.name);
    EXPECT_EQ(g.compute_cycles, w.compute_cycles);
    EXPECT_EQ(g.spm_cycles, w.spm_cycles);
    EXPECT_EQ(g.cache_cycles, w.cache_cycles);
    EXPECT_EQ(g.dram_penalty_cycles, w.dram_penalty_cycles);
    EXPECT_EQ(g.dma_cycles, w.dma_cycles);
    EXPECT_EQ(g.accesses, w.accesses);
    EXPECT_EQ(g.spm_energy_pj, w.spm_energy_pj);
    EXPECT_EQ(g.cache_energy_pj, w.cache_energy_pj);
    EXPECT_EQ(g.dram_energy_pj, w.dram_energy_pj);
  }
  EXPECT_EQ(got.block_max_word_writes, want.block_max_word_writes);
  EXPECT_EQ(got.block_spm_accesses, want.block_spm_accesses);
  EXPECT_EQ(got.block_cache_accesses, want.block_cache_accesses);
}

/// Runs the product and the reference on one case, with observability
/// off or on, and demands identical results — and, with it on,
/// identical sim.cache_fills / sim.dma_words counter increments.
void expect_run_matches(const SpmLayout& layout, const SimConfig& config,
                        const Workload& w,
                        const std::vector<RegionId>& map, bool obs_on) {
  const ReferenceRun want = reference_run(layout, config, w, map, obs_on);
  const obs::EnabledScope scope(obs_on);
  obs::Counter& fills = obs::registry().counter("sim.cache_fills");
  obs::Counter& dma = obs::registry().counter("sim.dma_words");
  const std::uint64_t fills0 = fills.value();
  const std::uint64_t dma0 = dma.value();
  const RunResult got = Simulator(layout, config).run(w, map);
  expect_same(got, want.result);
  if (obs_on) {
    EXPECT_FALSE(got.phases.empty());
    EXPECT_EQ(fills.value() - fills0, want.cache_fills);
    EXPECT_EQ(dma.value() - dma0, want.dma_words);
  }
}

// --- seeded, well-formed random cases --------------------------------

/// One random program, trace, SPM layout, cache geometry and mapping.
struct RandomCase {
  Workload workload;
  SpmLayout layout;
  SimConfig config;
  std::vector<RegionId> map;
};

std::uint32_t draw_words(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return static_cast<std::uint32_t>(rng.next_in(1, 3));  // < line
    case 1: return static_cast<std::uint32_t>(rng.next_in(4, 16));
    case 2: return static_cast<std::uint32_t>(rng.next_in(17, 100));
    default: return static_cast<std::uint32_t>(rng.next_in(101, 700));
  }
}

std::uint32_t draw_repeat(Rng& rng, std::uint32_t n) {
  const auto k = static_cast<std::uint32_t>(rng.next_in(2, 5));
  switch (rng.next_below(7)) {
    case 0: return 1;
    case 1: return static_cast<std::uint32_t>(rng.next_in(1, n));
    case 2: return n;                                    // one exact lap
    case 3: return k * n;                                // exact multiple
    case 4: return k * n + static_cast<std::uint32_t>(rng.next_in(1, n));
    case 5: return static_cast<std::uint32_t>(rng.next_in(1, 3 * n + 5));
    default: return static_cast<std::uint32_t>(rng.next_in(1000, 4000));
  }
}

std::uint32_t draw_offset(Rng& rng, std::uint32_t n) {
  switch (rng.next_below(4)) {
    case 0: return n - 1;  // a block's last word
    case 1: return 0;
    default: return static_cast<std::uint32_t>(rng.next_below(n));
  }
}

CacheConfig draw_cache(Rng& rng) {
  CacheConfig c;
  c.line_bytes = 8u << rng.next_below(4);  // 1, 2, 4 or 8 words
  c.ways = 1u << rng.next_below(3);
  c.size_bytes = c.line_bytes * c.ways * (1u << rng.next_below(5));
  c.hit_latency_cycles = static_cast<std::uint32_t>(rng.next_in(1, 3));
  return c;
}

/// Non-integral energies, so any change in the order or number of the
/// floating-point additions shows up in the sums.
double draw_energy(Rng& rng, double base) {
  return base + static_cast<double>(rng.next_below(1000)) / 37.0;
}

RandomCase make_case(std::uint64_t seed) {
  Rng rng(seed);
  const TechnologyLibrary lib;

  std::vector<Block> blocks;
  const auto n_code = rng.next_in(1, 3);
  const auto n_data = rng.next_in(1, 5);
  for (std::int64_t i = 0; i < n_code; ++i)
    blocks.push_back({"f" + std::to_string(i), BlockKind::Code,
                      8 * draw_words(rng)});
  for (std::int64_t i = 0; i < n_data; ++i)
    blocks.push_back({"d" + std::to_string(i), BlockKind::Data,
                      8 * draw_words(rng)});
  if (rng.next_bool(0.5))
    blocks.push_back({"stack", BlockKind::Stack, 8 * draw_words(rng)});
  Program program("random", blocks);

  std::vector<TraceEvent> trace;
  std::vector<BlockId> calls;
  const auto n_code_blocks = static_cast<std::uint64_t>(n_code);
  const auto n_data_blocks = blocks.size() - n_code_blocks;
  const auto events = rng.next_in(200, 600);
  for (std::int64_t i = 0; i < events; ++i) {
    const std::uint64_t pick = rng.next_below(10);
    if (pick == 0) {
      const auto fn = static_cast<BlockId>(rng.next_below(n_code_blocks));
      trace.push_back({fn, AccessType::CallEnter, 0,
                       static_cast<std::uint32_t>(8 * rng.next_below(32)),
                       1});
      calls.push_back(fn);
      continue;
    }
    if (pick == 1 && !calls.empty()) {
      trace.push_back({calls.back(), AccessType::CallExit, 0, 0, 1});
      calls.pop_back();
      continue;
    }
    const bool fetch = rng.next_bool(0.3);
    const auto id = static_cast<BlockId>(
        fetch ? rng.next_below(n_code_blocks)
              : n_code_blocks + rng.next_below(n_data_blocks));
    const std::uint32_t n = blocks[id].size_bytes / 8;
    const AccessType type = fetch ? AccessType::Fetch
                            : rng.next_bool(0.5) ? AccessType::Write
                                                 : AccessType::Read;
    const auto gap = static_cast<std::uint16_t>(
        rng.next_bool(0.05) ? 65535 : rng.next_below(5));
    trace.push_back({id, type, gap, draw_offset(rng, n), draw_repeat(rng, n)});
  }
  while (!calls.empty()) {
    trace.push_back({calls.back(), AccessType::CallExit, 0, 0, 1});
    calls.pop_back();
  }

  // Small regions, so blocks time-share them and get evicted; STT-RAM
  // in both spaces, so wear is tracked.
  const auto region_bytes = [&] { return 64u << rng.next_below(6); };
  SpmLayout layout("random",
                   {SpmRegionSpec{"I", SpmSpace::Instruction, region_bytes(),
                                  lib.stt_ram()},
                    SpmRegionSpec{"DT", SpmSpace::Data, region_bytes(),
                                  lib.stt_ram()},
                    SpmRegionSpec{"DS", SpmSpace::Data, region_bytes(),
                                  lib.secded_sram()},
                    SpmRegionSpec{"DP", SpmSpace::Data, region_bytes(),
                                  lib.parity_sram()}});

  SimConfig config;
  config.icache = draw_cache(rng);
  config.dcache = draw_cache(rng);
  config.cache_access_energy_pj = draw_energy(rng, 15.0);
  config.dram.read_energy_pj = draw_energy(rng, 80.0);
  config.dram.write_energy_pj = draw_energy(rng, 80.0);

  std::vector<RegionId> map(blocks.size(), kNoRegion);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (rng.next_bool(0.35)) continue;  // cache-served
    std::vector<RegionId> fits;
    for (RegionId r = 0; r < layout.region_count(); ++r) {
      const SpmRegionSpec& spec = layout.region(r);
      if ((spec.space == SpmSpace::Instruction) == blocks[i].is_code() &&
          blocks[i].size_bytes <= spec.data_bytes)
        fits.push_back(r);
    }
    if (!fits.empty()) map[i] = fits[rng.next_below(fits.size())];
  }

  return RandomCase{Workload{std::move(program), std::move(trace)},
                    std::move(layout), config, std::move(map)};
}

constexpr std::uint64_t kSeeds = 40;

class RandomReplay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomReplay, ProfileMatchesPerWordReference) {
  const RandomCase c = make_case(GetParam());
  expect_same(profile_workload(c.workload), reference_profile(c.workload));
}

TEST_P(RandomReplay, SimulatorMatchesPerWordReference) {
  const RandomCase c = make_case(GetParam());
  expect_run_matches(c.layout, c.config, c.workload, c.map, false);
}

TEST_P(RandomReplay, SimulatorMatchesPerWordReferenceWithObs) {
  const RandomCase c = make_case(GetParam());
  expect_run_matches(c.layout, c.config, c.workload, c.map, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomReplay,
                         ::testing::Range<std::uint64_t>(1, kSeeds + 1));

/// The random cases reach every edge case the closed forms split on.
TEST(RandomReplayCoverage, SeedsReachEveryEdgeCase) {
  std::uint64_t multi_lap = 0, exact_multiple = 0, last_word = 0;
  std::uint64_t crosses_line = 0, below_line_cached = 0, stt_laps = 0;
  std::uint64_t evictions = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const RandomCase c = make_case(seed);
    for (const TraceEvent& e : c.workload.trace) {
      if (e.is_marker()) continue;
      const std::uint32_t n = c.workload.program.block(e.block).size_words();
      multi_lap += e.repeat > n;
      exact_multiple += e.repeat > n && e.repeat % n == 0;
      last_word += e.offset == n - 1 && e.repeat > 1;
      const RegionId r = c.map[e.block];
      if (r == kNoRegion) {
        const std::uint32_t line_words =
            (e.type == AccessType::Fetch ? c.config.icache.line_bytes
                                         : c.config.dcache.line_bytes) /
            8;
        crosses_line += line_words > 1 && e.repeat > line_words;
        below_line_cached += n < line_words;
      } else if (e.type == AccessType::Write &&
                 c.layout.region(r).tech.endurance_writes > 0.0) {
        stt_laps += e.repeat >= 2 * n;
      }
    }
    const RunResult run = Simulator(c.layout, c.config).run(c.workload, c.map);
    for (const RegionRunStats& r : run.regions)
      evictions += r.capacity_evictions;
  }
  EXPECT_GT(multi_lap, 0u);
  EXPECT_GT(exact_multiple, 0u);
  EXPECT_GT(last_word, 0u);
  EXPECT_GT(crosses_line, 0u);
  EXPECT_GT(below_line_cached, 0u);
  EXPECT_GT(stt_laps, 0u);
  EXPECT_GT(evictions, 0u);
}

// --- the evaluation suite's own traces and plans ----------------------

class SuiteReplay : public ::testing::TestWithParam<MiBenchmark> {};

TEST_P(SuiteReplay, AllStructuresMatchPerWordReference) {
  const Workload w = make_benchmark(GetParam(), 16);
  const ProgramProfile prof = profile_workload(w);
  expect_same(prof, reference_profile(w));
  const StructureEvaluator ev;
  const MappingPlan ftspm = MappingDeterminer(ev.ftspm_layout(),
                                              ev.sim_config())
                                .determine(w.program, prof);
  const MappingPlan sram =
      determine_baseline_mapping(ev.pure_sram_layout(), w.program, prof);
  const MappingPlan stt =
      determine_baseline_mapping(ev.pure_stt_layout(), w.program, prof);
  for (const bool obs_on : {false, true}) {
    SCOPED_TRACE(obs_on ? "obs on" : "obs off");
    expect_run_matches(ev.ftspm_layout(), ev.sim_config(), w,
                       ftspm.block_to_region(), obs_on);
    expect_run_matches(ev.pure_sram_layout(), ev.sim_config(), w,
                       sram.block_to_region(), obs_on);
    expect_run_matches(ev.pure_stt_layout(), ev.sim_config(), w,
                       stt.block_to_region(), obs_on);
  }
}

INSTANTIATE_TEST_SUITE_P(All, SuiteReplay,
                         ::testing::ValuesIn(all_benchmarks()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace ftspm
