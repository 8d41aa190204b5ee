#include "support/reference_replay.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ftspm {

ProgramProfile reference_profile(const Workload& workload) {
  const Program& program = workload.program;
  validate_trace(program, workload.trace);

  ProgramProfile out;
  out.blocks.resize(program.block_count());
  for (std::size_t i = 0; i < out.blocks.size(); ++i)
    out.blocks[i].id = static_cast<BlockId>(i);

  struct WordState {
    std::vector<std::uint64_t> value_born, last_read, write_count;
  };
  std::vector<WordState> words(program.block_count());
  for (std::size_t i = 0; i < program.block_count(); ++i) {
    const Block& b = program.block(static_cast<BlockId>(i));
    if (b.is_data()) {
      words[i].value_born.assign(b.size_words(), 0);
      words[i].last_read.assign(b.size_words(), 0);
      words[i].write_count.assign(b.size_words(), 0);
    }
  }

  struct Activation {
    BlockId fn;
    std::uint32_t entry_depth_bytes;
    std::uint32_t max_depth_bytes;
  };
  std::uint64_t now = 0;
  std::optional<BlockId> current_code, current_data;
  std::uint64_t code_since = 0, data_since = 0;
  std::vector<std::uint64_t> last_fetch(program.block_count(), 0);
  std::vector<Activation> activations;
  std::uint32_t stack_depth_bytes = 0;

  auto switch_current = [&](std::optional<BlockId>& current,
                            std::uint64_t& since, BlockId next) {
    if (current == next) return;
    if (current) out.blocks[*current].lifetime_cycles += now - since;
    current = next;
    since = now;
    ++out.blocks[next].references;
    out.reference_sequence.push_back(next);
  };

  for (const TraceEvent& e : workload.trace) {
    BlockProfile& bp = out.blocks[e.block];
    switch (e.type) {
      case AccessType::CallEnter: {
        ++bp.stack_calls;
        stack_depth_bytes += e.offset;
        for (auto& act : activations)
          act.max_depth_bytes = std::max(act.max_depth_bytes,
                                         stack_depth_bytes);
        activations.push_back(Activation{
            e.block, stack_depth_bytes - e.offset, stack_depth_bytes});
        break;
      }
      case AccessType::CallExit: {
        const Activation act = activations.back();
        activations.pop_back();
        BlockProfile& fn = out.blocks[act.fn];
        fn.max_stack_bytes = std::max(
            fn.max_stack_bytes, act.max_depth_bytes - act.entry_depth_bytes);
        stack_depth_bytes = act.entry_depth_bytes;
        break;
      }
      case AccessType::Fetch: {
        switch_current(current_code, code_since, e.block);
        bp.reads += e.repeat;
        now += e.nominal_cycles();
        last_fetch[e.block] = now;
        break;
      }
      case AccessType::Read:
      case AccessType::Write: {
        switch_current(current_data, data_since, e.block);
        WordState& ws = words[e.block];
        const std::uint32_t n_words = program.block(e.block).size_words();
        const std::uint64_t step = e.gap + 1ULL;
        const bool is_read = e.type == AccessType::Read;
        if (is_read)
          bp.reads += e.repeat;
        else
          bp.writes += e.repeat;
        for (std::uint32_t k = 0; k < e.repeat; ++k) {
          const std::uint32_t w = (e.offset + k) % n_words;
          const std::uint64_t t = now + (k + 1) * step;
          if (is_read) {
            ws.last_read[w] = t;
          } else {
            if (ws.last_read[w] > ws.value_born[w])
              bp.ace_cycles += ws.last_read[w] - ws.value_born[w];
            ws.value_born[w] = t;
            ws.last_read[w] = 0;
            ++ws.write_count[w];
          }
        }
        now += e.nominal_cycles();
        break;
      }
    }
  }

  if (current_code)
    out.blocks[*current_code].lifetime_cycles += now - code_since;
  if (current_data)
    out.blocks[*current_data].lifetime_cycles += now - data_since;
  for (std::size_t i = 0; i < program.block_count(); ++i) {
    const Block& b = program.block(static_cast<BlockId>(i));
    BlockProfile& bp = out.blocks[i];
    if (b.is_data()) {
      const WordState& ws = words[i];
      for (std::uint32_t w = 0; w < b.size_words(); ++w) {
        if (ws.last_read[w] > ws.value_born[w])
          bp.ace_cycles += ws.last_read[w] - ws.value_born[w];
        bp.max_word_writes = std::max(bp.max_word_writes, ws.write_count[w]);
      }
    } else {
      bp.ace_cycles = static_cast<std::uint64_t>(b.size_words()) *
                      last_fetch[i];
    }
  }

  out.total_cycles = now;
  out.total_accesses = workload.total_accesses();
  return out;
}

ReferenceRun reference_run(const SpmLayout& layout, const SimConfig& config,
                           const Workload& workload,
                           std::span<const RegionId> block_to_region,
                           bool with_phases) {
  const Program& program = workload.program;
  ReferenceRun out;
  RunResult& res = out.result;
  res.layout_name = layout.name();
  res.clock_mhz = config.clock_mhz;
  res.regions.resize(layout.region_count());
  res.block_max_word_writes.assign(program.block_count(), 0);
  res.block_spm_accesses.assign(program.block_count(), 0);
  res.block_cache_accesses.assign(program.block_count(), 0);

  Cache icache(config.icache);
  Cache dcache(config.dcache);
  const std::uint32_t line_words = config.icache.line_bytes / 8;
  const std::uint32_t dline_words = config.dcache.line_bytes / 8;

  struct BlockState {
    bool resident = false;
    bool dirty = false;
    std::uint64_t last_use = 0;
    std::vector<std::uint64_t> wear;
  };
  struct RegionState {
    std::uint64_t used_words = 0;
    std::vector<BlockId> resident;
  };
  std::vector<BlockState> blocks(program.block_count());
  std::vector<RegionState> regions(layout.region_count());
  std::uint64_t tick = 0;

  // Phase attribution; costs land in `unused` when phases are not asked
  // for.
  PhaseStats unused;
  PhaseStats* cur_phase = &unused;
  std::map<std::string, std::size_t> phase_index;
  std::vector<std::size_t> phase_stack;
  auto enter_phase = [&](const std::string& name) {
    auto [it, inserted] = phase_index.emplace(name, res.phases.size());
    if (inserted) res.phases.push_back(PhaseStats{name});
    phase_stack.push_back(it->second);
    cur_phase = &res.phases[it->second];
  };
  if (with_phases) enter_phase("(top)");

  auto dma_transfer = [&](RegionId rid, std::uint64_t words, bool into_spm) {
    const SpmRegionSpec& spec = layout.region(rid);
    const std::uint32_t spm_lat = into_spm ? spec.tech.write_latency_cycles
                                           : spec.tech.read_latency_cycles;
    const std::uint64_t cycles =
        dma_transfer_cycles(config.dma, config.dram, spm_lat, words);
    const double n = static_cast<double>(words);
    const double dram_e = n * (into_spm ? config.dram.read_energy_pj
                                        : config.dram.write_energy_pj);
    const double spm_e = n * (into_spm ? spec.tech.write_energy_pj
                                       : spec.tech.read_energy_pj);
    out.dma_words += words;
    cur_phase->dma_cycles += cycles;
    cur_phase->spm_energy_pj += spm_e;
    cur_phase->dram_energy_pj += dram_e;
    res.dma_cycles += cycles;
    res.dma_energy_pj += dram_e + spm_e;
    res.dma_dram_side_energy_pj += dram_e;
    if (into_spm)
      res.regions[rid].dma_in_words += words;
    else
      res.regions[rid].dma_out_words += words;
  };

  auto evict = [&](RegionId rid, BlockId victim) {
    RegionState& rs = regions[rid];
    BlockState& vs = blocks[victim];
    if (vs.dirty)
      dma_transfer(rid, program.block(victim).size_words(), false);
    vs.resident = false;
    vs.dirty = false;
    rs.used_words -= program.block(victim).size_words();
    rs.resident.erase(
        std::find(rs.resident.begin(), rs.resident.end(), victim));
  };

  auto ensure_resident = [&](BlockId id, RegionId rid) {
    BlockState& bs = blocks[id];
    bs.last_use = ++tick;
    if (bs.resident) return;
    RegionState& rs = regions[rid];
    const std::uint64_t need = program.block(id).size_words();
    while (rs.used_words + need > layout.region(rid).data_words()) {
      BlockId victim = rs.resident.front();
      for (BlockId b : rs.resident)
        if (blocks[b].last_use < blocks[victim].last_use) victim = b;
      ++res.regions[rid].capacity_evictions;
      evict(rid, victim);
    }
    dma_transfer(rid, need, true);
    rs.used_words += need;
    rs.resident.push_back(id);
    bs.resident = true;
  };

  auto cache_access = [&](Cache& cache, std::uint32_t cline_words,
                          std::uint64_t addr, bool is_write) {
    const CacheAccessResult r = cache.access(addr, is_write);
    res.cache_cycles += cache.config().hit_latency_cycles;
    res.cache_energy_pj += config.cache_access_energy_pj;
    cur_phase->cache_cycles += cache.config().hit_latency_cycles;
    cur_phase->cache_energy_pj += config.cache_access_energy_pj;
    if (!r.hit) {
      ++out.cache_fills;
      res.dram_penalty_cycles += config.dram.line_latency_cycles;
      res.dram_energy_pj += cline_words * config.dram.read_energy_pj;
      cur_phase->dram_penalty_cycles += config.dram.line_latency_cycles;
      cur_phase->dram_energy_pj += cline_words * config.dram.read_energy_pj;
    }
    if (r.writeback) {
      res.dram_penalty_cycles +=
          config.dram.word_latency_cycles * cline_words;
      res.dram_energy_pj += cline_words * config.dram.write_energy_pj;
      cur_phase->dram_penalty_cycles +=
          config.dram.word_latency_cycles * cline_words;
      cur_phase->dram_energy_pj += cline_words * config.dram.write_energy_pj;
    }
  };

  for (const TraceEvent& e : workload.trace) {
    if (e.is_marker()) {
      if (!with_phases) continue;
      if (e.type == AccessType::CallEnter) {
        enter_phase(program.block(e.block).name);
      } else if (phase_stack.size() > 1) {
        phase_stack.pop_back();
        cur_phase = &res.phases[phase_stack.back()];
      }
      continue;
    }
    const std::uint32_t n_words = program.block(e.block).size_words();
    res.compute_cycles += static_cast<std::uint64_t>(e.gap) * e.repeat;
    cur_phase->compute_cycles += static_cast<std::uint64_t>(e.gap) * e.repeat;
    cur_phase->accesses += e.repeat;

    const RegionId rid = block_to_region[e.block];
    const bool is_write = e.type == AccessType::Write;

    if (rid != kNoRegion) {
      res.block_spm_accesses[e.block] += e.repeat;
      ensure_resident(e.block, rid);
      const SpmRegionSpec& spec = layout.region(rid);
      RegionRunStats& rstats = res.regions[rid];
      BlockState& bs = blocks[e.block];
      cur_phase->spm_cycles += static_cast<std::uint64_t>(e.repeat) *
                               (is_write ? spec.tech.write_latency_cycles
                                         : spec.tech.read_latency_cycles);
      cur_phase->spm_energy_pj +=
          e.repeat * (is_write ? spec.tech.write_energy_pj
                               : spec.tech.read_energy_pj);
      if (is_write) {
        rstats.writes += e.repeat;
        rstats.write_energy_pj += e.repeat * spec.tech.write_energy_pj;
        res.spm_cycles += static_cast<std::uint64_t>(e.repeat) *
                          spec.tech.write_latency_cycles;
        bs.dirty = true;
        if (spec.tech.endurance_writes > 0.0) {
          if (bs.wear.empty()) bs.wear.assign(n_words, 0);
          for (std::uint32_t k = 0; k < e.repeat; ++k)
            ++bs.wear[(e.offset + k) % n_words];
        }
      } else {
        rstats.reads += e.repeat;
        rstats.read_energy_pj += e.repeat * spec.tech.read_energy_pj;
        res.spm_cycles += static_cast<std::uint64_t>(e.repeat) *
                          spec.tech.read_latency_cycles;
      }
    } else {
      res.block_cache_accesses[e.block] += e.repeat;
      const bool is_code = e.type == AccessType::Fetch;
      Cache& cache = is_code ? icache : dcache;
      const std::uint32_t cline = is_code ? line_words : dline_words;
      const std::uint64_t base = program.base_address(e.block);
      for (std::uint32_t k = 0; k < e.repeat; ++k) {
        const std::uint64_t addr =
            base + static_cast<std::uint64_t>((e.offset + k) % n_words) * 8;
        cache_access(cache, cline, addr, is_write);
      }
    }
  }

  for (std::size_t i = 0; i < program.block_count(); ++i) {
    const RegionId rid = block_to_region[i];
    if (rid != kNoRegion && blocks[i].resident && blocks[i].dirty)
      dma_transfer(rid, program.block(static_cast<BlockId>(i)).size_words(),
                   false);
  }

  for (std::size_t i = 0; i < program.block_count(); ++i) {
    if (blocks[i].wear.empty()) continue;
    const std::uint64_t hottest =
        *std::max_element(blocks[i].wear.begin(), blocks[i].wear.end());
    res.block_max_word_writes[i] = hottest;
    const RegionId rid = block_to_region[i];
    if (rid != kNoRegion)
      res.regions[rid].max_word_writes =
          std::max(res.regions[rid].max_word_writes, hottest);
  }

  res.icache = icache.stats();
  res.dcache = dcache.stats();
  res.total_cycles = res.compute_cycles + res.spm_cycles + res.cache_cycles +
                     res.dram_penalty_cycles + res.dma_cycles;
  const double time_us =
      static_cast<double>(res.total_cycles) / config.clock_mhz;
  res.spm_static_energy_pj = layout.static_power_mw() * time_us * 1000.0;
  return out;
}

}  // namespace ftspm
