#include "ftspm/report/json_report.h"

#include "ftspm/util/json.h"
#include "ftspm/util/version.h"

namespace ftspm {

namespace {

void write_manifest(JsonWriter& w, const RunManifest& m) {
  w.field("library_version", kLibraryVersion)
      .field("command", m.command)
      .field("workload", m.workload)
      .field("scale", m.scale)
      .field("seed", m.seed);
}

void write_system_result(JsonWriter& w, const SystemResult& r,
                         const SpmLayout& layout, const Program& program) {
  w.field("structure", r.structure);
  w.field("cycles", r.run.total_cycles);
  w.begin_object("cycles_breakdown")
      .field("compute", r.run.compute_cycles)
      .field("spm", r.run.spm_cycles)
      .field("cache", r.run.cache_cycles)
      .field("dram", r.run.dram_penalty_cycles)
      .field("dma", r.run.dma_cycles)
      .end_object();
  w.begin_object("energy_pj")
      .field("spm_dynamic", r.run.spm_dynamic_energy_pj())
      .field("spm_static", r.run.spm_static_energy_pj)
      .field("total_dynamic", r.run.total_dynamic_energy_pj())
      .end_object();
  w.begin_object("avf")
      .field("sdc", r.avf.sdc_avf)
      .field("due", r.avf.due_avf)
      .field("dre", r.avf.dre_avf)
      .field("vulnerability", r.avf.vulnerability())
      .end_object();
  w.begin_object("endurance")
      .field("unlimited", r.endurance.unlimited())
      .field("max_word_write_rate_per_s",
             r.endurance.max_word_write_rate_per_s)
      .end_object();
  w.begin_array("mappings");
  for (const BlockMapping& m : r.plan.mappings()) {
    w.begin_object()
        .field("block", program.block(m.block).name)
        .field("mapped", m.mapped())
        .field("region", m.mapped() ? layout.region(m.region).name : "-")
        .field("reason", to_string(m.reason))
        .end_object();
  }
  w.end_array();
  w.begin_array("regions");
  for (RegionId rid = 0; rid < layout.region_count(); ++rid) {
    const RegionRunStats& s = r.run.regions[rid];
    w.begin_object()
        .field("name", layout.region(rid).name)
        .field("reads", s.reads)
        .field("writes", s.writes)
        .field("dma_in_words", s.dma_in_words)
        .field("dma_out_words", s.dma_out_words)
        .field("capacity_evictions", s.capacity_evictions)
        .field("max_word_writes", s.max_word_writes)
        .field("energy_pj", s.energy_pj())
        .end_object();
  }
  w.end_array();
}

}  // namespace

std::string manifest_json(const RunManifest& manifest) {
  JsonWriter w;
  w.begin_object();
  write_manifest(w, manifest);
  w.end_object();
  return w.str();
}

std::string system_result_json(const SystemResult& result,
                               const SpmLayout& layout,
                               const Program& program,
                               const RunManifest& manifest) {
  JsonWriter w;
  w.begin_object();
  w.begin_object("manifest");
  write_manifest(w, manifest);
  w.end_object();
  write_system_result(w, result, layout, program);
  w.end_object();
  return w.str();
}

std::string campaign_json(const CampaignResult& result,
                          const RecoveryCounters* recovery,
                          const RunManifest& manifest,
                          const CampaignTiming* timing) {
  JsonWriter w;
  w.begin_object();
  w.begin_object("manifest");
  write_manifest(w, manifest);
  w.end_object();
  w.begin_object("strikes").field("total", result.strikes);
  for (const auto& f : CampaignResult::kOutcomes)
    w.field(f.name, result.*f.member);
  w.field("vulnerability", result.vulnerability()).end_object();
  if (recovery != nullptr) {
    w.begin_object("recovery");
    for (const auto& f : RecoveryCounters::kFields)
      w.field(f.name, recovery->*f.member);
    w.field("recovery_energy_pj", recovery->recovery_energy_pj)
        .field("mean_repair_cycles", recovery->mean_repair_cycles())
        .end_object();
  }
  if (timing != nullptr) {
    // Wall-clock block, last so deterministic consumers can strip it;
    // the flag tells golden comparisons to ignore these fields.
    w.begin_object("timing")
        .field("nondeterministic", true)
        .field("wall_ms", timing->wall_ms)
        .field("strikes_per_sec", timing->strikes_per_sec)
        .end_object();
  }
  w.end_object();
  return w.str();
}

std::string suite_json(const std::vector<SuiteRow>& rows,
                       const StructureEvaluator& evaluator,
                       const RunManifest& manifest) {
  JsonWriter w;
  w.begin_object();
  w.begin_object("manifest");
  write_manifest(w, manifest);
  w.end_object();
  w.begin_array("benchmarks");
  for (const SuiteRow& row : rows) {
    const Workload workload = make_benchmark(row.benchmark);
    w.begin_object();
    w.field("benchmark", row.name);
    w.begin_object("ftspm");
    write_system_result(w, row.ftspm, evaluator.ftspm_layout(),
                        workload.program);
    w.end_object();
    w.begin_object("pure_sram");
    write_system_result(w, row.pure_sram, evaluator.pure_sram_layout(),
                        workload.program);
    w.end_object();
    w.begin_object("pure_stt");
    write_system_result(w, row.pure_stt, evaluator.pure_stt_layout(),
                        workload.program);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace ftspm
