#include "ftspm/report/render.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ftspm/util/error.h"
#include "ftspm/util/format.h"
#include "ftspm/util/table.h"

namespace ftspm {

std::string render_profile_table(const Program& program,
                                 const ProgramProfile& profile) {
  AsciiTable t({"Block", "Reads", "Writes", "Avg R/ref", "Avg W/ref",
                "Stack calls", "Max stack (B)", "Life-time (cycles)"});
  for (const BlockProfile& bp : profile.blocks) {
    const Block& blk = program.block(bp.id);
    t.add_row({blk.name, with_commas(bp.reads), with_commas(bp.writes),
               fixed(bp.avg_reads_per_reference(), 0),
               fixed(bp.avg_writes_per_reference(), 0),
               with_commas(bp.stack_calls),
               with_commas(static_cast<std::uint64_t>(bp.max_stack_bytes)),
               with_commas(bp.lifetime_cycles)});
  }
  return t.render();
}

std::string render_mapping_table(const Program& program,
                                 const MappingPlan& plan,
                                 const SpmLayout& layout) {
  AsciiTable t({"Block", "Mapped to SPM", "Region", "Technology", "Why"});
  t.set_align(1, Align::Left);
  t.set_align(2, Align::Left);
  t.set_align(3, Align::Left);
  t.set_align(4, Align::Left);
  for (const BlockMapping& m : plan.mappings()) {
    const Block& blk = program.block(m.block);
    std::string region = "-";
    std::string tech = "-";
    if (m.mapped()) {
      const SpmRegionSpec& spec = layout.region(m.region);
      region = spec.name;
      tech = std::string(to_string(spec.tech.tech));
      if (spec.tech.protection == ProtectionKind::SecDed) tech += " (SEC-DED)";
      if (spec.tech.protection == ProtectionKind::Parity) tech += " (parity)";
    }
    t.add_row({blk.name, m.mapped() ? "Yes" : "No", region, tech,
               to_string(m.reason)});
  }
  return t.render();
}

std::string render_layout_table(const SpmLayout& layout) {
  AsciiTable t({"Region", "Space", "Size", "Technology", "Protection",
                "Read lat", "Write lat", "Read pJ", "Write pJ"});
  t.set_align(1, Align::Left);
  t.set_align(3, Align::Left);
  t.set_align(4, Align::Left);
  for (const SpmRegionSpec& r : layout.regions()) {
    t.add_row({r.name, to_string(r.space),
               with_commas(r.data_bytes) + " B", to_string(r.tech.tech),
               to_string(r.tech.protection),
               std::to_string(r.tech.read_latency_cycles),
               std::to_string(r.tech.write_latency_cycles),
               fixed(r.tech.read_energy_pj, 1),
               fixed(r.tech.write_energy_pj, 1)});
  }
  std::ostringstream os;
  os << "Structure: " << layout.name()
     << "  (SPM static power " << fixed(layout.static_power_mw(), 2)
     << " mW)\n"
     << t.render();
  return os.str();
}

std::string render_rw_distribution(const SpmLayout& layout,
                                   const RunResult& run) {
  FTSPM_REQUIRE(run.regions.size() == layout.region_count(),
                "run does not match layout");
  const double total_r = static_cast<double>(run.spm_reads());
  const double total_w = static_cast<double>(run.spm_writes());
  AsciiTable t({"Region", "Reads", "Reads %", "Writes", "Writes %"});
  for (RegionId r = 0; r < layout.region_count(); ++r) {
    const RegionRunStats& s = run.regions[r];
    t.add_row({layout.region(r).name, with_commas(s.reads),
               total_r > 0 ? percent(static_cast<double>(s.reads) / total_r)
                           : "-",
               with_commas(s.writes),
               total_w > 0 ? percent(static_cast<double>(s.writes) / total_w)
                           : "-"});
  }
  return t.render();
}

std::string render_block_report(const Program& program,
                                const SystemResult& result,
                                const SpmLayout& layout,
                                const ProgramProfile& profile,
                                const StrikeMultiplicityModel& strikes) {
  const std::vector<double> vuln = per_block_vulnerability(
      layout, result.plan, program, profile, strikes);
  AsciiTable t({"Block", "Region", "SPM accesses", "Cache accesses",
                "ACE", "Hottest-word writes", "Vulnerability share"});
  t.set_align(1, Align::Left);
  double total_vuln = 0.0;
  for (double v : vuln) total_vuln += v;
  for (std::size_t i = 0; i < program.block_count(); ++i) {
    const BlockMapping& m = result.plan.mapping(static_cast<BlockId>(i));
    t.add_row(
        {program.block(static_cast<BlockId>(i)).name,
         m.mapped() ? layout.region(m.region).name : "-",
         with_commas(result.run.block_spm_accesses[i]),
         with_commas(result.run.block_cache_accesses[i]),
         percent(profile.ace_fraction(program, static_cast<BlockId>(i))),
         with_commas(result.run.block_max_word_writes[i]),
         total_vuln > 0.0 ? percent(vuln[i] / total_vuln) : "-"});
  }
  return t.render();
}

std::string render_bar_chart(
    const std::string& title,
    const std::vector<std::pair<std::string, double>>& series,
    const std::string& unit, int width) {
  FTSPM_REQUIRE(width >= 8, "chart width too small");
  double max_value = 0.0;
  std::size_t label_width = 0;
  for (const auto& [label, value] : series) {
    FTSPM_REQUIRE(value >= 0.0 && std::isfinite(value),
                  "bar values must be finite and non-negative");
    max_value = std::max(max_value, value);
    label_width = std::max(label_width, label.size());
  }
  std::ostringstream os;
  os << title << "\n";
  for (const auto& [label, value] : series) {
    const int bar =
        max_value > 0.0
            ? static_cast<int>(std::lround(value / max_value * width))
            : 0;
    os << "  " << label << std::string(label_width - label.size(), ' ')
       << " | " << std::string(static_cast<std::size_t>(bar), '#')
       << std::string(static_cast<std::size_t>(width - bar) + 1, ' ')
       << si_string(value, unit) << "\n";
  }
  return os.str();
}

}  // namespace ftspm
