#include "ftspm/report/campaign_report.h"

#include <algorithm>
#include <cstdio>

#include "ftspm/util/format.h"
#include "ftspm/util/table.h"

namespace ftspm::report {

obs::LedgerRecord campaign_run_record(const CampaignResult& result,
                                      const RecoveryCounters* recovery,
                                      std::string_view workload,
                                      std::uint64_t seed, std::uint32_t jobs,
                                      std::uint32_t shards, double wall_ms,
                                      double strikes_per_sec) {
  obs::LedgerRecord record;
  record.command = "campaign";
  record.workload = std::string(workload);
  record.scale = 1;
  record.seed = seed;
  record.jobs = jobs;
  record.shards = shards;
  record.counters = {{"strikes", result.strikes}};
  for (const auto& f : CampaignResult::kOutcomes)
    record.counters.emplace_back(f.name, result.*f.member);
  record.metrics = {{"vulnerability", result.vulnerability()}};
  if (recovery != nullptr) {
    for (const auto& f : RecoveryCounters::kFields)
      record.counters.emplace_back(f.name, recovery->*f.member);
    record.metrics.emplace_back("mean_repair_cycles",
                                recovery->mean_repair_cycles());
    record.metrics.emplace_back("recovery_energy_pj",
                                recovery->recovery_energy_pj);
  }
  record.wall_ms = wall_ms;
  record.strikes_per_sec = strikes_per_sec;
  return record;
}

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

namespace {

std::uint64_t counter_or_zero(const obs::LedgerRecord& r,
                              std::string_view name) {
  for (const auto& [key, value] : r.counters)
    if (key == name) return value;
  return 0;
}

/// Sorted copies, matching LedgerRecord::to_json's ordering so the
/// report lists fields exactly as the ledger line does.
template <typename Pairs>
Pairs sorted(const Pairs& pairs) {
  Pairs out = pairs;
  std::sort(out.begin(), out.end());
  return out;
}

/// #rrggbb for one heatmap cell. Hue runs safe-green -> danger-red by
/// the bucket's residual vulnerability; the color then fades toward
/// white for sparsely-struck buckets so dense hot spots dominate the
/// eye. Pure integer output from double math on exact integer inputs —
/// deterministic across runs.
std::string cell_color(std::uint64_t strikes, std::uint64_t due,
                       std::uint64_t sdc, std::uint64_t max_strikes) {
  if (strikes == 0) return "#f2f2f2";
  const double v = static_cast<double>(due + sdc) /
                   static_cast<double>(strikes);
  const double d = max_strikes != 0
                       ? static_cast<double>(strikes) /
                             static_cast<double>(max_strikes)
                       : 0.0;
  const double weight = 0.30 + 0.70 * d;  // never fade a cell out fully
  const int base[3] = {46, 125, 50};      // green
  const int hot[3] = {198, 40, 40};       // red
  char buf[8];
  int rgb[3];
  for (int i = 0; i < 3; ++i) {
    const double mixed =
        static_cast<double>(base[i]) +
        (static_cast<double>(hot[i]) - static_cast<double>(base[i])) * v;
    rgb[i] = static_cast<int>(255.0 + (mixed - 255.0) * weight);
  }
  std::snprintf(buf, sizeof buf, "#%02x%02x%02x", rgb[0], rgb[1], rgb[2]);
  return buf;
}

void append_heatmap_svg(std::string& out, const SensitivityGrid& grid,
                        std::size_t region) {
  const std::uint32_t buckets = grid.buckets();
  const SensitivityGrid::RegionSpec& spec = grid.regions()[region];
  std::uint64_t max_strikes = 0;
  for (std::uint32_t b = 0; b < buckets; ++b)
    max_strikes = std::max(max_strikes, grid.bucket_strikes(region, b));

  const int cell_w = buckets <= 96 ? 10 : 4;
  const int cell_h = 36;
  const int width = static_cast<int>(buckets) * cell_w;
  out += "<svg class=\"heatmap\" role=\"img\" width=\"" +
         std::to_string(width) + "\" height=\"" + std::to_string(cell_h) +
         "\" viewBox=\"0 0 " + std::to_string(width) + " " +
         std::to_string(cell_h) + "\">\n";
  for (std::uint32_t b = 0; b < buckets; ++b) {
    const std::uint64_t strikes = grid.bucket_strikes(region, b);
    const std::uint64_t first =
        b * spec.physical_bits / buckets +
        (b * spec.physical_bits % buckets != 0 ? 1 : 0);
    const std::uint64_t next =
        (static_cast<std::uint64_t>(b) + 1) * spec.physical_bits / buckets +
        ((static_cast<std::uint64_t>(b) + 1) * spec.physical_bits % buckets !=
                 0
             ? 1
             : 0);
    out += "  <rect x=\"" + std::to_string(b * cell_w) +
           "\" y=\"0\" width=\"" + std::to_string(cell_w) + "\" height=\"" +
           std::to_string(cell_h) + "\" fill=\"" +
           cell_color(strikes, grid.count(region, b, StrikeOutcome::Due),
                      grid.count(region, b, StrikeOutcome::Sdc), max_strikes) +
           "\"><title>bucket " + std::to_string(b) + " (bits " +
           std::to_string(first) + "-" +
           std::to_string(next == 0 ? 0 : next - 1) + "): strikes " +
           std::to_string(strikes);
    for (std::size_t o = 0; o < CampaignResult::kOutcomes.size(); ++o) {
      const auto outcome = static_cast<StrikeOutcome>(o);
      out += ", " + std::string(CampaignResult::kOutcomes[o].name) + " " +
             std::to_string(grid.count(region, b, outcome));
    }
    out += "</title></rect>\n";
  }
  out += "</svg>\n";
}

void append_outcome_table(std::string& out, const SensitivityGrid& grid,
                          std::size_t region) {
  const CampaignResult totals = grid.region_totals(region);
  const double strikes = static_cast<double>(totals.strikes);
  auto share = [&](std::uint64_t n) {
    return totals.strikes != 0
               ? percent(static_cast<double>(n) / strikes, 2)
               : std::string("-");
  };
  out += "<table class=\"region-outcomes\">\n"
         "<tr><th>Outcome</th><th>Count</th><th>Share</th></tr>\n";
  for (const auto& f : CampaignResult::kOutcomes)
    out += "<tr><td>" + std::string(f.name) + "</td><td>" +
           with_commas(totals.*f.member) + "</td><td>" +
           share(totals.*f.member) + "</td></tr>\n";
  out += "<tr class=\"total\"><td>strikes</td><td>" +
         with_commas(totals.strikes) + "</td><td></td></tr>\n</table>\n";
}

/// Emits one percentile row per histogram found in the snapshot,
/// covering both the plain and the labelled families.
void append_histogram_rows(std::string& out, const JsonValue& metrics,
                           bool html) {
  auto emit = [&](const std::string& name, const JsonValue& body) {
    if (!body.is_object()) return;
    auto field = [&](const char* key) {
      const JsonValue* v = body.find(key);
      return v != nullptr && v->is_number() ? stable_decimal(v->number)
                                            : std::string("-");
    };
    if (html) {
      out += "<tr><td>" + html_escape(name) + "</td><td>" + field("count") +
             "</td><td>" + field("p50") + "</td><td>" + field("p95") +
             "</td><td>" + field("p99") + "</td></tr>\n";
    } else {
      for (const char* key : {"count", "p50", "p95", "p99"})
        out += "histogram," + name + "," + key + "," +
               (body.find(key) != nullptr && body.find(key)->is_number()
                    ? stable_decimal(body.find(key)->number)
                    : std::string("")) +
               "\n";
    }
  };
  if (const JsonValue* plain = metrics.find("histograms"))
    for (const auto& [name, body] : plain->object) emit(name, body);
  if (const JsonValue* labelled = metrics.find("labelled_histograms"))
    for (const auto& [name, series] : labelled->object)
      if (series.is_object())
        for (const auto& [labels, body] : series.object)
          emit(name + "{" + labels + "}", body);
}

bool has_histograms(const JsonValue& metrics) {
  const JsonValue* plain = metrics.find("histograms");
  if (plain != nullptr && !plain->object.empty()) return true;
  const JsonValue* labelled = metrics.find("labelled_histograms");
  return labelled != nullptr && !labelled->object.empty();
}

}  // namespace

std::string campaign_report_html(const CampaignReportInput& input) {
  const obs::LedgerRecord& r = input.record;
  std::string out;
  out.reserve(1 << 14);
  out +=
      "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
      "<meta charset=\"utf-8\">\n<title>FTSPM campaign report &mdash; " +
      html_escape(r.id) +
      "</title>\n<style>\n"
      "body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;"
      "max-width:72rem;padding:0 1rem;color:#222}\n"
      "h1{border-bottom:2px solid #444}\n"
      "table{border-collapse:collapse;margin:0.5rem 0 1.5rem}\n"
      "th,td{border:1px solid #bbb;padding:0.25rem 0.75rem;"
      "text-align:left}\n"
      "td:nth-child(n+2){text-align:right}\n"
      "th{background:#eee}\n"
      "tr.total td{font-weight:bold;border-top:2px solid #444}\n"
      "svg.heatmap{border:1px solid #bbb;margin:0.25rem 0}\n"
      ".note{color:#666;font-style:italic}\n"
      "</style>\n</head>\n<body>\n";
  out += "<h1>FTSPM campaign report &mdash; " + html_escape(r.id) +
         "</h1>\n";

  out += "<h2>Manifest</h2>\n<table class=\"manifest\">\n";
  const std::pair<const char*, std::string> manifest[] = {
      {"command", r.command},
      {"workload", r.workload},
      {"scale", with_commas(r.scale)},
      {"seed", with_commas(r.seed)},
      {"jobs", with_commas(static_cast<std::uint64_t>(r.jobs))},
      {"shards", with_commas(static_cast<std::uint64_t>(r.shards))},
      {"library_version", r.library_version},
  };
  for (const auto& [name, value] : manifest)
    out += "<tr><th>" + std::string(name) + "</th><td>" +
           html_escape(value) + "</td></tr>\n";
  out += "</table>\n";

  out += "<h2>Campaign counters</h2>\n<table class=\"counters\">\n"
         "<tr><th>Counter</th><th>Value</th></tr>\n";
  for (const auto& [name, value] : sorted(r.counters))
    out += "<tr><td>" + html_escape(name) + "</td><td>" +
           with_commas(value) + "</td></tr>\n";
  out += "</table>\n";

  if (!r.metrics.empty()) {
    out += "<h2>Derived metrics</h2>\n<table class=\"metrics\">\n"
           "<tr><th>Metric</th><th>Value</th></tr>\n";
    for (const auto& [name, value] : sorted(r.metrics))
      out += "<tr><td>" + html_escape(name) + "</td><td>" +
             stable_decimal(value) + "</td></tr>\n";
    out += "</table>\n";
  }

  if (has_histograms(input.metrics)) {
    out += "<h2>Histogram percentiles</h2>\n<table class=\"histograms\">\n"
           "<tr><th>Histogram</th><th>Count</th><th>p50</th><th>p95</th>"
           "<th>p99</th></tr>\n";
    append_histogram_rows(out, input.metrics, /*html=*/true);
    out += "</table>\n";
  }

  out += "<h2>Fault sensitivity</h2>\n";
  if (input.grid.active()) {
    out += "<p>Each cell is one address bucket; green cells absorbed "
           "their strikes (masked or recovered), red cells leaked "
           "residual DUE/SDC, pale cells saw few strikes. Hover a cell "
           "for exact counts.</p>\n";
    for (std::size_t region = 0; region < input.grid.region_count();
         ++region) {
      const SensitivityGrid::RegionSpec& spec = input.grid.regions()[region];
      out += "<h3>" + html_escape(spec.label) + " (" +
             html_escape(spec.protection) + ", " +
             with_commas(spec.physical_bits) + " bits, " +
             std::to_string(input.grid.buckets()) + " buckets)</h3>\n";
      append_heatmap_svg(out, input.grid, region);
      append_outcome_table(out, input.grid, region);
    }
  } else {
    out += "<p class=\"note\">No sensitivity grid was recorded for this "
           "run (rerun with --sensitivity-out).</p>\n";
  }

  out += "<h2>Timing</h2>\n"
         "<p class=\"note\">Wall-clock quantities; nondeterministic, "
         "excluded from golden comparisons.</p>\n"
         "<table class=\"timing\">\n";
  out += "<tr><th>wall_ms</th><td>" + stable_decimal(r.wall_ms) +
         "</td></tr>\n";
  out += "<tr><th>strikes_per_sec</th><td>" +
         stable_decimal(r.strikes_per_sec) + "</td></tr>\n";
  out += "</table>\n</body>\n</html>\n";
  return out;
}

std::string campaign_report_csv(const CampaignReportInput& input) {
  const obs::LedgerRecord& r = input.record;
  std::string out = "section,name,field,value\n";
  auto row = [&out](std::string_view section, const std::string& name,
                    std::string_view field, const std::string& value) {
    out += section;
    out += ',';
    out += name;
    out += ',';
    out += field;
    out += ',';
    out += value;
    out += '\n';
  };
  row("manifest", "id", "", r.id);
  row("manifest", "command", "", r.command);
  row("manifest", "workload", "", r.workload);
  row("manifest", "scale", "", std::to_string(r.scale));
  row("manifest", "seed", "", std::to_string(r.seed));
  row("manifest", "jobs", "", std::to_string(r.jobs));
  row("manifest", "shards", "", std::to_string(r.shards));
  row("manifest", "library_version", "", r.library_version);
  for (const auto& [name, value] : sorted(r.counters))
    row("counter", name, "", std::to_string(value));
  for (const auto& [name, value] : sorted(r.metrics))
    row("metric", name, "", stable_decimal(value));
  append_histogram_rows(out, input.metrics, /*html=*/false);
  if (input.grid.active()) {
    for (std::size_t region = 0; region < input.grid.region_count();
         ++region) {
      const SensitivityGrid::RegionSpec& spec = input.grid.regions()[region];
      const CampaignResult totals = input.grid.region_totals(region);
      row("region", spec.label, "strikes", std::to_string(totals.strikes));
      for (const auto& f : CampaignResult::kOutcomes)
        row("region", spec.label, f.name, std::to_string(totals.*f.member));
    }
  }
  row("timing", "wall_ms", "nondeterministic", stable_decimal(r.wall_ms));
  row("timing", "strikes_per_sec", "nondeterministic",
      stable_decimal(r.strikes_per_sec));
  return out;
}

std::vector<TrendPoint> ledger_trend(
    const std::vector<obs::LedgerRecord>& records) {
  std::vector<TrendPoint> points;
  points.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const obs::LedgerRecord& r = records[i];
    TrendPoint p;
    p.index = i;
    p.id = r.id;
    p.workload = r.workload;
    CampaignResult c;
    c.strikes = counter_or_zero(r, "strikes");
    for (const auto& f : CampaignResult::kOutcomes)
      c.*f.member = counter_or_zero(r, f.name);
    p.strikes = c.strikes;
    p.sdc = c.sdc;
    p.sdc_rate = c.fraction(c.sdc);
    p.vulnerability = c.vulnerability();
    p.strikes_per_sec = r.strikes_per_sec;
    points.push_back(std::move(p));
  }
  return points;
}

std::string trend_table(const std::vector<TrendPoint>& points) {
  AsciiTable table({"#", "Id", "Workload", "Strikes", "SDC rate",
                    "Vulnerability", "Strikes/s"});
  for (const TrendPoint& p : points)
    table.add_row({std::to_string(p.index), p.id, p.workload,
                   with_commas(p.strikes), sci(p.sdc_rate, 3),
                   sci(p.vulnerability, 3), si_string(p.strikes_per_sec, "")});
  return table.render();
}

std::string trend_csv(const std::vector<TrendPoint>& points) {
  std::string out =
      "index,id,workload,strikes,sdc,sdc_rate,vulnerability,"
      "strikes_per_sec\n";
  for (const TrendPoint& p : points)
    out += std::to_string(p.index) + "," + p.id + "," + p.workload + "," +
           std::to_string(p.strikes) + "," + std::to_string(p.sdc) + "," +
           stable_decimal(p.sdc_rate) + "," +
           stable_decimal(p.vulnerability) + "," +
           stable_decimal(p.strikes_per_sec) + "\n";
  return out;
}

}  // namespace ftspm::report
