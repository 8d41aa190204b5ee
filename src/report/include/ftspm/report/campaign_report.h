// Offline campaign analytics: renders one *completed* run — its ledger
// record, metrics snapshot, and sensitivity grid — into human-facing
// artefacts, plus trend extraction over the whole ledger.
//
// Everything here is a pure function of its inputs: no wall clocks, no
// environment lookups, no randomness. Rendering the same run twice
// yields byte-identical output, so golden tests can pin the CSV and CI
// can diff reports across branches. Wall-clock fields that do appear
// (wall_ms, strikes/sec) come verbatim from the ledger's
// "nondeterministic" timing block and are labelled as such.
//
// The HTML report is self-contained — inline CSS, inline SVG heatmaps,
// no scripts, no external fetches — so it can be archived as a CI
// artefact and opened years later from a file:// URL.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftspm/fault/recovery.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/obs/ledger.h"
#include "ftspm/util/json.h"

namespace ftspm::report {

/// Builds the ledger record for one campaign run from its merged
/// counters. Shared by `ftspm_tool campaign` and the serve daemon so a
/// served run's record is construction-identical (same counter/metric
/// names, same order) to a one-shot run's for the same outcome. The id
/// is left empty — the appender fills it. `recovery` may be null when
/// the recovery pipeline was inactive.
obs::LedgerRecord campaign_run_record(const CampaignResult& result,
                                      const RecoveryCounters* recovery,
                                      std::string_view workload,
                                      std::uint64_t seed, std::uint32_t jobs,
                                      std::uint32_t shards, double wall_ms,
                                      double strikes_per_sec);

/// Escapes &, <, > and " for HTML text and attribute values; shared by
/// the campaign and saturation reports.
std::string html_escape(std::string_view s);

/// Everything `ftspm_tool report <run>` has to work with. The metrics
/// snapshot and the grid are optional — runs recorded without
/// --metrics-out / --sensitivity-out still get a (smaller) report.
struct CampaignReportInput {
  obs::LedgerRecord record;
  /// Parsed registry snapshot (obs::Registry::to_json shape);
  /// Kind::Null when the run kept no metrics file.
  JsonValue metrics;
  /// The run's merged sensitivity grid; inactive when absent.
  SensitivityGrid grid;
};

/// The self-contained HTML report: manifest, campaign counters,
/// derived metrics, histogram percentiles (p50/p95/p99) from the
/// snapshot, and — when the grid is active — one section per region
/// with an inline-SVG fault-sensitivity heatmap and an
/// outcome-breakdown table whose totals equal the campaign counters.
std::string campaign_report_html(const CampaignReportInput& input);

/// The same report as machine-readable CSV with the pinned header
/// "section,name,field,value". Sections: manifest, counter, metric,
/// histogram (one row per percentile/statistic), timing. Grid data is
/// NOT duplicated here — SensitivityGrid::to_csv is already the
/// machine-readable grid artefact.
std::string campaign_report_csv(const CampaignReportInput& input);

/// One ledger record reduced to its trajectory quantities.
struct TrendPoint {
  std::uint64_t index = 0;  ///< Position in the ledger (0-based).
  std::string id;
  std::string workload;
  std::uint64_t strikes = 0;
  std::uint64_t sdc = 0;
  /// Residual SDC rate: sdc / strikes (0 when no strikes).
  double sdc_rate = 0.0;
  /// (due + sdc) / strikes from the record's counters.
  double vulnerability = 0.0;
  /// Wall-clock throughput from the timing block (nondeterministic).
  double strikes_per_sec = 0.0;
};

/// Reduces ledger records (in file order) to trend points. Records
/// without a "strikes" counter (e.g. suite runs) are kept with zero
/// strike-derived fields so indices still line up with `runs list`.
std::vector<TrendPoint> ledger_trend(
    const std::vector<obs::LedgerRecord>& records);

/// The trend as a bordered ASCII table (`ftspm_tool report trend`).
std::string trend_table(const std::vector<TrendPoint>& points);

/// The trend as CSV with the pinned header
/// "index,id,workload,strikes,sdc,sdc_rate,vulnerability,
/// strikes_per_sec" (`report trend --csv`).
std::string trend_csv(const std::vector<TrendPoint>& points);

}  // namespace ftspm::report
