#include "ftspm/obs/ledger.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "ftspm/util/args.h"
#include "ftspm/util/error.h"
#include "ftspm/util/json.h"
#include "ftspm/util/version.h"

namespace ftspm::obs {

namespace {

std::uint64_t as_u64(const JsonValue& v, std::string_view key) {
  const JsonValue& m = v.at(key);
  FTSPM_REQUIRE(m.is_number() && m.number >= 0,
                "ledger member '" + std::string(key) +
                    "' must be a non-negative number");
  return static_cast<std::uint64_t>(m.number);
}

std::string as_str(const JsonValue& v, std::string_view key) {
  const JsonValue& m = v.at(key);
  FTSPM_REQUIRE(m.is_string(),
                "ledger member '" + std::string(key) + "' must be a string");
  return m.string;
}

}  // namespace

std::string LedgerRecord::to_json() const {
  auto sorted_counters = counters;
  std::sort(sorted_counters.begin(), sorted_counters.end());
  auto sorted_metrics = metrics;
  std::sort(sorted_metrics.begin(), sorted_metrics.end());

  JsonWriter w;
  w.begin_object()
      .field("schema", static_cast<std::uint64_t>(kSchemaVersion))
      .field("id", id)
      .field("command", command)
      .field("workload", workload)
      .field("scale", scale)
      .field("seed", seed)
      .field("jobs", static_cast<std::uint64_t>(jobs))
      .field("shards", static_cast<std::uint64_t>(shards))
      .field("library_version",
             library_version.empty() ? std::string(kLibraryVersion)
                                     : library_version);
  w.begin_object("counters");
  for (const auto& [name, value] : sorted_counters) w.field(name, value);
  w.end_object();
  w.begin_object("metrics");
  for (const auto& [name, value] : sorted_metrics) w.field(name, value);
  w.end_object();
  w.begin_object("timing")
      .field("nondeterministic", true)
      .field("wall_ms", wall_ms)
      .field("strikes_per_sec", strikes_per_sec)
      .end_object();
  w.end_object();
  return w.str();
}

LedgerRecord LedgerRecord::from_json(const JsonValue& v) {
  FTSPM_REQUIRE(v.is_object(), "ledger record must be a JSON object");
  const std::uint64_t schema = as_u64(v, "schema");
  FTSPM_REQUIRE(schema == kSchemaVersion,
                "unsupported ledger schema version " + std::to_string(schema));
  LedgerRecord r;
  r.id = as_str(v, "id");
  r.command = as_str(v, "command");
  r.workload = as_str(v, "workload");
  r.scale = as_u64(v, "scale");
  r.seed = as_u64(v, "seed");
  r.jobs = static_cast<std::uint32_t>(as_u64(v, "jobs"));
  r.shards = static_cast<std::uint32_t>(as_u64(v, "shards"));
  r.library_version = as_str(v, "library_version");
  const JsonValue& counters = v.at("counters");
  FTSPM_REQUIRE(counters.is_object(), "ledger 'counters' must be an object");
  for (const auto& [name, value] : counters.object) {
    FTSPM_REQUIRE(value.is_number() && value.number >= 0,
                  "ledger counter '" + name + "' must be a non-negative "
                                              "number");
    r.counters.emplace_back(name, static_cast<std::uint64_t>(value.number));
  }
  const JsonValue& metrics = v.at("metrics");
  FTSPM_REQUIRE(metrics.is_object(), "ledger 'metrics' must be an object");
  for (const auto& [name, value] : metrics.object) {
    FTSPM_REQUIRE(value.is_number(),
                  "ledger metric '" + name + "' must be a number");
    r.metrics.emplace_back(name, value.number);
  }
  if (const JsonValue* timing = v.find("timing")) {
    if (const JsonValue* wall = timing->find("wall_ms"))
      r.wall_ms = wall->number;
    if (const JsonValue* rate = timing->find("strikes_per_sec"))
      r.strikes_per_sec = rate->number;
  }
  return r;
}

std::vector<LedgerRecord> read_ledger(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return {};  // A ledger that was never written to.
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::vector<LedgerRecord> records;
  const std::vector<JsonValue> docs = parse_ndjson(buffer.str());
  records.reserve(docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    try {
      records.push_back(LedgerRecord::from_json(docs[i]));
    } catch (const Error& e) {
      throw Error("ledger '" + path + "' record " + std::to_string(i) + ": " +
                  e.what());
    }
  }
  return records;
}

LedgerScan scan_ledger(const std::string& path) {
  LedgerScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return scan;  // A ledger that was never written to.
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  // Split lines by hand (rather than parse_ndjson) so every warning can
  // carry the true file line number even after earlier lines failed.
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    ++line_no;
    std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    try {
      scan.records.push_back(LedgerRecord::from_json(parse_json(line)));
    } catch (const Error& e) {
      scan.warnings.push_back("ledger '" + path + "' line " +
                              std::to_string(line_no) + " skipped: " +
                              e.what());
    }
  }
  return scan;
}

void append_ledger(const LedgerRecord& record, const std::string& path) {
  const std::string line = record.to_json() + "\n";
  std::ofstream out(path, std::ios::binary | std::ios::app);
  FTSPM_REQUIRE(out.good(), "cannot open ledger '" + path + "' for append");
  // One write call for the whole line: on POSIX the O_APPEND write is
  // atomic for tool-sized records, so concurrent runs never interleave.
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
  out.close();
  if (!out.good()) throw Error("failed appending to ledger '" + path + "'");
}

std::string append_run(LedgerRecord record, const std::string& path) {
  if (record.id.empty())
    record.id = "run-" + std::to_string(scan_ledger(path).records.size());
  append_ledger(record, path);
  return record.id;
}

const LedgerRecord* find_run(const std::vector<LedgerRecord>& runs,
                             std::string_view ref) {
  for (auto it = runs.rbegin(); it != runs.rend(); ++it)
    if (it->id == ref) return &*it;
  if (!ref.empty() && ref.front() == '@') {
    // Explicit index form: the ref can never be an id, so a malformed
    // tail is a usage error worth reporting, not a silent miss.
    const std::optional<std::uint64_t> index = parse_uint(ref.substr(1));
    if (!index)
      throw InvalidArgument("run ref '" + std::string(ref) +
                            "' is malformed: expected @<0-based index>");
    return *index < runs.size() ? &runs[*index] : nullptr;
  }
  // Bare digits double as an index when no id matched; a value too
  // large to parse cannot name a run, so it is simply absent.
  const std::optional<std::uint64_t> index = parse_uint(ref);
  return index && *index < runs.size() ? &runs[*index] : nullptr;
}

}  // namespace ftspm::obs
