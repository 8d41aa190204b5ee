#include "ftspm/obs/ledger.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "ftspm/util/error.h"
#include "ftspm/util/json.h"

namespace ftspm::obs {
namespace {

std::string temp_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + stem + "." +
         std::to_string(::getpid());
}

LedgerRecord sample(const std::string& id) {
  LedgerRecord r;
  r.id = id;
  r.command = "campaign";
  r.workload = "secded";
  r.seed = 42;
  r.jobs = 2;
  r.shards = 4;
  r.counters = {{"strikes", 1000}, {"sdc", 7}};
  r.metrics = {{"vulnerability", 0.25}};
  r.wall_ms = 12.5;
  r.strikes_per_sec = 80000.0;
  return r;
}

TEST(LedgerTest, RoundTripsThroughJson) {
  const LedgerRecord a = sample("run-0");
  const LedgerRecord b = LedgerRecord::from_json(parse_json(a.to_json()));
  EXPECT_EQ(b.id, "run-0");
  EXPECT_EQ(b.command, "campaign");
  EXPECT_EQ(b.workload, "secded");
  EXPECT_EQ(b.seed, 42u);
  EXPECT_EQ(b.jobs, 2u);
  EXPECT_EQ(b.shards, 4u);
  ASSERT_EQ(b.counters.size(), 2u);
  ASSERT_EQ(b.metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(b.wall_ms, 12.5);
  EXPECT_FALSE(b.library_version.empty());
}

TEST(LedgerTest, JsonSortsCountersByKey) {
  LedgerRecord r = sample("run-0");
  r.counters = {{"zeta", 2}, {"alpha", 1}};
  const std::string json = r.to_json();
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
}

TEST(LedgerTest, AppendAndReadBack) {
  const std::string path = temp_path("ftspm_ledger_test");
  std::remove(path.c_str());
  EXPECT_TRUE(read_ledger(path).empty());  // missing file = empty ledger
  append_ledger(sample("run-0"), path);
  append_ledger(sample("run-1"), path);
  const std::vector<LedgerRecord> runs = read_ledger(path);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].id, "run-0");
  EXPECT_EQ(runs[1].id, "run-1");
  std::remove(path.c_str());
}

TEST(LedgerTest, FindRunMatchesIdThenIndex) {
  std::vector<LedgerRecord> runs;
  runs.push_back(sample("baseline"));
  runs.push_back(sample("candidate"));
  runs.push_back(sample("baseline"));  // re-used id: last one wins
  EXPECT_EQ(find_run(runs, "candidate"), &runs[1]);
  EXPECT_EQ(find_run(runs, "baseline"), &runs[2]);
  EXPECT_EQ(find_run(runs, "0"), &runs[0]);
  EXPECT_EQ(find_run(runs, "2"), &runs[2]);
  EXPECT_EQ(find_run(runs, "3"), nullptr);
  EXPECT_EQ(find_run(runs, "missing"), nullptr);
}

TEST(LedgerTest, FindRunParsesAtIndexRefsStrictly) {
  std::vector<LedgerRecord> runs;
  runs.push_back(sample("baseline"));
  runs.push_back(sample("candidate"));
  EXPECT_EQ(find_run(runs, "@0"), &runs[0]);
  EXPECT_EQ(find_run(runs, "@1"), &runs[1]);
  EXPECT_EQ(find_run(runs, "@2"), nullptr);  // well-formed but absent
  // A malformed @ ref can never be an id, so it is a usage error — it
  // used to escape std::stoull as an uncaught std::invalid_argument
  // (or std::out_of_range on long digit strings) and crash the tool.
  for (const char* bad : {"@foo", "@", "@1x", "@-1", "@+1", "@ 1", "@0x10",
                          "@99999999999999999999999999"}) {
    EXPECT_THROW(find_run(runs, bad), InvalidArgument) << "'" << bad << "'";
    try {
      find_run(runs, bad);
    } catch (const InvalidArgument& e) {
      // The message names the offending text.
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << e.what();
    }
  }
  // Bare digits stay forgiving: they double as ids, so garbage and
  // overflow are simply "no such run", never a throw.
  EXPECT_EQ(find_run(runs, "99999999999999999999999999"), nullptr);
  EXPECT_EQ(find_run(runs, "1x"), nullptr);
}

TEST(LedgerScanTest, MissingFileIsAnEmptyScan) {
  const LedgerScan scan = scan_ledger(temp_path("ftspm_scan_missing"));
  EXPECT_TRUE(scan.records.empty());
  EXPECT_TRUE(scan.warnings.empty());
}

TEST(LedgerScanTest, SkipsCorruptLinesWithTheirLineNumbers) {
  const std::string path = temp_path("ftspm_scan_corrupt");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string good0 = sample("run-0").to_json();
    const std::string good1 = sample("run-1").to_json();
    // Line 2 is a truncated append, line 4 is valid JSON with the
    // wrong shape; lines 1, 3 and 6 must still come back (5 is blank).
    const std::string body = good0 + "\n" +
                             good0.substr(0, good0.size() / 2) + "\n" +
                             good1 + "\n" +
                             "{\"schema\":1}\n"
                             "\n" +
                             good0 + "\n";
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }
  // The strict reader refuses the whole file ...
  EXPECT_THROW(read_ledger(path), Error);
  // ... while the scan keeps every parseable record.
  const LedgerScan scan = scan_ledger(path);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].id, "run-0");
  EXPECT_EQ(scan.records[1].id, "run-1");
  EXPECT_EQ(scan.records[2].id, "run-0");
  ASSERT_EQ(scan.warnings.size(), 2u);
  EXPECT_NE(scan.warnings[0].find("line 2"), std::string::npos)
      << scan.warnings[0];
  EXPECT_NE(scan.warnings[1].find("line 4"), std::string::npos)
      << scan.warnings[1];
  std::remove(path.c_str());
}

TEST(LedgerTest, AppendRunNumbersOverParseableRecordsOnly) {
  const std::string path = temp_path("ftspm_append_run");
  std::remove(path.c_str());
  EXPECT_EQ(append_run(sample(""), path), "run-0");
  {
    // A crashed appender leaves a torn line behind.
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::string torn = sample("run-x").to_json().substr(0, 20) + "\n";
    std::fwrite(torn.data(), 1, torn.size(), f);
    std::fclose(f);
  }
  EXPECT_EQ(append_run(sample(""), path), "run-1");
  EXPECT_EQ(append_run(sample("named"), path), "named");
  EXPECT_EQ(append_run(sample(""), path), "run-3");
  const LedgerScan scan = scan_ledger(path);
  ASSERT_EQ(scan.records.size(), 4u);
  EXPECT_EQ(scan.records[1].id, "run-1");
  EXPECT_EQ(scan.records[3].id, "run-3");
  EXPECT_EQ(scan.warnings.size(), 1u);
  std::remove(path.c_str());
}

TEST(LedgerScanTest, ToleratesCrlfAndBlankLines) {
  const std::string path = temp_path("ftspm_scan_crlf");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string body =
        sample("run-0").to_json() + "\r\n\r\n" + sample("run-1").to_json();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }
  const LedgerScan scan = scan_ledger(path);
  EXPECT_TRUE(scan.warnings.empty());
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1].id, "run-1");
  std::remove(path.c_str());
}

TEST(LedgerTest, RejectsUnknownSchema) {
  EXPECT_THROW(
      LedgerRecord::from_json(parse_json(
          "{\"schema\":99,\"id\":\"x\",\"command\":\"campaign\","
          "\"workload\":\"w\",\"scale\":1,\"seed\":0,\"jobs\":1,"
          "\"shards\":1,\"library_version\":\"1.0\",\"counters\":{},"
          "\"metrics\":{}}")),
      Error);
}

}  // namespace
}  // namespace ftspm::obs
