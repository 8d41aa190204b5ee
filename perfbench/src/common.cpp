#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

#include "ftspm/ecc/secded_codec.h"
#include "ftspm/util/error.h"
#include "ftspm/util/json.h"
#include "ftspm/util/version.h"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// The commit of the checkout in the cwd, read from .git directly so
/// nothing above the checkout is consulted.
std::string git_commit() {
  const std::string head = read_first_line(".git/HEAD");
  if (head.empty()) return "unknown (not a git checkout)";
  if (head.rfind("ref: ", 0) != 0) return head;
  const std::string ref = head.substr(5);
  const std::string loose = read_first_line(".git/" + ref);
  if (!loose.empty()) return loose;
  std::ifstream packed(".git/packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    const std::size_t space = line.find(' ');
    if (space != std::string::npos && line.substr(space + 1) == ref)
      return line.substr(0, space);
  }
  return "unknown (unresolved " + ref + ")";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - kEpoch)
          .count());
}

double ms_since(std::uint64_t start_ns) { return ms_between(start_ns, now_ns()); }

double ms_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return end_ns >= start_ns ? static_cast<double>(end_ns - start_ns) / 1e6
                            : -static_cast<double>(start_ns - end_ns) / 1e6;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || lo + 1 >= values.size()) return values[lo];
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void Report::fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) fail(what);
  return ok;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = std::numeric_limits<double>::max();
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::print() const {
  for (const Metric& m : metrics_)
    std::cout << "  " << m.name << " = " << ftspm::JsonWriter::number(m.value)
              << " " << m.unit << "\n";
  for (const std::string& f : failures_) std::cout << "FAILED: " << f << "\n";
  ftspm::JsonWriter w;
  w.begin_object()
      .field("correct", failed_ == 0)
      .field("attempted", attempted_)
      .field("failed", failed_);
  w.begin_object("metrics");
  for (const Metric& m : metrics_) {
    w.begin_object(m.name).field("value", m.value).field("unit", m.unit)
        .end_object();
  }
  w.end_object().end_object();
  std::cout << w.str() << std::endl;
}

std::uint32_t SpanLog::add(Span span) {
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  if (children_.size() <= span.parent) children_.resize(span.parent + 1);
  children_[span.parent].push_back(span.id);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::uint32_t SpanLog::open(std::string layer, std::string name,
                            std::uint32_t parent, std::string track) {
  Span s;
  s.parent = parent;
  s.layer = std::move(layer);
  s.name = std::move(name);
  s.track = std::move(track);
  s.start_ns = s.end_ns = now_ns();
  return add(std::move(s));
}

void SpanLog::close(std::uint32_t id) { close_at(id, now_ns()); }

void SpanLog::close_at(std::uint32_t id, std::uint64_t end_ns) {
  spans_.at(id - 1).end_ns = end_ns;
}

void SpanLog::import_chrome(const ftspm::JsonValue& doc,
                            std::uint64_t offset_us) {
  const ftspm::JsonValue* events = doc.find("traceEvents");
  FTSPM_CHECK(events != nullptr && events->is_array(),
              "trace document has no traceEvents array");
  for (ftspm::JsonValue event : events->array) {
    for (auto& [key, value] : event.object) {
      // Row 1 is the benchmark's own process; the daemon's rows follow.
      if (key == "pid" && value.is_number()) value.number += 100.0;
      if (key == "ts" && value.is_number())
        value.number += static_cast<double>(offset_us);
    }
    imported_.push_back(event.dump());
  }
}

double SpanLog::own_ms(std::uint32_t id) const {
  const Span& s = span(id);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  if (id < children_.size())
    for (const std::uint32_t c : children_[id])
      cover.emplace_back(std::max(span(c).start_ns, s.start_ns),
                         std::min(span(c).end_ns, s.end_ns));
  std::sort(cover.begin(), cover.end());
  std::uint64_t covered = 0, reach = s.start_ns;
  for (const auto& [a, b] : cover) {
    const std::uint64_t from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
  return static_cast<double>(dur - std::min(dur, covered)) / 1e6;
}

std::vector<std::pair<std::string, double>> SpanLog::self_ms(
    std::uint32_t root) const {
  std::map<std::string, double> by_layer;
  std::vector<std::uint32_t> stack{root};
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    by_layer[span(id).layer] += own_ms(id);
    if (id < children_.size())
      stack.insert(stack.end(), children_[id].begin(), children_[id].end());
  }
  std::vector<std::pair<std::string, double>> out(by_layer.begin(),
                                                  by_layer.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

void SpanLog::write(const std::string& path,
                    const std::string& metadata_json) const {
  std::map<std::string, int> tids;
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    out << (first ? "\n" : ",\n") << event;
    first = false;
  };
  emit(R"({"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"perfbench"}})");
  for (const Span& s : spans_) {
    ftspm::JsonWriter w;
    w.begin_object().field("name", s.name).field("cat", s.layer);
    if (!s.request.empty()) {
      // One async slice per request: in-flight requests overlap.
      w.field("ph", "b").field("id", s.request).field("pid", std::uint64_t{1})
          .field("tid", std::uint64_t{0}).field("ts", us(s.start_ns));
      w.begin_object("args").field("span", std::uint64_t{s.id})
          .field("parent", std::uint64_t{s.parent}).end_object().end_object();
      emit(w.str());
      ftspm::JsonWriter e;
      e.begin_object().field("name", s.name).field("cat", s.layer)
          .field("ph", "e").field("id", s.request)
          .field("pid", std::uint64_t{1}).field("tid", std::uint64_t{0})
          .field("ts", us(s.end_ns)).end_object();
      emit(e.str());
      continue;
    }
    auto [it, fresh] = tids.emplace(s.track, static_cast<int>(tids.size() + 1));
    if (fresh) {
      ftspm::JsonWriter m;
      m.begin_object().field("ph", "M").field("pid", std::uint64_t{1})
          .field("tid", static_cast<std::uint64_t>(it->second))
          .field("name", "thread_name");
      m.begin_object("args").field("name", s.track).end_object().end_object();
      emit(m.str());
    }
    w.field("ph", "X").field("pid", std::uint64_t{1})
        .field("tid", static_cast<std::uint64_t>(it->second))
        .field("ts", us(s.start_ns))
        .field("dur", us(s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0));
    w.begin_object("args").field("span", std::uint64_t{s.id})
        .field("parent", std::uint64_t{s.parent}).end_object().end_object();
    emit(w.str());
  }
  for (const std::string& event : imported_) emit(event);
  out << "\n],\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata_json
      << "}\n";
  std::ofstream file(path);
  FTSPM_CHECK(static_cast<bool>(file << out.str()),
              "cannot write trace " + path);
}

Scoped::Scoped(SpanLog* log, std::string layer, std::string name,
               std::uint32_t parent, std::string track)
    : log_(log) {
  if (log_ != nullptr)
    id_ = log_->open(std::move(layer), std::move(name), parent,
                     std::move(track));
}

Scoped::~Scoped() {
  if (log_ != nullptr) log_->close(id_);
}

std::string machine_json() {
  ftspm::JsonWriter w;
  w.begin_object()
      .field("cpu", cpu_model())
      .field("nproc", static_cast<std::uint64_t>(
                          std::thread::hardware_concurrency()))
      .field("compiler", PERFBENCH_COMPILER)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("git_commit", git_commit())
      .field("library_version", ftspm::kLibraryVersion)
      .field("fold_backend", ftspm::SecDedCodec::fold_backend())
      .end_object();
  return w.str();
}

}  // namespace perfbench
