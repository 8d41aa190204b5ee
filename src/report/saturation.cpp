#include "ftspm/report/saturation.h"

#include <algorithm>
#include <cmath>

#include "ftspm/report/campaign_report.h"
#include "ftspm/util/error.h"
#include "ftspm/util/format.h"

namespace ftspm::report {

namespace {

double num_at(const JsonValue& v, std::string_view key) {
  const JsonValue& f = v.at(key);
  FTSPM_REQUIRE(f.is_number(),
                "saturation: '" + std::string(key) + "' must be a number");
  return f.number;
}

std::uint64_t count_at(const JsonValue& v, std::string_view key) {
  const double d = num_at(v, key);
  FTSPM_REQUIRE(d >= 0.0 && std::floor(d) == d,
                "saturation: '" + std::string(key) +
                    "' must be a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

/// The class polyline palette (repeats past six classes).
const char* class_color(std::size_t i) {
  static const char* kColors[] = {"#1565c0", "#2e7d32", "#ef6c00",
                                  "#6a1b9a", "#c62828", "#00838f"};
  return kColors[i % (sizeof(kColors) / sizeof(kColors[0]))];
}

/// Maps a step index to an x pixel: rungs are evenly spaced (the rate
/// ladder is typically geometric, so a linear rate axis would crush
/// the low rungs).
double x_at(std::size_t i, std::size_t n, double left, double width) {
  if (n <= 1) return left + width / 2.0;
  return left + width * static_cast<double>(i) / static_cast<double>(n - 1);
}

}  // namespace

SaturationSweep saturation_from_json(const JsonValue& doc) {
  FTSPM_REQUIRE(doc.is_object(), "saturation: artefact must be an object");
  FTSPM_REQUIRE(count_at(doc, "schema") == 1,
                "saturation: unknown schema version");
  const JsonValue& bench = doc.at("bench");
  FTSPM_REQUIRE(bench.is_string() && bench.string == "saturation_sweep",
                "saturation: not a saturation_sweep artefact");
  SaturationSweep sweep;
  const JsonValue& quick = doc.at("quick");
  FTSPM_REQUIRE(quick.is_bool(), "saturation: 'quick' must be a boolean");
  sweep.quick = quick.boolean;
  sweep.jobs = static_cast<std::uint32_t>(count_at(doc, "jobs"));
  sweep.connections =
      static_cast<std::uint32_t>(count_at(doc, "connections"));
  sweep.requests_per_step = count_at(doc, "requests_per_step");
  const JsonValue& steps = doc.at("steps");
  FTSPM_REQUIRE(steps.is_array(), "saturation: 'steps' must be an array");
  for (const JsonValue& s : steps.array) {
    FTSPM_REQUIRE(s.is_object(), "saturation: each step must be an object");
    SaturationStep step;
    step.rate = num_at(s, "rate");
    step.sent = count_at(s, "sent");
    step.completed = count_at(s, "completed");
    step.overloaded = count_at(s, "overloaded");
    step.errors = count_at(s, "errors");
    step.shed_rate = num_at(s, "shed_rate");
    step.wall_ms = num_at(s, "wall_ms");
    step.throughput_rps = num_at(s, "throughput_rps");
    step.queue_depth_max = num_at(s, "queue_depth_max");
    step.queue_depth_mean = num_at(s, "queue_depth_mean");
    const JsonValue& classes = s.at("classes");
    FTSPM_REQUIRE(classes.is_array(),
                  "saturation: step 'classes' must be an array");
    for (const JsonValue& c : classes.array) {
      SaturationClassPoint point;
      const JsonValue& name = c.at("name");
      FTSPM_REQUIRE(name.is_string(),
                    "saturation: class 'name' must be a string");
      point.name = name.string;
      point.sent = count_at(c, "sent");
      point.completed = count_at(c, "completed");
      point.overloaded = count_at(c, "overloaded");
      point.p50_ms = num_at(c, "p50_ms");
      point.p95_ms = num_at(c, "p95_ms");
      point.p99_ms = num_at(c, "p99_ms");
      step.classes.push_back(std::move(point));
    }
    sweep.steps.push_back(std::move(step));
  }
  return sweep;
}

std::size_t saturation_knee_index(const SaturationSweep& sweep,
                                  double shed_threshold) {
  for (std::size_t i = 0; i < sweep.steps.size(); ++i)
    if (sweep.steps[i].shed_rate > shed_threshold) return i;
  return sweep.steps.size();
}

std::string saturation_report_html(const SaturationSweep& sweep) {
  const std::size_t n = sweep.steps.size();
  // Class names in first-seen order across all steps, so a class that
  // only appears later in the ladder still gets a polyline.
  std::vector<std::string> class_names;
  for (const SaturationStep& step : sweep.steps)
    for (const SaturationClassPoint& c : step.classes)
      if (std::find(class_names.begin(), class_names.end(), c.name) ==
          class_names.end())
        class_names.push_back(c.name);

  double max_p95 = 0.0;
  for (const SaturationStep& step : sweep.steps)
    for (const SaturationClassPoint& c : step.classes)
      max_p95 = std::max(max_p95, c.p95_ms);
  if (max_p95 <= 0.0) max_p95 = 1.0;

  const double width = 640.0, height = 300.0;
  const double left = 56.0, right = 56.0, top = 16.0, bottom = 36.0;
  const double plot_w = width - left - right;
  const double plot_h = height - top - bottom;
  const auto y_latency = [&](double ms) {
    return top + plot_h * (1.0 - ms / max_p95);
  };
  const auto y_shed = [&](double rate) {
    return top + plot_h * (1.0 - std::clamp(rate, 0.0, 1.0));
  };

  std::string out;
  out.reserve(1 << 14);
  out +=
      "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
      "<meta charset=\"utf-8\">\n"
      "<title>FTSPM saturation sweep</title>\n<style>\n"
      "body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;"
      "max-width:72rem;padding:0 1rem;color:#222}\n"
      "h1{border-bottom:2px solid #444}\n"
      "table{border-collapse:collapse;margin:0.5rem 0 1.5rem}\n"
      "th,td{border:1px solid #bbb;padding:0.25rem 0.75rem;"
      "text-align:left}\n"
      "td:nth-child(n+2){text-align:right}\n"
      "th{background:#eee}\n"
      "svg.knee{border:1px solid #bbb;margin:0.25rem 0}\n"
      ".note{color:#666;font-style:italic}\n"
      "</style>\n</head>\n<body>\n"
      "<h1>FTSPM saturation sweep</h1>\n";
  out += "<p>" + std::to_string(n) + " rate rungs, " +
         std::to_string(sweep.requests_per_step) + " requests per rung, " +
         std::to_string(sweep.connections) + " connections, daemon jobs " +
         std::to_string(sweep.jobs) + (sweep.quick ? " (quick mode)" : "") +
         ".</p>\n";

  const std::size_t knee = saturation_knee_index(sweep);
  if (knee < n)
    out += "<p>Saturation knee at rung " + std::to_string(knee) +
           " (offered rate " + stable_decimal(sweep.steps[knee].rate) +
           " req/s per connection, shed rate " +
           stable_decimal(sweep.steps[knee].shed_rate * 100.0) + "%).</p>\n";
  else
    out += "<p class=\"note\">The sweep never crossed the shed "
           "threshold — the knee lies beyond the highest rung.</p>\n";

  // The knee chart: per-class p95 polylines against the left axis
  // (latency ms), shed rate against the right axis (0-100%).
  out += "<svg class=\"knee\" role=\"img\" width=\"" +
         stable_decimal(width) + "\" height=\"" + stable_decimal(height) +
         "\" viewBox=\"0 0 " + stable_decimal(width) + " " +
         stable_decimal(height) + "\">\n";
  out += "  <rect x=\"" + stable_decimal(left) + "\" y=\"" +
         stable_decimal(top) + "\" width=\"" + stable_decimal(plot_w) +
         "\" height=\"" + stable_decimal(plot_h) +
         "\" fill=\"#fafafa\" stroke=\"#bbb\"/>\n";
  // Shed-rate area (grey steps) behind the latency lines.
  if (n != 0) {
    std::string points;
    for (std::size_t i = 0; i < n; ++i)
      points += stable_decimal(x_at(i, n, left, plot_w)) + "," +
                stable_decimal(y_shed(sweep.steps[i].shed_rate)) + " ";
    out += "  <polyline points=\"" + points +
           "\" fill=\"none\" stroke=\"#888\" stroke-width=\"2\" "
           "stroke-dasharray=\"6 3\"><title>shed rate</title></polyline>\n";
  }
  for (std::size_t ci = 0; ci < class_names.size(); ++ci) {
    std::string points;
    for (std::size_t i = 0; i < n; ++i) {
      const SaturationStep& step = sweep.steps[i];
      const auto it = std::find_if(
          step.classes.begin(), step.classes.end(),
          [&](const SaturationClassPoint& c) {
            return c.name == class_names[ci];
          });
      if (it == step.classes.end()) continue;
      points += stable_decimal(x_at(i, n, left, plot_w)) + "," +
                stable_decimal(y_latency(it->p95_ms)) + " ";
    }
    out += "  <polyline points=\"" + points +
           "\" fill=\"none\" stroke=\"" + class_color(ci) +
           "\" stroke-width=\"2\"><title>" + html_escape(class_names[ci]) +
           " p95</title></polyline>\n";
  }
  if (knee < n) {
    const double kx = x_at(knee, n, left, plot_w);
    out += "  <line x1=\"" + stable_decimal(kx) + "\" y1=\"" +
           stable_decimal(top) + "\" x2=\"" + stable_decimal(kx) +
           "\" y2=\"" + stable_decimal(top + plot_h) +
           "\" stroke=\"#c62828\" stroke-width=\"2\" "
           "stroke-dasharray=\"3 3\"><title>knee</title></line>\n";
  }
  // Axis labels: offered rate under each rung, latency max on the
  // left, shed 100% on the right.
  for (std::size_t i = 0; i < n; ++i)
    out += "  <text x=\"" + stable_decimal(x_at(i, n, left, plot_w)) +
           "\" y=\"" + stable_decimal(height - 12.0) +
           "\" font-size=\"11\" text-anchor=\"middle\">" +
           stable_decimal(sweep.steps[i].rate) + "</text>\n";
  out += "  <text x=\"" + stable_decimal(left - 8.0) + "\" y=\"" +
         stable_decimal(top + 12.0) +
         "\" font-size=\"11\" text-anchor=\"end\">" + stable_decimal(max_p95) +
         " ms</text>\n";
  out += "  <text x=\"" + stable_decimal(left + plot_w + 8.0) + "\" y=\"" +
         stable_decimal(top + 12.0) +
         "\" font-size=\"11\" text-anchor=\"start\">100% shed</text>\n";
  out += "  <text x=\"" + stable_decimal(left + plot_w / 2.0) + "\" y=\"" +
         stable_decimal(height - 0.5) +
         "\" font-size=\"11\" text-anchor=\"middle\">offered req/s per "
         "connection</text>\n";
  out += "</svg>\n";

  // Legend.
  out += "<p>";
  for (std::size_t ci = 0; ci < class_names.size(); ++ci)
    out += "<span style=\"color:" + std::string(class_color(ci)) +
           "\">&#9632; " + html_escape(class_names[ci]) + " p95</span>  ";
  out += "<span style=\"color:#888\">&#9632; shed rate</span></p>\n";

  // Per-step table.
  out +=
      "<h2>Rungs</h2>\n<table>\n<tr><th>rate</th><th>sent</th>"
      "<th>completed</th><th>shed</th><th>shed %</th><th>errors</th>"
      "<th>throughput req/s</th><th>queue max</th><th>queue mean</th>"
      "</tr>\n";
  for (const SaturationStep& step : sweep.steps)
    out += "<tr><td>" + stable_decimal(step.rate) + "</td><td>" +
           std::to_string(step.sent) + "</td><td>" +
           std::to_string(step.completed) + "</td><td>" +
           std::to_string(step.overloaded) + "</td><td>" +
           stable_decimal(step.shed_rate * 100.0) + "</td><td>" +
           std::to_string(step.errors) + "</td><td>" +
           stable_decimal(step.throughput_rps) + "</td><td>" +
           stable_decimal(step.queue_depth_max) + "</td><td>" +
           stable_decimal(step.queue_depth_mean) + "</td></tr>\n";
  out += "</table>\n";

  out +=
      "<h2>Per-class latency (ms)</h2>\n<table>\n<tr><th>rate</th>"
      "<th>class</th><th>sent</th><th>completed</th><th>p50</th>"
      "<th>p95</th><th>p99</th></tr>\n";
  for (const SaturationStep& step : sweep.steps)
    for (const SaturationClassPoint& c : step.classes)
      out += "<tr><td>" + stable_decimal(step.rate) + "</td><td>" +
             html_escape(c.name) + "</td><td>" + std::to_string(c.sent) +
             "</td><td>" + std::to_string(c.completed) + "</td><td>" +
             stable_decimal(c.p50_ms) + "</td><td>" +
             stable_decimal(c.p95_ms) + "</td><td>" +
             stable_decimal(c.p99_ms) + "</td></tr>\n";
  out += "</table>\n</body>\n</html>\n";
  return out;
}

std::string saturation_report_csv(const SaturationSweep& sweep) {
  std::string out =
      "rate,class,sent,completed,overloaded,errors,shed_rate,"
      "throughput_rps,queue_depth_max,queue_depth_mean,"
      "p50_ms,p95_ms,p99_ms\n";
  for (const SaturationStep& step : sweep.steps) {
    out += stable_decimal(step.rate) + ",_total," +
           std::to_string(step.sent) + "," + std::to_string(step.completed) +
           "," + std::to_string(step.overloaded) + "," +
           std::to_string(step.errors) + "," +
           stable_decimal(step.shed_rate) + "," +
           stable_decimal(step.throughput_rps) + "," +
           stable_decimal(step.queue_depth_max) + "," +
           stable_decimal(step.queue_depth_mean) + ",,,\n";
    for (const SaturationClassPoint& c : step.classes)
      out += stable_decimal(step.rate) + "," + c.name + "," +
             std::to_string(c.sent) + "," + std::to_string(c.completed) +
             "," + std::to_string(c.overloaded) + ",,,,,," +
             stable_decimal(c.p50_ms) + "," + stable_decimal(c.p95_ms) + "," +
             stable_decimal(c.p99_ms) + "\n";
  }
  return out;
}

}  // namespace ftspm::report
