// perfbench: the repository benchmark. One invocation runs one workload
// in this process and prints, last, one JSON line with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). See
// README.md for the metrics and why each workload exists.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

using RunFn = EndToEnd (*)(const Options&, double, Report&, SpanLog*, Layers*);

struct Workload {
  const char* name;
  RunFn run;
  /// The traced run of another workload probes this one's layers for
  /// this long, so every per-layer metric is measured whichever workload
  /// was chosen.
  double probe_seconds;
};

/// serve_aged_ledger is probed longest: BENCHMARK.json does not list it
/// as a workload, so its probe is where its figures come from.
constexpr Workload kWorkloads[] = {
    {"paper_suite", run_paper_suite, 3.0},
    {"campaign_mix", run_campaign_mix, 3.0},
    {"serve_aged_ledger", run_serve_aged_ledger, 10.0},
};

/// Every per-layer metric, in BENCHMARK.json order.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"workload.gen_ms", "ms"},
    {"profile.profile_ms", "ms"},
    {"core.mda_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.accesses_per_s", "1/s"},
    {"sim.dma_words", "count"},
    {"sim.cache_fills", "count"},
    {"mda.evictions", "count"},
    {"fault.static_1t_strikes_per_s", "1/s"},
    {"fault.recovery_1t_strikes_per_s", "1/s"},
    {"fault.scrub_1t_strikes_per_s", "1/s"},
    {"core.temporal_1t_strikes_per_s", "1/s"},
    {"ecc.folds_per_s", "1/s"},
    {"exec.parallel_efficiency", "ratio"},
    {"exec.shard_skew", "ratio"},
    {"exec.tail_ms", "ms"},
    {"recovery.demand_reads", "count"},
    {"recovery.scrub_words", "count"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.run_ms_p50", "ms"},
    {"exec.dispatch_ms_p50", "ms"},
    {"serve.flush_ms_p50", "ms"},
    {"serve.flush_ms_p99", "ms"},
    {"obs.ledger_append_ms", "ms"},
    {"serve.ping_rtt_ms_p50", "ms"},
    {"serve.open_p50_ms", "ms"},
    {"serve.open_p95_ms", "ms"},
    {"serve.capacity_rps", "1/s"},
    {"serve.open_p99_ms", "ms"},
    {"serve.small_p99_ms", "ms"},
    {"serve.large_p99_ms", "ms"},
    {"serve.queue_depth_max", "count"},
    {"obs.ledger_bytes", "bytes"},
    {"load.late_ms_p99", "ms"},
    {"trace_overhead.setup_s", "s"},
    {"trace_overhead.p50_ms", "ms"},
    {"trace_overhead.tail_ms", "ms"},
    {"trace_overhead.throughput_per_s", "1/s"},
};

int usage() {
  std::cerr << "usage: perfbench --workload <paper_suite|campaign_mix|"
               "serve_aged_ledger> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n";
  return 2;
}

void print_self_times(const SpanLog& spans) {
  for (const Span& root : spans.spans()) {
    if (root.parent != 0) continue;
    const std::vector<std::pair<std::string, double>> table =
        spans.self_ms(root.id);
    double total = 0.0;
    for (const auto& [layer, ms] : table) total += ms;
    std::cout << "self time by layer, " << root.name << " (" << total
              << " ms):\n";
    for (const auto& [layer, ms] : table)
      std::cout << "  " << layer << "  " << ms << " ms  "
                << (total > 0.0 ? 100.0 * ms / total : 0.0) << "%\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const Workload* workload = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      for (const Workload& w : kWorkloads)
        if (options.workload == w.name) workload = &w;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (workload == nullptr || argc % 2 == 0 || !(options.seconds > 0.0))
    return usage();

  Report report;
  try {
    std::filesystem::create_directories(options.out_dir);
    std::cout << "# perfbench " << options.workload << " seed " << options.seed
              << " seconds " << options.seconds << " trace " << options.trace
              << "\n# machine " << machine_json() << std::endl;
    std::cout << "## " << workload->name << ", untraced" << std::endl;
    const EndToEnd base = workload->run(options, options.seconds, report,
                                        nullptr, nullptr);
    std::cout << "setup " << base.setup_s << " s" << std::endl;
    if (!options.trace) {
      report.metric("setup_s", base.setup_s, "s");
      report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
      report.metric("p50_ms", base.p50_ms, "ms");
      report.metric("tail_ms", base.tail_ms, "ms");
      report.metric("throughput_per_s", base.throughput_per_s, "1/s");
      std::cout << "tail_ms is the " << base.tail_quantile * 100.0
                << "th percentile" << std::endl;
    } else {
      SpanLog spans;
      Layers layers;
      std::cout << "## " << workload->name << ", traced" << std::endl;
      const EndToEnd traced = workload->run(options, options.seconds, report,
                                            &spans, &layers);
      std::cout << "setup " << traced.setup_s << " s" << std::endl;
      for (const Workload& other : kWorkloads) {
        if (&other == workload) continue;
        std::cout << "## " << other.name << ", traced probe of "
                  << other.probe_seconds << " s" << std::endl;
        other.run(options, other.probe_seconds, report, &spans, &layers);
      }
      layers.push_back({"trace_overhead.setup_s",
                        traced.setup_s - base.setup_s, "s"});
      layers.push_back({"trace_overhead.p50_ms", traced.p50_ms - base.p50_ms,
                        "ms"});
      layers.push_back({"trace_overhead.tail_ms",
                        traced.tail_ms - base.tail_ms, "ms"});
      layers.push_back({"trace_overhead.throughput_per_s",
                        traced.throughput_per_s - base.throughput_per_s,
                        "1/s"});
      for (const auto& [name, unit] : kPerLayer) {
        const auto it =
            std::find_if(layers.begin(), layers.end(),
                         [&](const LayerMetric& m) { return m.name == name; });
        if (report.check(it != layers.end() && it->unit == unit,
                         std::string("per-layer metric ") + name +
                             " was not measured"))
          report.metric(name, it->value, unit);
      }
      const std::string path = options.out_dir + "/trace-" + options.workload +
                               "-seed" + std::to_string(options.seed) +
                               ".json";
      spans.write(path, machine_json());
      print_self_times(spans);
      std::cout << "trace: " << path << " (" << spans.spans().size()
                << " benchmark spans)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cout << "failed_share = "
            << (report.attempted() != 0
                    ? static_cast<double>(report.failed()) /
                          static_cast<double>(report.attempted())
                    : 0.0)
            << " ratio (" << report.failed() << " of " << report.attempted()
            << " operations)\n";
  report.print();
  return 0;
}
