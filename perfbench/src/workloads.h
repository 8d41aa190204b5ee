// The three perfbench workloads. Each drives the ftspm libraries
// in-process through their public functions for about `seconds`,
// counting every operation it checks in `report`.
//
// With `spans` null the run is untraced: observability stays off and
// nothing but the end-to-end figures is taken. With a span log the same
// run records spans around the layer calls (under one root span named
// after the workload), turns the product's own instrumentation on, and
// appends the workload's per-layer metrics to `layers`.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Layers = std::vector<LayerMetric>;

EndToEnd run_paper_suite(const Options& options, double seconds,
                         Report& report, SpanLog* spans, Layers* layers);
EndToEnd run_campaign_mix(const Options& options, double seconds,
                          Report& report, SpanLog* spans, Layers* layers);
EndToEnd run_serve_aged_ledger(const Options& options, double seconds,
                               Report& report, SpanLog* spans,
                               Layers* layers);

}  // namespace perfbench
