// The per-layer metrics of the traced run: one fixed list (module, name,
// unit, and the end-to-end metric / workload each should move), the
// "where host time goes" table printed from it, and the emission of the
// values into the run's JSON result in list order.
#pragma once

#include <map>
#include <string>

#include "common.h"

namespace perfbench {

struct LayerMetric {
  const char* module;
  const char* name;
  const char* unit;
  const char* feeds;  ///< end-to-end metric and workload it should move
};

/// Every per-layer metric, grouped by module (BENCHMARK.json lists the same
/// names in the same order).
const std::vector<LayerMetric>& layer_metrics();

/// Prints the table for `workload` to stdout and appends every listed metric
/// to `result`; a metric missing from `values` fails the run's checks.
void emit_layers(const std::string& workload,
                 const std::map<std::string, double>& values,
                 RunResult& result);

}  // namespace perfbench
