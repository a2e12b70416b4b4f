#include "support/benchdiff.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace wsp::bench {

const char* to_string(Direction dir) {
  switch (dir) {
    case Direction::kHigherBetter: return "higher-better";
    case Direction::kLowerBetter: return "lower-better";
    case Direction::kExact: return "exact";
    case Direction::kInfo: return "info";
  }
  return "unknown";
}

const std::vector<ToleranceRule>& default_tolerance_table() {
  // Order matters: first match wins.  Specific server-metric rules come
  // before the generic kernel-cycle patterns.
  static const std::vector<ToleranceRule> table = {
      // Robustness counters are exact-deterministic for a fixed seed: any
      // drift means engine behavior changed and must be blessed explicitly.
      {"*/leaked", Direction::kExact, 0.0},
      {"*/faults_injected", Direction::kExact, 0.0},
      {"*/aborted", Direction::kExact, 0.0},
      // The .wsp compiler's legacy-equivalence gate (bench_report scenario
      // section): a compiled one-phase Fig. 8 program must reproduce the
      // flat code path bit for bit, so the mismatch count stays zero.
      {"*/equiv_mismatch", Direction::kExact, 0.0},
      // Crash-fault tolerance (docs/recovery.md): a crash -> restore ->
      // continue run must match the uninterrupted reference bit for bit —
      // covers both crash/resume_mismatch and crash/torn_resume_mismatch.
      {"*resume_mismatch", Direction::kExact, 0.0},
      // Checkpoint count is derived from the deterministic reference
      // makespan, so any drift means the barrier cadence changed.
      {"*/checkpoints", Direction::kExact, 0.0},
      // Actual process RSS next to the modeled per-session bytes: genuinely
      // host-dependent (allocator arenas, page size).  Even as the scale
      // run's own RSS delta it spreads from 19 to 48 MiB around a 29 MiB
      // mode across runs, so it is tracked but never gated.
      {"*/rss_mib", Direction::kInfo, 0.0},
      // The headline server metrics.
      {"*/throughput_per_gcycle", Direction::kHigherBetter, 5.0},
      // Structural bytes per live session (slab slot + cold block + index
      // share): a build-layout property, so the tolerance only absorbs
      // ABI/padding noise — real growth must be blessed deliberately.
      {"*/memory_per_session", Direction::kLowerBetter, 2.0},
      {"*/latency_p50_cycles", Direction::kLowerBetter, 10.0},
      {"*/latency_p90_cycles", Direction::kLowerBetter, 10.0},
      {"*/latency_p99_cycles", Direction::kLowerBetter, 10.0},
      {"*/latency_max_cycles", Direction::kLowerBetter, 15.0},
      {"*/platform_equiv_speedup", Direction::kHigherBetter, 5.0},
      // Per-session byte digests pin traffic content; they legitimately
      // change whenever the workload mix does, so they are informational.
      {"*digest*", Direction::kInfo, 0.0},
      // Sec. 4.3 explore sweep (BENCH_sec43_explore.json, gated by
      // sanitize.sh via --check --with-explore): the candidate count is a
      // property of the enumerated space, the winning estimate a modeled
      // cycle count; the worst point is tracked but not gated — nothing
      // optimizes for it.
      {"configs", Direction::kExact, 0.0},
      {"best_avg_cycles", Direction::kLowerBetter, 5.0},
      {"worst_avg_cycles", Direction::kInfo, 0.0},
      // Paper speedup figures and optimized-kernel cycle counts.
      {"speedup_*", Direction::kHigherBetter, 5.0},
      {"*_opt", Direction::kLowerBetter, 5.0},
      {"*_cpb", Direction::kLowerBetter, 5.0},
      {"add_n/*", Direction::kLowerBetter, 5.0},
      {"addmul_1/*", Direction::kLowerBetter, 5.0},
      {"workload_total", Direction::kLowerBetter, 5.0},
  };
  return table;
}

bool glob_match(const std::string& pattern, const std::string& key) {
  // Iterative '*' matcher with single-star backtracking.
  std::size_t p = 0, k = 0, star = std::string::npos, mark = 0;
  while (k < key.size()) {
    if (p < pattern.size() && (pattern[p] == key[k])) {
      ++p, ++k;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = k;
    } else if (star != std::string::npos) {
      p = star + 1;
      k = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

const ToleranceRule* match_rule(const std::vector<ToleranceRule>& rules,
                                const std::string& key) {
  for (const ToleranceRule& rule : rules) {
    if (glob_match(rule.pattern, key)) return &rule;
  }
  return nullptr;
}

namespace {

const json::Value& cycles_of(const json::Value& doc, const char* which) {
  if (!doc.is_object() || !doc.has("schema") ||
      doc.at("schema").as_string() != "wsp-bench-v1") {
    throw std::runtime_error(std::string("benchdiff: ") + which +
                             " document is not schema wsp-bench-v1");
  }
  if (!doc.has("cycles") || !doc.at("cycles").is_object()) {
    throw std::runtime_error(std::string("benchdiff: ") + which +
                             " document has no cycles object");
  }
  return doc.at("cycles");
}

bool is_regression(Direction dir, double tol_pct, double baseline,
                   double current) {
  switch (dir) {
    case Direction::kExact:
      return current != baseline;
    case Direction::kHigherBetter:
      if (baseline == 0.0) return current < 0.0;
      return current < baseline - std::abs(baseline) * tol_pct / 100.0;
    case Direction::kLowerBetter:
      if (baseline == 0.0) return current > 0.0;
      return current > baseline + std::abs(baseline) * tol_pct / 100.0;
    case Direction::kInfo:
      return false;
  }
  return false;
}

}  // namespace

CheckReport check_bench(const json::Value& baseline, const json::Value& current,
                        const std::vector<ToleranceRule>& rules) {
  CheckReport report;
  if (current.is_object() && current.has("name")) {
    report.name = current.at("name").as_string();
  }
  const json::Value& base_cycles = cycles_of(baseline, "baseline");
  const json::Value& cur_cycles = cycles_of(current, "current");

  for (const auto& [key, value] : base_cycles.members()) {
    if (!cur_cycles.has(key)) {
      report.missing.push_back(key);
      continue;
    }
    ++report.compared;
    const double b = value.as_number();
    const double c = cur_cycles.at(key).as_number();
    if (b == c) continue;

    MetricDelta d;
    d.key = key;
    d.baseline = b;
    d.current = c;
    d.delta_pct = b != 0.0 ? (c - b) / std::abs(b) * 100.0 : 0.0;
    const ToleranceRule* rule = match_rule(rules, key);
    d.dir = rule != nullptr ? rule->dir : Direction::kInfo;
    d.regression =
        is_regression(d.dir, rule != nullptr ? rule->tolerance_pct : 0.0, b, c);
    (d.regression ? report.regressions : report.drifts).push_back(d);
  }
  for (const auto& [key, value] : cur_cycles.members()) {
    (void)value;
    if (!base_cycles.has(key)) report.added.push_back(key);
  }
  return report;
}

std::string format_check_report(const CheckReport& report) {
  std::string out;
  char line[256];
  auto emit = [&](const char* verdict, const MetricDelta& d) {
    std::snprintf(line, sizeof line,
                  "    %-10s %-36s %14.4g -> %14.4g  (%+.2f%%, %s)\n", verdict,
                  d.key.c_str(), d.baseline, d.current, d.delta_pct,
                  to_string(d.dir));
    out += line;
  };
  for (const auto& d : report.regressions) emit("REGRESSION", d);
  for (const auto& key : report.missing) {
    std::snprintf(line, sizeof line, "    %-10s %s (metric vanished)\n",
                  "MISSING", key.c_str());
    out += line;
  }
  for (const auto& d : report.drifts) emit("drift", d);
  for (const auto& key : report.added) {
    std::snprintf(line, sizeof line, "    %-10s %s\n", "new", key.c_str());
    out += line;
  }
  std::snprintf(line, sizeof line,
                "    %zu compared, %zu regressions, %zu drifts, %zu missing, "
                "%zu new\n",
                report.compared, report.regressions.size(),
                report.drifts.size(), report.missing.size(),
                report.added.size());
  out += line;
  return out;
}

json::Value load_json_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("benchdiff: cannot open " + path);
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) throw std::runtime_error("benchdiff: read error on " + path);
  try {
    return json::Value::parse(text);
  } catch (const std::exception& e) {
    throw std::runtime_error("benchdiff: " + path + ": " + e.what());
  }
}

}  // namespace wsp::bench
