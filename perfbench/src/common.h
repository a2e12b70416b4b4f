// Shared types of the host-time benchmark: options, the result object every
// workload fills, and small helpers (seed mixing, medians, timing).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Worker threads every workload pins (clamped to the host's core count).
constexpr unsigned kThreads = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< where the traced run writes its spans
  unsigned threads = kThreads;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< operations whose outputs were checked
  std::uint64_t failed = 0;     ///< operations whose output check failed
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< one line per failed check (stderr)

  /// Records a failed check; returns `ok` so callers can chain on it.
  bool check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
    return ok;
  }
  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

/// Peak resident set of this process so far, MiB (getrusage high-water).
double peak_rss_mib();

/// CPU seconds this process has used so far, all threads (exited ones
/// included).  The end-to-end metrics are measured on this clock: on a
/// shared host, wall time also counts the time other tenants hold the
/// cores (CPU steal), which swings by tens of percent between runs.
double cpu_now_s();

// Workload entry points: run_* measures the end-to-end metrics (tracing
// off), trace_* the per-layer metrics of the traced run.
RunResult run_fig8_mix(const Options& opt);
RunResult run_resume_scale(const Options& opt);
RunResult run_chaos_recover(const Options& opt);
RunResult run_design_flow(const Options& opt);
RunResult trace_fig8_mix(const Options& opt);
RunResult trace_resume_scale(const Options& opt);
RunResult trace_chaos_recover(const Options& opt);
RunResult trace_design_flow(const Options& opt);

}  // namespace perfbench
