// perfbench: host-time benchmark of the wsp libraries.
//
//   perfbench --workload <fig8_mix|resume_scale|design_flow|chaos_recover>
//             --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//
// --trace 0 measures the end-to-end metrics through the public entry points;
// --trace 1 runs the traced layer breakdown instead, prints the per-layer
// table and writes the spans to --spans-out.  The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <string>

#include "common.h"
#include "support/threadpool.h"
#include "support/trace.h"

namespace perfbench {

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fig8_mix|resume_scale|"
               "design_flow|chaos_recover> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>]\n");
}

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return false;
      opt.trace = val[0] == '1';
    } else if (key == "--spans-out") {
      opt.spans_out = val;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// JSON number with every significant digit of the double.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  // Worker threads are pinned, but never above the host's core count.
  opt.threads = std::min(kThreads, wsp::ThreadPool::hardware_threads());

  RunResult result;
  try {
    if (opt.workload == "fig8_mix") {
      result = opt.trace ? trace_fig8_mix(opt) : run_fig8_mix(opt);
    } else if (opt.workload == "resume_scale") {
      result = opt.trace ? trace_resume_scale(opt) : run_resume_scale(opt);
    } else if (opt.workload == "chaos_recover") {
      result = opt.trace ? trace_chaos_recover(opt) : run_chaos_recover(opt);
    } else if (opt.workload == "design_flow") {
      result = opt.trace ? trace_design_flow(opt) : run_design_flow(opt);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  // The library's own trace sites must have stayed idle throughout.
  result.check(!wsp::trace::active(), "a library trace session was started");
  if (result.attempted == 0) result.check(false, "no operation was attempted");

  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::printf("perfbench: workload %s seed %llu threads %u seconds %g trace %d\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.threads, opt.seconds, opt.trace ? 1 : 0);
  print_json(result);
  return 0;
}
