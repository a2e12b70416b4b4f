// The three server workloads (fig8_mix, resume_scale, chaos_recover): their
// pinned shapes and end-to-end timing through Engine::run / RunRecorder /
// resume_run.  The traced breakdown lives in server_layers.cpp.
#include <cmath>

#include "server/record.h"
#include "server_probe.h"
#include "ssl/workload.h"

namespace perfbench {

using namespace wsp;
using namespace wsp::server;

// ---------------------------------------------------------------------------
// Pinned workload shapes.  Shards are explicit everywhere: the default (0)
// resolves to the host core count and would change the virtual model.

ServerSpec fig8_spec(unsigned threads) {
  ServerSpec s;
  s.config.threads = threads;
  s.config.shards = 16;
  s.config.queue_capacity = 64;
  s.config.record_batch = 16;
  s.config.rsa_bits = 512;
  s.scenario.sessions = 600;
  s.scenario.model = ArrivalModel::kOpenLoop;
  s.scenario.offered_load = 0.6;
  s.scenario.ciphers = {ssl::Cipher::kTripleDesCbc, ssl::Cipher::kAes128Cbc,
                        ssl::Cipher::kRc4};
  s.scenario.transaction_sizes = {1024, 2048, 4096, 8192, 16384, 32768};
  s.scenario.record_bytes = 1024;
  s.warmup_sessions = 75;
  return s;
}

ServerSpec resume_spec(unsigned threads) {
  ServerSpec s;
  s.config.threads = threads;
  s.config.shards = 8;
  s.config.queue_capacity = 32768;
  s.config.record_batch = 32;
  s.config.rsa_bits = 512;
  s.scenario.sessions = 100000;
  s.scenario.model = ArrivalModel::kOpenLoop;
  s.scenario.offered_load = 1.2;
  s.scenario.resume_sessions = true;
  s.scenario.ciphers = {ssl::Cipher::kRc4};
  s.scenario.transaction_sizes = {256, 512};
  s.scenario.record_bytes = 256;
  s.warmup_sessions = 12500;
  return s;
}

ServerSpec chaos_spec(unsigned threads) {
  ServerSpec s;
  s.config.threads = threads;
  s.config.shards = 8;
  s.config.queue_capacity = 64;
  s.config.record_batch = 16;
  s.config.rsa_bits = 512;
  s.config.faults.wire_flip_rate = 0.05;
  s.config.faults.handshake_failure_rate = 0.05;
  s.config.faults.abort_rate = 0.03;
  s.config.faults.stall_rate = 0.05;
  s.scenario.sessions = 1500;
  s.scenario.model = ArrivalModel::kOpenLoop;
  s.scenario.offered_load = 0.8;
  s.scenario.ciphers = {ssl::Cipher::kAes128Cbc, ssl::Cipher::kRc4};
  s.scenario.transaction_sizes = {1024, 2048, 4096, 8192, 16384};
  s.scenario.record_bytes = 1024;
  s.warmup_sessions = 190;
  s.config.checkpoint_every = checkpoint_interval(s, 12);
  return s;
}

double checkpoint_interval(const ServerSpec& spec, unsigned barriers) {
  const ssl::PlatformCosts costs = calibrated_costs(spec.config.pricing);
  double mean = 0.0;
  for (std::size_t bytes : spec.scenario.transaction_sizes) {
    mean += spec.scenario.resume_sessions
                ? ssl::resumed_transaction_cost(costs, bytes).total()
                : ssl::transaction_cost(costs, bytes).total();
  }
  mean /= static_cast<double>(spec.scenario.transaction_sizes.size());
  const double makespan = static_cast<double>(spec.scenario.sessions) * mean /
                          (spec.config.shards * spec.scenario.offered_load);
  return std::floor(makespan / barriers);
}

namespace {

TrafficScenario scenario_for_rep(const ServerSpec& spec, std::uint64_t seed,
                                 std::uint64_t rep) {
  TrafficScenario sc = spec.scenario;
  sc.seed = mix_seed(seed, rep);
  return sc;
}

/// Invariants every server run must keep; returns false (and records why)
/// when one is broken.
bool check_report(const RunReport& rep, const char* what, RunResult& result) {
  bool ok = result.check(rep.admitted > 0 && rep.completed > 0,
                         std::string(what) + ": nothing completed");
  ok = result.check(rep.completed + rep.aborted == rep.admitted,
                    std::string(what) + ": completed + aborted != admitted") &&
       ok;
  ok = result.check(rep.failed_tasks == 0,
                    std::string(what) + ": scheduler task failures") &&
       ok;
  ok = result.check(rep.offered == rep.admitted + rep.dropped,
                    std::string(what) + ": offered != admitted + dropped") &&
       ok;
  return ok;
}

bool check_same(const RunReport& want, const RunReport& got, const char* what,
                RunResult& result) {
  const auto diffs = compare_reports(want, got);
  return result.check(diffs.empty(), std::string(what) + ": " +
                                         (diffs.empty() ? "" : diffs.front()));
}

unsigned check_threads(unsigned threads) {
  return threads > 1 ? threads / 2 : 1;
}

/// Set-up of a server workload in CPU seconds, repeated `times` and reported
/// as a median:
/// scenario build, engine construction and a warm-up run of
/// `warmup_sessions` sessions (thread start-up, slab and allocator warm-up).
/// Each repeat draws its own warm-up traffic, so the median does not hinge
/// on one seed's cipher/size mix.
double server_setup(const ServerSpec& spec, std::uint64_t seed, int times,
                    RunResult& result) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    const double t0 = cpu_now_s();
    TrafficScenario warm = scenario_for_rep(spec, seed, 1000 + i);
    warm.sessions = spec.warmup_sessions;
    Engine engine(spec.config);
    const RunReport rep = engine.run(warm);
    samples.push_back(cpu_now_s() - t0);
    check_report(rep, "warm-up run", result);
  }
  return median(samples);
}

void put_end_to_end(RunResult& r, double throughput, double op_s,
                    double setup_s, double rss_mib) {
  r.put("throughput_per_cpu_s", throughput, "1/s");
  r.put("op_cpu_s", op_s, "s");
  r.put("setup_s", setup_s, "s");
  r.put("peak_rss_mib", rss_mib, "MiB");
}

// ---------------------------------------------------------------------------
// End-to-end: fig8_mix and resume_scale (Engine::run batches).

RunResult engine_batches(const ServerSpec& spec, const Options& opt) {
  RunResult r;
  const double setup = server_setup(spec, opt.seed, 5, r);

  std::vector<double> cpus;
  std::uint64_t completed = 0;
  double cpu_sum = 0.0;
  RunReport first;
  double rss = 0.0;  // high-water of set-up plus the first repetition
  const double t_start = now_s();
  for (std::uint64_t rep = 0;
       rep < 2 || now_s() - t_start < opt.seconds; ++rep) {
    const TrafficScenario sc = scenario_for_rep(spec, opt.seed, rep);
    Engine engine(spec.config);
    const double t0 = cpu_now_s();
    RunReport report = engine.run(sc);
    const double cpu = cpu_now_s() - t0;
    cpus.push_back(cpu);
    cpu_sum += cpu;
    completed += report.completed;
    r.attempted += report.admitted;
    if (!check_report(report, "measured run", r)) r.failed += report.admitted;
    if (rep == 0) {
      first = std::move(report);
      rss = peak_rss_mib();
    }
  }

  // Determinism: the first repetition again, at another thread count.
  EngineConfig again = spec.config;
  again.threads = check_threads(spec.config.threads);
  const RunReport rerun = Engine(again).run(scenario_for_rep(spec, opt.seed, 0));
  r.attempted += rerun.admitted;
  if (!check_report(rerun, "thread-count re-run", r) ||
      !check_same(first, rerun, "thread-count re-run", r)) {
    r.failed += rerun.admitted;
  }

  put_end_to_end(r, static_cast<double>(completed) / cpu_sum, median(cpus),
                 setup, rss);
  return r;
}

// ---------------------------------------------------------------------------
// End-to-end: chaos_recover (record with barriers, tear, scan, resume).

struct ChaosRep {
  RunReport report;
  std::vector<std::uint8_t> torn;
  std::size_t kept_checkpoints = 0;
  double record_cpu_s = 0.0;
};

/// Records one run to memory with checkpoint barriers, then tears the trace
/// a few bytes into the checkpoint two thirds of the way through.
ChaosRep record_and_tear(const ServerSpec& spec, const TrafficScenario& sc) {
  ChaosRep out;
  RunRecorder rec(spec.config, sc);
  Engine engine(rec.engine_config());
  const double t0 = cpu_now_s();
  out.report = engine.run(sc);
  rec.finish(out.report);
  out.record_cpu_s = cpu_now_s() - t0;
  const auto& offsets = rec.checkpoint_offsets();
  if (offsets.empty()) return out;
  out.kept_checkpoints = offsets.size() * 2 / 3;
  const std::size_t cut = offsets[out.kept_checkpoints] + 5;
  out.torn.assign(rec.bytes().begin(), rec.bytes().begin() + cut);
  return out;
}

}  // namespace

RunResult run_fig8_mix(const Options& opt) {
  return engine_batches(fig8_spec(opt.threads), opt);
}

RunResult run_resume_scale(const Options& opt) {
  return engine_batches(resume_spec(opt.threads), opt);
}

RunResult run_chaos_recover(const Options& opt) {
  const ServerSpec spec = chaos_spec(opt.threads);
  RunResult r;
  const double setup = server_setup(spec, opt.seed, 5, r);

  std::vector<double> resume_cpus;
  std::uint64_t completed = 0;
  double record_sum = 0.0;
  RunReport first;
  double rss = 0.0;  // high-water of set-up plus the first repetition
  const double t_start = now_s();
  for (std::uint64_t rep = 0;
       rep < 2 || now_s() - t_start < opt.seconds; ++rep) {
    const TrafficScenario sc = scenario_for_rep(spec, opt.seed, rep);
    ChaosRep c = record_and_tear(spec, sc);
    bool ok = check_report(c.report, "recorded run", r);
    ok = r.check(!c.torn.empty(), "recorded run took no checkpoint") && ok;
    if (ok) {
      const double t0 = cpu_now_s();
      const ResumeScan scan = scan_trace_for_resume(c.torn);
      const ReplayResult resumed = resume_run(scan, spec.config.threads);
      resume_cpus.push_back(cpu_now_s() - t0);
      ok = r.check(!scan.complete && !scan.tear.empty() &&
                       scan.checkpoints.size() == c.kept_checkpoints,
                   "resume scan did not stop at the tear") &&
           ok;
      ok = check_same(c.report, resumed.report, "resumed run", r) && ok;
    }
    record_sum += c.record_cpu_s;
    completed += c.report.completed;
    r.attempted += c.report.admitted;
    if (!ok) r.failed += c.report.admitted;
    if (rep == 0) {
      first = std::move(c.report);
      rss = peak_rss_mib();
    }
  }

  EngineConfig again = spec.config;
  again.threads = check_threads(spec.config.threads);
  const RunRecord rerun =
      record_run(again, scenario_for_rep(spec, opt.seed, 0));
  r.attempted += rerun.report.admitted;
  if (!check_report(rerun.report, "thread-count re-run", r) ||
      !check_same(first, rerun.report, "thread-count re-run", r)) {
    r.failed += rerun.report.admitted;
  }

  put_end_to_end(r, static_cast<double>(completed) / record_sum,
                 resume_cpus.empty() ? 0.0 : median(resume_cpus), setup, rss);
  return r;
}

}  // namespace perfbench
