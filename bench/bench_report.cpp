// Machine-readable bench/regression harness: re-runs the measurement cores
// of the paper-figure benchmarks (same seeds, same workloads) and serializes
// each one to BENCH_<name>.json (schema wsp-bench-v1, docs/observability.md)
// so every PR leaves a comparable perf trajectory behind.
//
// All "cycles" metrics are simulated-cycle counts or quantities derived
// from them — bit-deterministic for the fixed seeds — so two runs of
//   bench_report --outdir A && bench_report --outdir B
// produce JSON files whose "cycles" objects are byte-identical.  wall_ns is
// the only intentionally non-deterministic field, with one documented
// exception: the server section's batch/host_speedup_* metrics are measured
// host CPU-time ratios (the batched data plane's host-side payoff) and carry
// a wide tolerance in the gate table accordingly.
//
// Regression-gate mode (docs/benchmarks.md): `--check` re-measures every
// section and diffs it against the committed baseline BENCH_*.json under the
// per-metric tolerance table (support/benchdiff.h), exiting nonzero on any
// regression — >N% drop in throughput-per-Gcycle, >N% latency inflation, a
// nonzero chaos leak counter, a vanished metric, or a missing baseline.
// `--bless` rewrites the baselines from the current run to accept an
// intentional change.
//
// Flags:
//   --outdir DIR       where to write BENCH_*.json (default ".")
//   --only NAME        run a single section
//                      (fig1|table1|fig4|fig5|fig6|fig8|server|scenario)
//   --with-explore     also run the Sec. 4.3 sweep (adds ~30 s)
//   --threads N        worker threads for the explore sweep
//   --trace FILE       write a Chrome-trace of this run
//   --check            gate against the committed baselines; no files written
//   --bless            rewrite the baselines from this run (accepts changes)
//   --baseline-dir DIR baseline location (default: the committed bench/baselines)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>  // malloc_trim
#endif

#include "bench_util.h"
#include "explore/space.h"
#include "scenario/compile.h"
#include "server_section.h"
#include "server/record.h"
#include "support/benchdiff.h"
#include "kernels/aes_kernel.h"
#include "kernels/des_kernel.h"
#include "kernels/modexp_kernel.h"
#include "kernels/mpn_kernels.h"
#include "kernels/sha1_kernel.h"
#include "macromodel/characterize.h"
#include "mp/prime.h"
#include "select/callgraph.h"
#include "ssl/workload.h"
#include "support/random.h"
#include "support/rss.h"
#include "support/threadpool.h"
#include "tie/adcurve.h"

namespace {

using namespace wsp;
using Clock = std::chrono::steady_clock;

// Where the server section drops its chaos replay trace; empty (the --check
// and --bless modes) suppresses emission.  File-scope because sections run
// through plain function pointers.
std::string g_replay_trace_dir;

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

// --- Fig. 1: baseline stream-protection cost -------------------------------
bench::BenchResult run_fig1() {
  WSP_TRACE_SPAN("bench", "fig1");
  bench::BenchResult r;
  r.name = "fig1";
  r.config = {{"seed", "61"}, {"bytes", "1024"}, {"cipher", "3DES-ECB"}};
  const auto t0 = Clock::now();
  Rng rng(61);
  kernels::Machine m = kernels::make_des_machine(false);
  kernels::DesKernel k(m, false);
  k.set_3des_keys(rng.next_u64(), rng.next_u64(), rng.next_u64());
  std::uint64_t cycles = 0;
  const auto data = rng.bytes(1024);
  k.encrypt_ecb_3des(data, &cycles);
  r.cycles["des3_base_1kb"] = static_cast<double>(cycles);
  r.cycles["des3_base_cpb"] = static_cast<double>(cycles) / 1024.0;
  r.cycles["stream_cpb"] = static_cast<double>(cycles) / 1024.0 +
                           ssl::misc_cost_defaults().hash_cycles_per_byte;
  r.wall_ns = ns_since(t0);
  return r;
}

// --- Table 1: per-algorithm base vs. optimized -----------------------------
bench::BenchResult run_table1() {
  WSP_TRACE_SPAN("bench", "table1");
  bench::BenchResult r;
  r.name = "table1";
  r.config = {{"sym_bytes", "1024"}, {"rsa_bits", "1024"},
              {"seeds", "11/12/13"}};
  const auto t0 = Clock::now();

  {  // DES / 3DES
    Rng rng(11);
    const auto data = rng.bytes(1024);
    for (bool triple : {false, true}) {
      Rng krng(11);
      (void)krng.bytes(1024);  // match bench_table1's stream position
      for (bool tie : {false, true}) {
        kernels::Machine m = kernels::make_des_machine(tie);
        kernels::DesKernel k(m, tie);
        std::uint64_t cycles = 0;
        if (triple) {
          k.set_3des_keys(krng.next_u64(), krng.next_u64(), krng.next_u64());
          k.encrypt_ecb_3des(data, &cycles);
        } else {
          k.set_key(0x0123456789abcdefull);
          k.encrypt_ecb(data, &cycles);
        }
        r.cycles[std::string(triple ? "des3" : "des") +
                 (tie ? "_opt" : "_base")] = static_cast<double>(cycles);
      }
    }
  }
  {  // AES
    Rng rng(12);
    const auto data = rng.bytes(1024);
    const auto key = rng.bytes(16);
    for (auto variant : {kernels::AesKernelVariant::kBase,
                         kernels::AesKernelVariant::kTiePartial}) {
      kernels::Machine m = kernels::make_aes_machine(variant);
      kernels::AesKernel k(m, variant);
      k.set_key(key);
      std::uint64_t cycles = 0;
      k.encrypt_ecb(data, &cycles);
      r.cycles[variant == kernels::AesKernelVariant::kBase ? "aes_base"
                                                           : "aes_opt"] =
          static_cast<double>(cycles);
    }
  }
  {  // RSA-1024 encrypt/decrypt
    Rng rng(13);
    const auto key = rsa::generate_key(1024, rng);
    const Mpz msg = random_below(key.n, rng);
    kernels::Machine base_m = kernels::make_modexp_machine();
    kernels::Machine opt_m =
        kernels::make_modexp_machine(kernels::MpnTieConfig{8, 8});
    kernels::IssModexp base_mx(base_m), opt_mx(opt_m);
    const auto enc_base = base_mx.powm_base(msg, key.e, key.n);
    const auto enc_opt = opt_mx.powm_mont(msg, key.e, key.n, 2);
    const auto dec_base = base_mx.powm_base(enc_base.result, key.d, key.n);
    const auto dec_opt = opt_mx.rsa_crt(enc_base.result, key, 5);
    r.cycles["rsa_enc_base"] = static_cast<double>(enc_base.cycles);
    r.cycles["rsa_enc_opt"] = static_cast<double>(enc_opt.cycles);
    r.cycles["rsa_dec_base"] = static_cast<double>(dec_base.cycles);
    r.cycles["rsa_dec_opt"] = static_cast<double>(dec_opt.cycles);
  }
  r.wall_ns = ns_since(t0);
  return r;
}

// --- Fig. 4: weighted call graph of an optimized modexp --------------------
bench::BenchResult run_fig4() {
  WSP_TRACE_SPAN("bench", "fig4");
  bench::BenchResult r;
  r.name = "fig4";
  r.config = {{"seed", "41"}, {"rsa_bits", "512"}, {"window", "4"}};
  const auto t0 = Clock::now();
  Rng rng(41);
  const auto key = rsa::generate_key(512, rng);
  const Mpz base = random_below(key.n, rng);
  kernels::Machine machine = kernels::make_modexp_machine();
  kernels::IssModexp mx(machine);
  machine.cpu().reset_stats();
  const auto res = mx.powm_mont(base, key.d, key.n, 4);
  r.cycles["workload_total"] = static_cast<double>(res.cycles);
  for (const auto& [name, stats] : machine.cpu().profiler().functions()) {
    r.cycles["calls/" + name] = static_cast<double>(stats.calls);
    r.cycles["self/" + name] = static_cast<double>(stats.self_cycles);
  }
  r.wall_ns = ns_since(t0);
  return r;
}

// --- Fig. 5: measured A-D curves -------------------------------------------
bench::BenchResult run_fig5() {
  WSP_TRACE_SPAN("bench", "fig5");
  bench::BenchResult r;
  r.name = "fig5";
  r.config = {{"seeds", "31/32"}, {"limbs", "32"}};
  const auto t0 = Clock::now();
  const std::size_t n = 32;
  {
    Rng rng(31);
    std::vector<std::uint32_t> a(n), b(n), out;
    for (auto& x : a) x = rng.next_u32();
    for (auto& x : b) x = rng.next_u32();
    for (int width : {0, 2, 4, 8, 16}) {
      kernels::Machine m =
          kernels::make_mpn_machine(kernels::MpnTieConfig{width, 0});
      const auto res = kernels::run_add_n(m, out, a, b);
      r.cycles["add_n/w" + std::to_string(width)] =
          static_cast<double>(res.cycles);
    }
  }
  {
    Rng rng(32);
    std::vector<std::uint32_t> a(n);
    for (auto& x : a) x = rng.next_u32();
    for (int width : {0, 1, 2, 4}) {
      kernels::Machine m =
          kernels::make_mpn_machine(kernels::MpnTieConfig{0, width});
      std::vector<std::uint32_t> out(n, 0x5a5a5a5a);
      const auto res = kernels::run_addmul_1(m, out, a, 0x9e3779b9u);
      r.cycles["addmul_1/w" + std::to_string(width)] =
          static_cast<double>(res.cycles);
    }
  }
  r.wall_ns = ns_since(t0);
  return r;
}

// --- Fig. 6: design-space combination collapse -----------------------------
bench::BenchResult run_fig6() {
  WSP_TRACE_SPAN("bench", "fig6");
  bench::BenchResult r;
  r.name = "fig6";
  r.config = {{"example", "paper-fig6"}};
  const auto t0 = Clock::now();
  const auto catalog = tie::default_catalog();
  tie::ADCurve add_curve;
  add_curve.add({0, 202, {}});
  for (int k : {2, 4, 8, 16}) {
    const std::set<std::string> s = {"ur_load", "ur_store",
                                     "add_" + std::to_string(k)};
    add_curve.add({catalog.set_area(s), 202.0 / k + 30, s});
  }
  tie::ADCurve mul_curve;
  mul_curve.add({0, 650, {}});
  int adder = 0;
  for (double cyc : {420.0, 330.0, 260.0, 210.0}) {
    std::set<std::string> s = {"ur_load", "ur_store", "mac_1"};
    if (adder) s.insert("add_" + std::to_string(adder));
    mul_curve.add({catalog.set_area(s), cyc, s});
    adder = adder == 0 ? 2 : adder * 2;
  }
  tie::ADCurve::CombineStats stats;
  tie::ADCurve root =
      tie::ADCurve::combine(0.0, {{1.0, &add_curve}, {1.0, &mul_curve}},
                            catalog, &stats);
  r.cycles["cartesian_points"] = static_cast<double>(stats.cartesian_points);
  r.cycles["reduced_points"] = static_cast<double>(stats.reduced_points);
  root.pareto_prune();
  r.cycles["pareto_points"] = static_cast<double>(root.points().size());
  r.wall_ns = ns_since(t0);
  return r;
}

// --- Fig. 8: SSL transaction speedups --------------------------------------
bench::BenchResult run_fig8() {
  WSP_TRACE_SPAN("bench", "fig8");
  bench::BenchResult r;
  r.name = "fig8";
  r.config = {{"seed", "21"}, {"rsa_bits", "1024"}, {"record_cipher", "3DES-CBC"}};
  const auto t0 = Clock::now();
  Rng rng(21);
  const auto key = rsa::generate_key(1024, rng);
  const Mpz ct = random_below(key.n, rng);

  ssl::PlatformCosts base = ssl::misc_cost_defaults();
  ssl::PlatformCosts opt = ssl::misc_cost_defaults();
  {
    kernels::Machine m = kernels::make_modexp_machine();
    kernels::IssModexp mx(m);
    base.rsa_private_cycles =
        static_cast<double>(mx.powm_base(ct, key.d, key.n).cycles);
    base.rsa_public_cycles =
        static_cast<double>(mx.powm_base(ct, key.e, key.n).cycles);
  }
  {
    kernels::Machine m =
        kernels::make_modexp_machine(kernels::MpnTieConfig{8, 8});
    kernels::IssModexp mx(m);
    opt.rsa_private_cycles = static_cast<double>(mx.rsa_crt(ct, key, 5).cycles);
    opt.rsa_public_cycles =
        static_cast<double>(mx.powm_mont(ct, key.e, key.n, 2).cycles);
  }
  {
    const auto data = rng.bytes(1024);
    for (bool tie : {false, true}) {
      kernels::Machine m = kernels::make_des_machine(tie);
      kernels::DesKernel k(m, tie);
      k.set_3des_keys(rng.next_u64(), rng.next_u64(), rng.next_u64());
      std::uint64_t cycles = 0;
      k.encrypt_ecb_3des(data, &cycles);
      (tie ? opt : base).symmetric_cycles_per_byte =
          static_cast<double>(cycles) / static_cast<double>(data.size());
    }
  }
  r.cycles["rsa_private_base"] = base.rsa_private_cycles;
  r.cycles["rsa_private_opt"] = opt.rsa_private_cycles;
  r.cycles["rsa_public_base"] = base.rsa_public_cycles;
  r.cycles["rsa_public_opt"] = opt.rsa_public_cycles;
  r.cycles["sym_cpb_base"] = base.symmetric_cycles_per_byte;
  r.cycles["sym_cpb_opt"] = opt.symmetric_cycles_per_byte;
  const auto rows =
      ssl::ssl_speedup_table(base, opt, {1024, 4096, 32768});
  for (const auto& row : rows) {
    r.cycles["speedup_" + std::to_string(row.bytes)] = row.speedup;
  }
  r.wall_ns = ns_since(t0);
  return r;
}

// --- Secure-session server: Fig. 8 transactions under load ----------------
bench::BenchResult run_server() {
  WSP_TRACE_SPAN("bench", "server");
  bench::BenchResult r;
  r.name = "server";
  r.config = {{"seed", "71"}, {"sessions", "64"}, {"shards", "4"},
              {"rsa_bits", "512"}, {"scale_sessions", "100000"}};
  const auto t0 = Clock::now();
  server::EngineConfig cfg;
  cfg.threads = 2;  // metrics are thread-count invariant (docs/server.md)
  cfg.shards = 4;
  {
    server::Engine engine(cfg);
    bench::append_server_metrics(r, "steady/",
                                 engine.run(bench::steady_scenario(71, 64)));
  }
  {
    server::EngineConfig over = cfg;
    over.queue_capacity = 8;  // tight waiting room: overload must shed load
    server::Engine engine(over);
    bench::append_server_metrics(r, "overload/",
                                 engine.run(bench::overload_scenario(72, 96)));
  }
  {
    // Chaos run: deterministic fault injection + recovery (docs/faults.md).
    // Recorded through the replay layer so every bench emission leaves a
    // bit-exact reproduction trace next to the JSON (docs/benchmarks.md).
    server::EngineConfig chaos = cfg;
    chaos.faults = bench::chaos_fault_config();
    chaos.degrade_depth = 12;
    const server::RunRecord record =
        server::record_run(chaos, bench::chaos_scenario(74, 64));
    bench::append_server_metrics(r, "chaos/", record.report);
    if (!g_replay_trace_dir.empty()) {
      const std::string path = g_replay_trace_dir + "/REPLAY_server_chaos.wspr";
      if (server::write_run_record_file(record, path)) {
        std::printf(" [replay trace %s]", path.c_str());
      } else {
        std::fprintf(stderr, "FAILED to write %s\n", path.c_str());
      }
    }
  }
  {
    // Scale run: 100k resumed sessions through the slab table and MPSC
    // rings (docs/server.md §scale).  Gates memory_per_session (structural
    // bytes per live session) and data-plane throughput; shard count is
    // pinned by scale_config because determinism is per shard count.
    // rss_mib is what the scale run itself adds to the process RSS (read
    // with the engine still alive), not the heap earlier sections left
    // behind; 0 when /proc/self/statm is unavailable.
#if defined(__GLIBC__)
    malloc_trim(0);  // hand earlier sections' freed heap back first
#endif
    const std::uint64_t rss_before = support::resident_set_bytes();
    server::Engine engine(bench::scale_config(cfg.threads));
    bench::append_server_metrics(r, "scale/",
                                 engine.run(bench::scale_scenario(75, 100000)));
    const std::uint64_t rss_after = support::resident_set_bytes();
    r.cycles["scale/rss_mib"] =
        static_cast<double>(rss_after > rss_before ? rss_after - rss_before : 0) /
        (1024.0 * 1024.0);
  }
  {
    // Crash-fault tolerance (docs/recovery.md): the chaos mix again, but
    // with periodic checkpoints and a scheduled process kill.  The torn
    // trace is scanned and resumed at OTHER thread counts; the resumed
    // report must be bit-identical to an uninterrupted reference run.
    // resume_mismatch and torn_resume_mismatch are gated exactly zero —
    // torn additionally tears bytes off the trace tail mid-chunk, forcing
    // the scanner back to the previous checkpoint.
    server::EngineConfig chaos = cfg;
    chaos.faults = bench::chaos_fault_config();
    chaos.degrade_depth = 12;
    chaos.record_events = true;  // resume records events: compare them too
    const auto scenario = bench::chaos_scenario(77, 64);
    server::Engine ref_engine(chaos);
    const server::RunReport ref = ref_engine.run(scenario);

    server::EngineConfig crashed = chaos;
    crashed.checkpoint_every = ref.makespan_cycles / 7.0;
    crashed.faults.crash_at_cycles = ref.makespan_cycles * 0.6;
    server::RunRecorder recorder(crashed, scenario);
    bool crash_seen = false;
    try {
      server::Engine engine(recorder.engine_config());
      recorder.finish(engine.run(scenario));
    } catch (const server::CrashFault&) {
      crash_seen = true;
      recorder.crash();
    }
    double resume_mismatch = 1.0;
    double torn_mismatch = 1.0;
    server::RunReport resumed;  // zeros if the crash machinery failed
    if (crash_seen && recorder.checkpoints() > 0) {
      const auto scan = server::scan_trace_for_resume(recorder.bytes());
      const auto res = server::resume_run(scan, 8);
      resumed = res.report;
      resume_mismatch =
          server::compare_reports(ref, res.report).empty() ? 0.0 : 1.0;
      // Torn write: truncate into the last checkpoint chunk's header, so
      // the scan must reject it and fall back one checkpoint further.
      std::vector<std::uint8_t> torn(recorder.bytes());
      torn.resize(recorder.checkpoint_offsets().back() + 9);
      const auto torn_scan = server::scan_trace_for_resume(torn);
      const auto torn_res = server::resume_run(torn_scan, 1);
      torn_mismatch =
          (!torn_scan.tear.empty() &&
           torn_scan.checkpoints.size() + 1 == recorder.checkpoints() &&
           server::compare_reports(ref, torn_res.report).empty())
              ? 0.0
              : 1.0;
    }
    bench::append_server_metrics(r, "crash/", resumed);
    r.cycles["crash/checkpoints"] = static_cast<double>(recorder.checkpoints());
    r.cycles["crash/resume_mismatch"] = resume_mismatch;
    r.cycles["crash/torn_resume_mismatch"] = torn_mismatch;
  }
  {
    // CBC record traffic (docs/server.md): resumed AES/3DES sessions.
    const auto rep = server::Engine(bench::batch_config(cfg.threads))
                         .run(bench::batch_scenario(76, 96));
    bench::append_server_metrics(r, "batch/", rep);
  }
  r.wall_ns = ns_since(t0);
  r.threads = cfg.threads;
  return r;
}

// --- Scenario compiler: .wsp traffic programs (docs/scenarios.md) ----------
//
// The sources are embedded so the section is hermetic: --check must gate the
// compiler + multi-phase engine without depending on repo-relative paths.
bench::BenchResult run_scenario_section() {
  WSP_TRACE_SPAN("bench", "scenario");
  bench::BenchResult r;
  r.name = "scenario";
  r.config = {{"seed", "71"}, {"shards", "4"}, {"rsa_bits", "512"}};
  const auto t0 = Clock::now();
  server::EngineConfig cfg;
  cfg.threads = 2;  // metrics are thread-count invariant (docs/server.md)
  cfg.shards = 4;

  {
    // Equivalence gate: a one-phase .wsp spelling of the Fig. 8 steady
    // scenario must produce a report IDENTICAL to the flat scenario (which
    // the engine lowers to one phase) — same Rng consumption, same means,
    // same everything.  Gated exact-zero via */equiv_mismatch.
    static const char* kFig8Wsp =
        "scenario \"fig8\" {\n"
        "  seed 71\n"
        "  record_bytes 1024\n"
        "  phase \"steady\" { sessions 64, arrivals open, load 0.6 }\n"
        "}\n";
    const auto compiled = scenario::compile(kFig8Wsp, "<fig8>");
    server::Engine wsp_engine(cfg);
    const auto wsp_rep = wsp_engine.run(compiled.scenario);
    server::Engine flat_engine(cfg);
    const auto flat_rep = flat_engine.run(bench::steady_scenario(71, 64));
    bench::append_server_metrics(r, "fig8/", wsp_rep);
    r.cycles["fig8/equiv_mismatch"] =
        server::compare_reports(wsp_rep, flat_rep).empty() ? 0.0 : 1.0;
  }
  {
    // Multi-phase program under load: calm -> overload spike of resumed
    // sessions -> fault-overlay storm.  The leak gate (*/leaked, exact
    // zero) covers phase transitions: a session arriving in one phase and
    // finishing in the next must not be lost by the closed-out phase.
    static const char* kFlashWsp =
        "scenario \"flash\" {\n"
        "  seed 74\n"
        "  defaults { arrivals open, mix { aes128: 2, rc4: 1 } }\n"
        "  phase \"calm\"  { sessions 32, load 0.4, sizes { 4096: 1 } }\n"
        "  phase \"spike\" { sessions 96, load 3.0, resume 0.75,\n"
        "                    sizes { 1024: 3, 2048: 1 } }\n"
        "  phase \"storm\" { sessions 32, load 0.8, resume 0.5,\n"
        "                    sizes { 4096: 1, 8192: 1 },\n"
        "                    faults { handshake_failure_rate 0.2,\n"
        "                             wire_flip_rate 0.02,\n"
        "                             handshake_retry_budget 3,\n"
        "                             record_retry_budget 2 } }\n"
        "}\n";
    const auto compiled = scenario::compile(kFlashWsp, "<flash>");
    const server::RunRecord record =
        server::record_run(cfg, compiled.scenario, compiled.source);
    bench::append_server_metrics(r, "flash/", record.report);
    if (!g_replay_trace_dir.empty()) {
      const std::string path =
          g_replay_trace_dir + "/REPLAY_scenario_flash.wspr";
      if (server::write_run_record_file(record, path)) {
        std::printf(" [replay trace %s]", path.c_str());
      } else {
        std::fprintf(stderr, "FAILED to write %s\n", path.c_str());
      }
    }
  }
  {
    // Closed-loop population handing over to an open-loop burst: gates the
    // phase-entry reseeding of the closed-loop heap and the open-clock
    // monotonicity across models.
    static const char* kMixedWsp =
        "scenario \"mixed\" {\n"
        "  seed 75\n"
        "  record_bytes 512\n"
        "  phase \"devices\"  { sessions 24, arrivals closed, users 6,\n"
        "                       think 50000, mix { rc4: 1 },\n"
        "                       sizes { 1024: 1 } }\n"
        "  phase \"browsers\" { sessions 40, arrivals open, load 0.7,\n"
        "                       resume 0.5, mix { aes128: 1 },\n"
        "                       sizes { 2048: 1, 8192: 1 } }\n"
        "}\n";
    const auto compiled = scenario::compile(kMixedWsp, "<mixed>");
    server::Engine engine(cfg);
    bench::append_server_metrics(r, "mixed/", engine.run(compiled.scenario));
  }
  r.wall_ns = ns_since(t0);
  r.threads = cfg.threads;
  return r;
}

// --- Sec. 4.3 sweep (optional: the slow one) -------------------------------
bench::BenchResult run_explore(unsigned threads) {
  WSP_TRACE_SPAN("bench", "sec43_explore");
  bench::BenchResult r;
  r.name = "sec43_explore";
  r.threads = threads;
  r.config = {{"seed", "51"}, {"rsa_bits", "1024"}, {"repetitions", "2"}};
  const auto t0 = Clock::now();
  kernels::Machine machine = kernels::make_modexp_machine();
  kernels::Machine machine16 = kernels::make_mpn16_machine();
  const auto models = macromodel::characterize_mpn_full(machine, machine16);
  Rng rng(51);
  auto workload = explore::make_rsa_workload(1024, rng);
  workload.repetitions = 2;
  const auto report =
      explore::explore_modexp_space(workload, models, all_modexp_configs(),
                                    threads);
  r.cycles["configs"] = static_cast<double>(report.configs);
  r.cycles["best_avg_cycles"] = report.ranked.front().estimate.avg_cycles;
  r.cycles["worst_avg_cycles"] = report.ranked.back().estimate.avg_cycles;
  r.config["best"] = report.ranked.front().config.name();
  r.wall_ns = ns_since(t0);
  return r;
}

// Gates one fresh result against `<baseline_dir>/BENCH_<name>.json`.
// Returns true when the gate passes.
bool check_section(const bench::BenchResult& result,
                   const std::string& baseline_dir) {
  const std::string path = baseline_dir + "/BENCH_" + result.name + ".json";
  json::Value baseline;
  try {
    baseline = bench::load_json_file(path);
  } catch (const std::exception& e) {
    std::printf("  %-14s FAIL: no baseline (%s)\n", result.name.c_str(),
                e.what());
    std::printf("    run with --bless to establish one\n");
    return false;
  }
  bench::CheckReport report;
  try {
    report = bench::check_bench(baseline, bench::to_json(result));
  } catch (const std::exception& e) {
    std::printf("  %-14s FAIL: %s\n", result.name.c_str(), e.what());
    return false;
  }
  std::printf("  %-14s %s\n", result.name.c_str(),
              report.ok() ? "ok" : "REGRESSION");
  const std::string detail = bench::format_check_report(report);
  if (!report.ok() || !report.drifts.empty() || !report.added.empty()) {
    std::fputs(detail.c_str(), stdout);
  }
  return report.ok();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsp;
  bench::header("Machine-readable benchmark report (BENCH_*.json)",
                "all paper figures; schema wsp-bench-v1");
  const std::string outdir = bench::parse_string_flag(argc, argv, "--outdir", ".");
  const std::string only = bench::parse_string_flag(argc, argv, "--only");
  const bool with_explore = bench::parse_bool_flag(argc, argv, "--with-explore");
  const bool check = bench::parse_bool_flag(argc, argv, "--check");
  const bool bless = bench::parse_bool_flag(argc, argv, "--bless");
#ifndef WSP_BASELINE_DIR
#define WSP_BASELINE_DIR "bench/baselines"
#endif
  const std::string baseline_dir =
      bench::parse_string_flag(argc, argv, "--baseline-dir", WSP_BASELINE_DIR);
  const unsigned threads =
      bench::parse_threads(argc, argv, ThreadPool::hardware_threads());
  const std::string trace_path = bench::maybe_start_trace(argc, argv);
  // Plain emission leaves a replay trace next to the JSON; the gate modes
  // only measure and compare.
  g_replay_trace_dir = (check || bless) ? "" : outdir;

  struct Section {
    const char* name;
    bench::BenchResult (*run)();
  };
  const Section sections[] = {
      {"fig1", run_fig1},   {"table1", run_table1}, {"fig4", run_fig4},
      {"fig5", run_fig5},   {"fig6", run_fig6},     {"fig8", run_fig8},
      {"server", run_server}, {"scenario", run_scenario_section},
  };

  std::vector<bench::BenchResult> results;
  for (const Section& s : sections) {
    if (!only.empty() && only != s.name) continue;
    std::printf("  running %-14s ...", s.name);
    std::fflush(stdout);
    results.push_back(s.run());
    std::printf(" %8.1f ms, %2zu metrics\n",
                static_cast<double>(results.back().wall_ns) / 1e6,
                results.back().cycles.size());
  }
  if (with_explore && (only.empty() || only == "sec43_explore")) {
    std::printf("  running %-14s ...", "sec43_explore");
    std::fflush(stdout);
    results.push_back(run_explore(threads));
    std::printf(" %8.1f ms, %2zu metrics\n",
                static_cast<double>(results.back().wall_ns) / 1e6,
                results.back().cycles.size());
  }

  int failures = 0;
  if (bless) {
    // Accept the current numbers as the new perf-trajectory baseline.
    for (const auto& r : results) {
      const std::string path = bench::write_bench_json(r, baseline_dir);
      if (path.empty()) {
        std::fprintf(stderr, "FAILED to bless %s/BENCH_%s.json\n",
                     baseline_dir.c_str(), r.name.c_str());
        ++failures;
      } else {
        std::printf("  blessed %s\n", path.c_str());
      }
    }
  } else if (check) {
    std::printf("\ngating against %s:\n", baseline_dir.c_str());
    for (const auto& r : results) {
      if (!check_section(r, baseline_dir)) ++failures;
    }
    if (failures > 0) {
      std::fprintf(stderr,
                   "\nbench_report --check: %d section(s) regressed; run "
                   "`bench_report --bless` to accept intentional changes\n",
                   failures);
    }
  } else {
    for (const auto& r : results) {
      const std::string path = bench::write_bench_json(r, outdir);
      if (path.empty()) {
        std::fprintf(stderr, "FAILED to write BENCH_%s.json\n", r.name.c_str());
        ++failures;
      } else {
        std::printf("  wrote %s\n", path.c_str());
      }
    }
  }
  bench::maybe_finish_trace(trace_path);
  return failures == 0 ? 0 : 1;
}
