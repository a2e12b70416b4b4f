// design_flow: the paper's four phases on RSA-1024 over the full 450-config
// space, with ISS cross-validation.  No server code runs.
#include <cmath>

#include "flow.h"
#include "macromodel/characterize.h"
#include "mp/prime.h"
#include "select/callgraph.h"
#include "spans.h"
#include "tie/characterize.h"

namespace perfbench {

using namespace wsp;

namespace {
/// Custom-instruction area budget of the selection phase (grids), as in the
/// design-flow example.
constexpr double kAreaBudget = 40000.0;
}  // namespace

FlowParams full_flow_params() {
  FlowParams p;
  p.sizes = macromodel::CharacterizeOptions{}.sizes;
  return p;
}

FlowParams probe_flow_params() {
  FlowParams p;
  p.rsa_bits = 512;
  p.sizes = {2, 4, 8, 12, 16};
  p.reps_per_size = 1;
  p.repetitions = 1;
  p.ad_limbs = 8;
  return p;
}

FlowSetup make_flow_setup(const FlowParams& params, std::uint64_t seed) {
  FlowSetup s;
  s.seed = seed;
  {
    ScopedSpan span("kernels.machine_build");
    // new-expression, not make_unique: a Machine must not be moved (its CPU
    // refers into its own program), and a prvalue initializer is elided.
    s.machine.reset(new kernels::Machine(kernels::make_modexp_machine()));
  }
  {
    ScopedSpan span("kernels.machine_build");
    s.machine16.reset(new kernels::Machine(kernels::make_mpn16_machine()));
  }
  {
    ScopedSpan span("crypto.rsa_workload");
    Rng rng(mix_seed(seed, 101));
    s.workload = explore::make_rsa_workload(params.rsa_bits, rng);
    s.workload.repetitions = params.repetitions;
  }
  s.candidates = tie::mpn_routine_candidates();
  s.catalog = tie::default_catalog();
  return s;
}

FlowOutput run_flow(FlowSetup& setup, const FlowParams& params,
                    unsigned threads) {
  FlowOutput out;
  sim::Cpu& cpu32 = setup.machine->cpu();
  sim::Cpu& cpu16 = setup.machine16->cpu();
  // Cycles and host time of one ISS-bound call, accumulated into `out`.
  auto iss = [&out](sim::Cpu& cpu, auto&& call) {
    const std::uint64_t c0 = cpu.cycles(), i0 = cpu.instret();
    const double t0 = now_s();
    call();
    out.iss_s += now_s() - t0;
    out.iss_cycles += cpu.cycles() - c0;
    out.iss_instrs += cpu.instret() - i0;
  };
  const double t_flow = now_s();

  // (i) characterization on the ISS -> macro-models.
  {
    ScopedSpan span("macromodel.characterize");
    macromodel::CharacterizeOptions copt;
    copt.sizes = params.sizes;
    copt.reps_per_size = params.reps_per_size;
    copt.seed = mix_seed(setup.seed, 102);
    const std::uint64_t c16 = cpu16.cycles(), i16 = cpu16.instret();
    iss(cpu32, [&] {
      out.models =
          macromodel::characterize_mpn_full(*setup.machine, *setup.machine16, copt);
    });
    out.iss_cycles += cpu16.cycles() - c16;
    out.iss_instrs += cpu16.instret() - i16;
  }

  // (ii) native exploration of all 450 configurations.
  {
    ScopedSpan span("explore.explore");
    const double c0 = cpu_now_s();
    out.exploration = explore::explore_modexp_space(
        setup.workload, out.models, all_modexp_configs(), threads);
    out.explore_cpu_s = cpu_now_s() - c0;
    out.explore_s = out.exploration.wall_seconds;
  }

  // (iii) measured A-D curves of the mpn leaf routines.
  {
    ScopedSpan span("tie.adcurves");
    tie::AdMeasureOptions aopt;
    aopt.limbs = params.ad_limbs;
    aopt.threads = threads;
    aopt.seed = mix_seed(setup.seed, 103);
    out.curves = tie::measure_mpn_adcurves(setup.candidates, aopt);
  }

  // (iv) global selection on the profiled mont_mul call graph.
  select::CallGraph graph;
  {
    ScopedSpan span("sim.profile");
    cpu32.reset_stats();
    Rng rng(mix_seed(setup.seed, 104));
    Mpz mod = random_bits(params.ad_limbs * 32, rng);
    if (mod.is_even()) mod = mod + Mpz(1);
    kernels::IssModexp mx(*setup.machine);
    iss(cpu32, [&] {
      mx.mont_mul_once(random_below(mod, rng), random_below(mod, rng), mod);
    });
    graph = select::CallGraph::from_profiler(cpu32.profiler(), "mont_mul");
  }
  {
    ScopedSpan span("select.select");
    out.selection = select::select_instructions(graph, "mont_mul", out.curves,
                                                setup.catalog, kAreaBudget);
  }

  // Cross-validation of the estimates against the ISS.
  {
    ScopedSpan span("explore.validate");
    iss(cpu32, [&] {
      out.validation =
          explore::validate_estimates(*setup.machine, setup.workload, out.models);
    });
    out.iss_s -= out.validation.estimate_wall_seconds;  // native part
  }
  out.wall_s = now_s() - t_flow;
  return out;
}

bool check_flow(const FlowOutput& out, RunResult& result) {
  bool ok = result.check(out.exploration.ranked.size() == all_modexp_configs().size(),
                         "exploration did not rank every configuration");
  ok = result.check(!out.curves.empty(), "no A-D curves measured") && ok;
  ok = result.check(out.selection.chosen.cycles > 0.0 &&
                        out.selection.chosen.area <= out.selection.area_budget,
                    "selection outside its area budget") &&
       ok;
  bool finite = !out.validation.points.empty();
  for (const auto& p : out.validation.points) {
    finite = finite && std::isfinite(p.error_pct) && p.measured_cycles > 0.0;
  }
  ok = result.check(finite, "ISS validation points missing or not finite") && ok;
  ok = result.check(out.iss_cycles > 0, "no simulated cycles") && ok;
  return ok;
}

bool same_ranking(const explore::ExplorationReport& a,
                  const std::vector<explore::ConfigEstimate>& b) {
  if (a.ranked.size() != b.size()) return false;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (a.ranked[i].config.name() != b[i].config.name() ||
        a.ranked[i].estimate.avg_cycles != b[i].estimate.avg_cycles) {
      return false;
    }
  }
  return true;
}

namespace {

/// Flow outputs that must repeat exactly between flows of one run.
bool same_flow(const FlowOutput& a, const FlowOutput& b) {
  if (a.iss_cycles != b.iss_cycles || a.iss_instrs != b.iss_instrs) return false;
  if (!same_ranking(a.exploration, b.exploration.ranked)) return false;
  if (a.validation.points.size() != b.validation.points.size()) return false;
  for (std::size_t i = 0; i < a.validation.points.size(); ++i) {
    if (a.validation.points[i].measured_cycles !=
        b.validation.points[i].measured_cycles) {
      return false;
    }
  }
  return a.selection.chosen.cycles == b.selection.chosen.cycles &&
         a.selection.chosen.instrs == b.selection.chosen.instrs;
}

std::uint64_t flow_operations(const FlowOutput& out) {
  return out.exploration.ranked.size() + out.validation.points.size();
}

}  // namespace

RunResult run_design_flow(const Options& opt) {
  RunResult r;
  const FlowParams params = full_flow_params();

  // Set-up, five times: ISS machine assembly and a seeded RSA workload.
  // Key generation time depends on where the primes fall, so each repeat
  // draws its own key and the median does not hinge on one seed; the flow
  // runs on the first.
  std::vector<double> setups;
  FlowSetup setup;
  for (int i = 0; i < 5; ++i) {
    const double t0 = cpu_now_s();
    FlowSetup s = make_flow_setup(params, i == 0 ? opt.seed : mix_seed(opt.seed, 500 + i));
    setups.push_back(cpu_now_s() - t0);
    if (i == 0) setup = std::move(s);
  }

  // Whole flows while they fit in the measuring window (at least one).
  std::vector<double> cpus, walls;
  double configs = 0.0, explore_cpu_s = 0.0;
  FlowOutput first;
  double rss = 0.0;
  const double t_start = now_s();
  for (int i = 0;; ++i) {
    const double c0 = cpu_now_s();
    FlowOutput out = run_flow(setup, params, opt.threads);
    cpus.push_back(cpu_now_s() - c0);
    walls.push_back(out.wall_s);
    configs += static_cast<double>(out.exploration.ranked.size());
    explore_cpu_s += out.explore_cpu_s;
    bool ok = check_flow(out, r);
    if (i > 0) {
      ok = r.check(same_flow(first, out),
                   "flow outputs differ between repetitions") && ok;
    }
    r.attempted += flow_operations(out);
    if (!ok) r.failed += flow_operations(out);
    if (i == 0) {
      first = std::move(out);
      rss = peak_rss_mib();  // high-water of set-up plus the first flow
    }
    const double elapsed = now_s() - t_start;
    if (elapsed + median(walls) > opt.seconds) break;
  }

  // The parallel ranking must equal a serial one.
  const auto serial = explore::explore_modexp_space(
      setup.workload, first.models, all_modexp_configs(), 1);
  r.attempted += serial.ranked.size();
  if (!r.check(same_ranking(first.exploration, serial.ranked),
               "parallel ranking differs from the serial ranking")) {
    r.failed += serial.ranked.size();
  }

  r.put("throughput_per_cpu_s", configs / explore_cpu_s, "1/s");
  r.put("op_cpu_s", median(cpus), "s");
  r.put("setup_s", median(setups), "s");
  r.put("peak_rss_mib", rss, "MiB");
  return r;
}

FlowLayers trace_flow_layers(FlowSetup& setup, const FlowParams& params,
                             unsigned threads, RunResult& result) {
  FlowLayers L;
  SpanRecorder& rec = SpanRecorder::instance();
  const bool was_on = rec.enabled();

  rec.set_enabled(false);
  const FlowOutput untraced = run_flow(setup, params, threads);
  L.flow_untraced_s = untraced.wall_s;
  rec.set_enabled(was_on);
  L.traced = run_flow(setup, params, threads);
  L.flow_traced_s = L.traced.wall_s;
  bool ok = check_flow(L.traced, result);
  ok = result.check(same_flow(untraced, L.traced),
                    "traced flow differs from the untraced flow") && ok;

  // Serial per-configuration estimates: latency distribution, hook event
  // count, and the serial ranking the parallel sweep must reproduce.
  std::vector<explore::ConfigEstimate> serial;
  for (const ModexpConfig& cfg : all_modexp_configs()) {
    explore::Estimate est;
    {
      ScopedSpan span("explore.estimate_config");
      est = explore::estimate_config(cfg, setup.workload, L.traced.models);
    }
    L.hook_events += est.events;
    serial.push_back(explore::ConfigEstimate{cfg, est});
  }
  std::stable_sort(serial.begin(), serial.end(),
                   [](const explore::ConfigEstimate& a,
                      const explore::ConfigEstimate& b) {
                     return a.estimate.avg_cycles < b.estimate.avg_cycles;
                   });
  ok = result.check(same_ranking(L.traced.exploration, serial),
                    "parallel ranking differs from the serial ranking") && ok;
  const std::uint64_t ops = 2 * flow_operations(L.traced) + serial.size();
  result.attempted += ops;
  if (!ok) result.failed += ops;
  return L;
}

}  // namespace perfbench
