// The paper's four-phase design flow as the design_flow workload runs it:
// ISS characterization -> Sec. 4.3 exploration -> A-D curves -> selection,
// then ISS cross-validation of the estimates.  Shared by the end-to-end
// workload (full size) and the traced run of the other workloads (a reduced
// probe size, so every traced run reports the method layers).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "explore/space.h"
#include "kernels/modexp_kernel.h"
#include "kernels/mpn_kernels.h"
#include "macromodel/models.h"
#include "select/select.h"
#include "tie/adcurve.h"
#include "tie/candidates.h"

namespace perfbench {

struct FlowParams {
  std::size_t rsa_bits = 1024;
  std::vector<std::size_t> sizes;  ///< characterization operand sizes (limbs)
  int reps_per_size = 3;
  int repetitions = 2;         ///< private-key operations per estimate
  std::size_t ad_limbs = 16;   ///< A-D curve operand size (512-bit CRT half)
};

/// The design_flow workload: RSA-1024, the full characterization grid.
FlowParams full_flow_params();
/// The reduced flow other workloads' traced runs use for the method layers.
FlowParams probe_flow_params();

/// Everything the flow needs before it starts (the workload's set-up).
struct FlowSetup {
  std::unique_ptr<wsp::kernels::Machine> machine;    ///< mpn + modexp kernels
  std::unique_ptr<wsp::kernels::Machine> machine16;  ///< radix-16 mpn kernels
  wsp::explore::RsaWorkload workload;
  std::vector<wsp::tie::RoutineCandidates> candidates;
  wsp::tie::InstrCatalog catalog;
  std::uint64_t seed = 0;
};

/// Builds the ISS machines and the seeded RSA workload.  Spans (when on):
/// kernels.machine_build per machine, crypto.rsa_workload.
FlowSetup make_flow_setup(const FlowParams& params, std::uint64_t seed);

struct FlowOutput {
  wsp::macromodel::MacroModelSet models;
  wsp::explore::ExplorationReport exploration;
  std::map<std::string, wsp::tie::ADCurve> curves;
  wsp::select::SelectionResult selection;
  wsp::explore::ValidationReport validation;
  std::uint64_t iss_cycles = 0;  ///< simulated cycles of the ISS-bound calls
  std::uint64_t iss_instrs = 0;
  double iss_s = 0.0;            ///< host time of the ISS-bound calls
  double explore_s = 0.0;        ///< wall time of the exploration sweep
  double explore_cpu_s = 0.0;    ///< CPU time of the exploration sweep
  double wall_s = 0.0;
};

/// Runs the four phases plus validation.  Spans (when on): one per phase —
/// macromodel.characterize, explore.explore, tie.adcurves, sim.profile,
/// select.select, explore.validate.
FlowOutput run_flow(FlowSetup& setup, const FlowParams& params,
                    unsigned threads);

/// Output checks of one flow: complete ranking, A-D curves, a selection
/// within budget, and validation points with finite error.
bool check_flow(const FlowOutput& out, RunResult& result);

/// True when two rankings name the same configurations in the same order
/// with bit-identical estimates.
bool same_ranking(const wsp::explore::ExplorationReport& a,
                  const std::vector<wsp::explore::ConfigEstimate>& b);

/// Per-layer numbers of the method modules from one traced flow plus a
/// serial estimate_config pass over every configuration.
struct FlowLayers {
  double flow_untraced_s = 0.0;
  double flow_traced_s = 0.0;
  FlowOutput traced;
  std::uint64_t hook_events = 0;      ///< macro-model hook events, all configs
};

/// Traced method-layer pass: one untraced and one traced flow on `setup`,
/// then a serial estimate_config pass (spans explore.estimate_config) whose
/// ranking must equal the parallel one.
FlowLayers trace_flow_layers(FlowSetup& setup, const FlowParams& params,
                             unsigned threads, RunResult& result);

}  // namespace perfbench
