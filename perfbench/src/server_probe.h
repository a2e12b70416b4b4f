// Server-side pieces shared by the workloads and the traced run: the pinned
// scenario/config of each server workload, the traced session replay and the
// record/checkpoint codec probe.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "server/engine.h"
#include "spans.h"

namespace perfbench {

/// One server workload's pinned shape.  `scenario.seed` is set per
/// repetition from the workload seed.
struct ServerSpec {
  wsp::server::EngineConfig config;
  wsp::server::TrafficScenario scenario;
  std::size_t warmup_sessions = 0;  ///< set-up warm-up run size
};

/// The exponentiation configuration Engine::run gives the server side of
/// every full handshake (the explored optimum).
wsp::ModexpConfig server_modexp_config();

ServerSpec fig8_spec(unsigned threads);
ServerSpec resume_spec(unsigned threads);
ServerSpec chaos_spec(unsigned threads);

/// Virtual-cycle interval that gives roughly `barriers` checkpoint barriers
/// over the scenario's modeled makespan.
double checkpoint_interval(const ServerSpec& spec, unsigned barriers);

/// Per-layer numbers of the server data plane, from the traced replay.
struct PlaneLayers {
  double untraced_wall_s = 0.0;  ///< replay wall with spans off
  double traced_wall_s = 0.0;    ///< replay wall with spans on
  double engine_wall_s = 0.0;    ///< untraced Engine::run on the same input
  std::map<std::string, SpanStats> spans;  ///< from the traced pass
  wsp::server::RunReport engine_report;    ///< the untraced Engine::run
};

/// Runs `scenario` through Engine::run (record_events on), then re-executes
/// exactly the admitted sessions through the layers' public APIs —
/// TrafficGenerator, SessionTable, RecordScheduler, Session — twice: once
/// with spans off and once with spans on.  Every session outcome of both
/// passes is checked against the engine's event stream.
PlaneLayers drive_server_layers(const wsp::server::TrafficScenario& scenario,
                                 const wsp::server::EngineConfig& config,
                                 RunResult& result,
                                 std::vector<SpanRecord>& all_spans);

/// Serial Session::handshake / resume / pump probe over the scenario's
/// cipher and size grid (spans on); used for whichever of the three the
/// workload's own sessions do not exercise.
std::map<std::string, SpanStats> session_probe(
    const wsp::server::TrafficScenario& scenario, std::size_t rsa_bits,
    std::uint64_t seed, RunResult& result, std::vector<SpanRecord>& all_spans);

/// Record/checkpoint codec numbers for one recorded run.
struct CodecLayers {
  double barrier_s = 0.0;  ///< run wall with the checkpoint sink minus without
  std::map<std::string, SpanStats> spans;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t record_bytes = 0;  ///< encoded RunRecord size
};

/// Records `scenario` with checkpoint barriers, then times the codec's
/// public functions on the result (spans on): encode/decode/validate of
/// every checkpoint, encode/decode of the run record, the resume scan of a
/// torn copy and resume_run.  Outputs are checked round-trip.
CodecLayers probe_codec(const wsp::server::TrafficScenario& scenario,
                        const wsp::server::EngineConfig& config,
                        RunResult& result, std::vector<SpanRecord>& all_spans);

/// One line: how the replay's session time splits between handshake,
/// record pump (the ssl record layer and its ciphers) and the rest.
std::string session_time_split(const PlaneLayers& d);

/// Per-layer values of the server modules (trace.overhead_frac included).
void server_layer_values(const PlaneLayers& d,
                         const std::map<std::string, SpanStats>& session_probe,
                         const CodecLayers& c, unsigned threads,
                         std::map<std::string, double>& values);

}  // namespace perfbench
