// Shared glue between the secure-session server engine and the wsp-bench-v1
// artifact layer: canonical scenarios (the Fig. 8 grid under steady load,
// over-admission, and a closed-loop population) and the RunReport ->
// BenchResult metric mapping used by bench_server, bench_report and the
// schema tests.
#pragma once

#include <string>
#include <type_traits>
#include <vector>

#include "bench_util.h"
#include "server/engine.h"

namespace wsp::bench {

/// Steady open-loop load: ~60% of modeled capacity, full Fig. 8 mix.
inline server::TrafficScenario steady_scenario(std::uint64_t seed,
                                               std::size_t sessions) {
  server::TrafficScenario s;
  s.seed = seed;
  s.sessions = sessions;
  s.model = server::ArrivalModel::kOpenLoop;
  s.offered_load = 0.6;
  return s;
}

/// Sustained over-admission: 2.5x capacity — must produce drops while the
/// bounded waiting room keeps latency and queue depth finite.
inline server::TrafficScenario overload_scenario(std::uint64_t seed,
                                                 std::size_t sessions) {
  server::TrafficScenario s;
  s.seed = seed;
  s.sessions = sessions;
  s.model = server::ArrivalModel::kOpenLoop;
  s.offered_load = 2.5;
  return s;
}

/// Closed loop: a fixed population of users, think time ~ half a mean
/// service interval.
inline server::TrafficScenario closed_scenario(std::uint64_t seed,
                                               std::size_t sessions,
                                               unsigned users) {
  server::TrafficScenario s;
  s.seed = seed;
  s.sessions = sessions;
  s.model = server::ArrivalModel::kClosedLoop;
  s.users = users;
  s.think_cycles = 6e6;
  return s;
}

/// Chaos run traffic: steady load so every recovery outcome is attributable
/// to injected faults, not over-admission.
inline server::TrafficScenario chaos_scenario(std::uint64_t seed,
                                              std::size_t sessions) {
  server::TrafficScenario s;
  s.seed = seed;
  s.sessions = sessions;
  s.model = server::ArrivalModel::kOpenLoop;
  s.offered_load = 0.8;
  return s;
}

/// Scale run traffic: the million-session regime (docs/server.md).  Sessions
/// resume from tickets instead of doing fresh RSA handshakes — that is what
/// makes 10^5..10^6 sessions per run tractable — and stream short RC4
/// records, so the run measures data-plane capacity (table, rings, channel
/// setup), not modexp throughput.
inline server::TrafficScenario scale_scenario(std::uint64_t seed,
                                              std::size_t sessions) {
  server::TrafficScenario s;
  s.seed = seed;
  s.sessions = sessions;
  s.model = server::ArrivalModel::kOpenLoop;
  s.offered_load = 1.2;  // mild over-admission: the table must churn
  s.resume_sessions = true;
  s.ciphers = {ssl::Cipher::kRc4};
  s.transaction_sizes = {256, 512};
  s.record_bytes = 256;
  return s;
}

/// CBC record traffic (docs/server.md): resumed sessions so the wall time
/// is the record ciphers rather than RSA, an AES/3DES-only mix, and many
/// records per session.
inline server::TrafficScenario batch_scenario(std::uint64_t seed,
                                              std::size_t sessions) {
  server::TrafficScenario s;
  s.seed = seed;
  s.sessions = sessions;
  s.model = server::ArrivalModel::kOpenLoop;
  s.offered_load = 0.9;
  s.resume_sessions = true;
  s.ciphers = {ssl::Cipher::kTripleDesCbc, ssl::Cipher::kAes128Cbc};
  s.transaction_sizes = {4096, 8192};
  s.record_bytes = 512;
  return s;
}

/// Engine shape for the batch run: pinned shards and roomy rings so
/// admission is load-model-driven.
inline server::EngineConfig batch_config(unsigned threads) {
  server::EngineConfig cfg;
  cfg.threads = threads;
  cfg.shards = 4;
  cfg.queue_capacity = 256;
  cfg.record_batch = 16;
  return cfg;
}

/// Engine shape for the scale run: shard count pinned (determinism is per
/// shard count), deep per-shard rings so arrivals stay on the lock-free
/// path, and large record batches to amortize pump dispatch.
inline server::EngineConfig scale_config(unsigned threads) {
  server::EngineConfig cfg;
  cfg.threads = threads;
  cfg.shards = 8;
  cfg.queue_capacity = 32768;
  cfg.record_batch = 32;
  return cfg;
}

/// Canonical chaos fault mix (docs/faults.md): 1-10% rates across the four
/// fault classes.  Non-aborted sessions must still complete, and the
/// RunReport must stay bit-identical for any --threads.
inline server::FaultConfig chaos_fault_config() {
  server::FaultConfig f;
  f.wire_flip_rate = 0.05;
  f.handshake_failure_rate = 0.05;
  f.abort_rate = 0.03;
  f.stall_rate = 0.05;
  return f;
}

/// Flattens the deterministic part of a RunReport into `r.cycles` under
/// `prefix` ("steady/", "overload/", ...): every scalar of the report's
/// field list (server/engine.h), keyed by its list name, plus the leak
/// invariant.  Host-dependent fields (wall time, backpressure waits, real
/// queue peaks) are not listed, so every metric written here is
/// byte-identical run-to-run and thread-count-to-thread-count.
inline void append_server_metrics(BenchResult& r, const std::string& prefix,
                                  const server::RunReport& rep) {
  server::RunReport::for_each_field(
      [&](const char* key, const auto& value) {
        if constexpr (std::is_arithmetic_v<
                          std::remove_cvref_t<decltype(value)>>) {
          r.cycles[prefix + key] = static_cast<double>(value);
        }
      },
      rep);
  // The leak invariant as a gated metric: admitted - completed - aborted
  // must be exactly 0, and the regression gate (docs/benchmarks.md) treats
  // any nonzero value — in any scenario — as a hard failure.
  r.cycles[prefix + "leaked"] = static_cast<double>(rep.admitted) -
                                static_cast<double>(rep.completed) -
                                static_cast<double>(rep.aborted);
}

}  // namespace wsp::bench
