// wsp::server::AdmissionModel — the engine's virtual-time admission stage
// (DESIGN.md §8).  It owns the traffic generator, the per-phase fault
// plans, the platform pricing, one FIFO service unit per shard with a
// bounded waiting room, degrade hysteresis and the latency ledger.  It is
// pure and runs no threads, so every drop, admission and virtual-timeline
// report field is the same whether or not sessions execute, and for any
// --threads.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "server/engine.h"
#include "server/faults.h"
#include "server/session.h"
#include "server/traffic.h"

namespace wsp::server {

/// One admitted arrival: the session to run and how the data plane runs it.
struct Admission {
  SessionConfig session;  ///< id, cipher, sizes, seed and fault schedule
  unsigned shard = 0;
  bool resume = false;            ///< abbreviated handshake
  unsigned handshake_budget = 0;  ///< failed handshakes retried
  std::size_t batch = 0;  ///< records per pump quantum, halved while degraded
};

class AdmissionModel {
 public:
  /// `config` must be resolved (shards > 0), as Engine's constructor leaves
  /// it.  Throws std::invalid_argument on an invalid scenario.
  AdmissionModel(const EngineConfig& config, const TrafficScenario& scenario);

  /// The next arrival in virtual-time order, nullopt once the traffic is
  /// exhausted.  With checkpoint barriers armed it first snapshots the
  /// generator, so a barrier stores the state that re-draws this arrival.
  std::optional<SessionArrival> next();

  /// Offers `arrival` to its shard: nullopt when the waiting room is full
  /// (a drop), else its admission.
  std::optional<Admission> offer(const SessionArrival& arrival);

  /// The admission `arrival` gets under the current degrade state; offer()
  /// and the re-admission of a legacy parked session share it.
  Admission admission(const SessionArrival& arrival) const;

  /// Earliest armed crash deadline, engine-wide or in a phase (0 = none).
  double crash_at() const { return crash_at_; }

  /// The virtual-timeline fields: offered, admitted, dropped, shed, degrade
  /// entries, latency quantiles, makespan, peak depths, mean service and
  /// platform-equivalent cycles, and the per-shard admitted/dropped/peak.
  RunReport report() const;

  /// Write this stage's fields of a checkpoint, or read them back (and
  /// rewind the generator to the stored pre-draw state).  Both go through
  /// map_checkpoint, the one field map.  restore() throws std::logic_error
  /// when the checkpoint does not fit this run (checkpoint_misfit).
  void capture(EngineCheckpoint& cp) const;
  void restore(const EngineCheckpoint& cp);

 private:
  struct VirtualShard {
    std::vector<double> completions;  ///< scheduled completion times, FIFO
    double busy_until = 0.0;
  };

  template <class Model, class Checkpoint, class Copy>
  static void map_checkpoint(Model& m, Checkpoint& cp, Copy copy);

  EngineConfig config_;
  std::size_t record_bytes_ = 0;
  ssl::PlatformCosts price_, base_, opt_;
  std::vector<TrafficPhase> phases_;
  std::vector<double> phase_means_;     ///< mean service cycles per phase
  std::vector<FaultPlan> phase_plans_;  ///< overlay or engine-wide faults
  double crash_at_ = 0.0;
  bool snapshot_ = false;  ///< keep pre_draw_ (checkpoint barriers armed)

  TrafficGenerator gen_;
  TrafficGeneratorState pre_draw_;
  RunReport rep_;  ///< the counters report() hands out
  std::vector<VirtualShard> vq_;
  std::vector<double> latencies_;  ///< admission order
  bool degraded_ = false;
};

}  // namespace wsp::server
