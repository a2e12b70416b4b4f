// Deterministic, seeded traffic generation for the secure-session engine.
//
// Two arrival models, both driven entirely by one seeded Rng and the
// engine's *virtual* clock (platform cycles), so the offered stream — ids,
// arrival times, cipher/size mix, per-session seeds — is bit-identical for
// a fixed scenario regardless of worker-thread count or host speed:
//
//   * open loop:   sessions arrive with exponential inter-arrival times at
//     `offered_load` times the modeled aggregate service capacity;
//     arrivals never wait for completions (the overload knob: load > 1
//     must produce drops);
//   * closed loop: a fixed population of `users`, each issuing its next
//     session when the previous one completes (plus exponential think
//     time) — the classic benchmark-client shape.
//
// A scenario is a PROGRAM: a list of phases executed back to back on the
// virtual clock, each with its own arrival model, load/population,
// WEIGHTED cipher×size mix, resumption fraction and optional fault overlay
// (usually compiled from a .wsp file: src/scenario, docs/scenarios.md).  A
// FLAT scenario — one parameter set over a cipher×size grid, by default
// the Fig. 8 measurement grid (1KB..32KB × the three record ciphers) — is
// not a second arrival path: TrafficScenario::program() lowers it to one
// phase with unit weights, a resume fraction of 0 or 1 and no fault
// overlay.  Per arrival the generator draws, in this fixed order: arrival
// time, cipher, size, session seed, and — only when the phase's
// resume_fraction is strictly between 0 and 1 — the resume coin.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "server/faults.h"
#include "ssl/ssl.h"
#include "support/random.h"

namespace wsp::server {

enum class ArrivalModel { kOpenLoop, kClosedLoop };

/// One weighted entry of a phase's cipher mix.  Weights are relative
/// (integers >= 1); unit weights draw uniformly, like a flat grid.
struct CipherMix {
  ssl::Cipher cipher = ssl::Cipher::kRc4;
  std::uint32_t weight = 1;

  /// kScenario wire order (server/field_codec.h); see
  /// SessionEvent::for_each_field (engine.h) for the protocol.
  template <class F, class... S>
  static void for_each_field(F&& f, S&... s) {
    f("cipher", s.cipher...);
    f("weight", s.weight...);
  }
};

/// One weighted entry of a phase's transaction-size mix.
struct SizeMix {
  std::size_t bytes = 0;
  std::uint32_t weight = 1;

  template <class F, class... S>
  static void for_each_field(F&& f, S&... s) {
    f("bytes", s.bytes...);
    f("weight", s.weight...);
  }
};

/// One phase of a traffic program: `sessions` arrivals under one parameter
/// set.  Compiled from a .wsp `phase` block (src/scenario/sema.cpp), which
/// fills every field; hand-built phases must satisfy
/// TrafficScenario::validate().
struct TrafficPhase {
  std::string name;           ///< diagnostic label ("flash", "night", ...)
  std::size_t sessions = 0;   ///< arrivals this phase offers (> 0)
  ArrivalModel model = ArrivalModel::kOpenLoop;
  double offered_load = 0.6;  ///< open loop, fraction of modeled capacity
  unsigned users = 8;         ///< closed loop population
  double think_cycles = 0.0;  ///< closed loop mean think time
  /// Fraction of this phase's sessions that resume with cached credentials
  /// (abbreviated handshake, resumed pricing).  0 = all full handshakes,
  /// 1 = all resumed; in between, a per-arrival deterministic coin.
  double resume_fraction = 0.0;
  std::vector<CipherMix> cipher_mix;
  std::vector<SizeMix> size_mix;
  /// Overrides the engine's FaultConfig for sessions arriving in this phase
  /// (rekey storms, adversarial floods); nullopt inherits the engine's.
  std::optional<FaultConfig> faults;

  template <class F, class... S>
  static void for_each_field(F&& f, S&... s) {
    f("name", s.name...);
    f("sessions", s.sessions...);
    f("model", s.model...);
    f("offered_load", s.offered_load...);
    f("users", s.users...);
    f("think_cycles", s.think_cycles...);
    f("resume_fraction", s.resume_fraction...);
    f("cipher_mix", s.cipher_mix...);
    f("size_mix", s.size_mix...);
    f("faults", s.faults...);
  }
};

struct TrafficScenario {
  std::uint64_t seed = 1;
  std::size_t sessions = 64;  ///< total arrivals to offer (flat scenarios)
  ArrivalModel model = ArrivalModel::kOpenLoop;

  // Open loop: offered load as a fraction of modeled service capacity
  // (shards x 1 session-cycle per cycle).  > 1.0 over-admits.
  double offered_load = 0.6;

  // Closed loop: concurrent user population and mean think time.
  unsigned users = 8;
  double think_cycles = 0.0;

  // Session mix (uniform draw per arrival).
  std::vector<ssl::Cipher> ciphers = {ssl::Cipher::kTripleDesCbc,
                                      ssl::Cipher::kAes128Cbc,
                                      ssl::Cipher::kRc4};
  std::vector<std::size_t> transaction_sizes = {1024, 2048, 4096,
                                                8192, 16384, 32768};
  std::size_t record_bytes = 1024;

  /// Sessions reconnect with cached credentials: the engine runs the
  /// abbreviated resumption handshake (Session::resume — no RSA) and
  /// prices sessions with ssl::resumed_transaction_cost.  This is the
  /// million-session regime, where key exchange is amortized across
  /// reconnects and record-layer throughput dominates.
  bool resume_sessions = false;

  /// Non-empty = this scenario is a traffic PROGRAM: the flat fields above
  /// (except seed and record_bytes) are ignored and the phases execute back
  /// to back.  Usually produced by the .wsp compiler (scenario::compile).
  std::vector<TrafficPhase> phases;

  /// The one lowering: `phases` when non-empty, else the flat fields as one
  /// phase — `ciphers`/`transaction_sizes` as unit-weight mixes,
  /// `resume_sessions` as a resume fraction of 0 or 1, no fault overlay.
  /// Everything downstream (validation, generator, engine, resume checks)
  /// works on this list.
  std::vector<TrafficPhase> program() const;

  /// Total arrivals the scenario offers (the sum over program()).
  std::size_t total_sessions() const;

  /// Rejects degenerate scenarios with std::invalid_argument: zero
  /// sessions, empty cipher/size grids or mixes, zero transaction sizes
  /// (in a program's ignored flat grid too), non-finite or non-positive
  /// offered_load, negative/non-finite think_cycles, zero users on a
  /// closed loop, resume fractions outside [0, 1], zero mix weights, bad
  /// fault overlays, zero record_bytes.  Engine::run calls this before
  /// touching any state; the trace readers (server/record.h) call it on
  /// every decoded scenario.
  void validate() const;

  /// kScenario wire order: wsp-replay-v1's flat layout (the first
  /// kV1Fields entries), then resume_sessions and phases, which records
  /// that predate them lack (a flat scenario without resumption).
  template <class F, class... S>
  static void for_each_field(F&& f, S&... s) {
    f("seed", s.seed...);
    f("sessions", s.sessions...);
    f("model", s.model...);
    f("offered_load", s.offered_load...);
    f("users", s.users...);
    f("think_cycles", s.think_cycles...);
    f("ciphers", s.ciphers...);
    f("transaction_sizes", s.transaction_sizes...);
    f("record_bytes", s.record_bytes...);
    // --- trailing fields ---
    f("resume_sessions", s.resume_sessions...);
    f("phases", s.phases...);
  }
  static constexpr std::size_t kV1Fields = 9;
};

struct SessionArrival {
  std::uint64_t id = 0;
  double at_cycles = 0.0;  ///< virtual arrival time
  unsigned user = 0;       ///< closed loop: issuing user
  ssl::Cipher cipher = ssl::Cipher::kRc4;
  std::size_t transaction_bytes = 0;
  std::uint64_t session_seed = 0;
  std::uint32_t phase = 0;  ///< index into scenario.program()
  /// Whether THIS session resumes: the phase's resume_fraction, possibly a
  /// per-arrival deterministic coin.
  bool resume = false;
};

/// The generator's full mutable state — Rng words, id/phase cursors, the
/// virtual-clock cursor and every pending closed-loop arrival.  The
/// generator runs on this struct itself; snapshotting it at a quiesce
/// barrier and restoring into a freshly constructed generator (same
/// scenario, same mean-service figures) resumes the arrival stream
/// bit-exactly.  The phase list and mean-service figures are fixed at
/// construction and are NOT part of the state.  Serialized into
/// kCheckpoint chunks (server/checkpoint.h, docs/recovery.md).
struct TrafficGeneratorState {
  Rng::State rng;
  std::uint64_t next_id = 0;
  double interarrival_mean = 0.0;
  double open_clock = 0.0;
  std::uint64_t phase_idx = 0;
  std::uint64_t phase_done = 0;
  bool phase_entered = false;
  /// Pending closed-loop arrivals as (ready time, user): a std::greater
  /// min-heap while the generator runs, ascending in a snapshot.  Pop order
  /// is a pure function of the multiset (ties break on the user index), and
  /// an ascending list is already a valid min-heap.
  std::vector<std::pair<double, unsigned>> ready;

  bool operator==(const TrafficGeneratorState&) const = default;

  /// kCheckpoint wire order; see SessionEvent::for_each_field.
  template <class F, class... S>
  static void for_each_field(F&& f, S&... s) {
    f("rng", s.rng...);
    f("next_id", s.next_id...);
    f("interarrival_mean", s.interarrival_mean...);
    f("open_clock", s.open_clock...);
    f("phase_idx", s.phase_idx...);
    f("phase_done", s.phase_done...);
    f("phase_entered", s.phase_entered...);
    f("ready", s.ready...);
  }
};

class TrafficGenerator {
 public:
  /// One pre-priced mean service figure per program phase (same order as
  /// scenario.program(); the engine computes them from each phase's
  /// weighted mix) and `service_units`, the number of shards: together they
  /// convert each phase's offered_load into an arrival rate.  Throws
  /// std::invalid_argument on an invalid scenario and std::logic_error on a
  /// length mismatch.
  TrafficGenerator(const TrafficScenario& scenario,
                   const std::vector<double>& phase_mean_service_cycles,
                   unsigned service_units);

  /// One-phase shorthand: `{mean_service_cycles}` for the only phase.
  TrafficGenerator(const TrafficScenario& scenario, double mean_service_cycles,
                   unsigned service_units)
      : TrafficGenerator(scenario, std::vector<double>{mean_service_cycles},
                         service_units) {}

  /// Next arrival in virtual-time order; nullopt once all arrivals have
  /// been offered (or, closed loop, no user has a pending arrival —
  /// report outcomes to keep the loop running).
  std::optional<SessionArrival> next();

  /// Closed-loop feedback: schedules the issuing user's next arrival at
  /// the session's virtual completion (or, for drops, at the arrival time
  /// itself) plus think time.  No-op for open-loop arrivals and for
  /// arrivals from an already-finished phase.
  void on_outcome(const SessionArrival& arrival, double completion_cycles,
                  bool dropped);

  /// Snapshot of everything next()/on_outcome() mutate, `ready` ascending
  /// (a canonical form: two snapshots of the same logical state compare
  /// equal byte for byte).  Taken BEFORE a next() call, a later restore()
  /// re-draws that same arrival first.
  TrafficGeneratorState state() const;

  /// Restores a snapshot taken from a generator built over the same
  /// scenario and mean-service figures (`ready` ascending, as state() and
  /// validate_checkpoint guarantee); the subsequent draw sequence is
  /// bit-identical to the original generator's.  Also reads the state that
  /// flat scenarios recorded before they ran as one-phase programs.
  void restore(const TrafficGeneratorState& state);

 private:
  double exp_draw(double mean);
  void enter_phase(std::size_t idx);
  template <class Mix>
  const Mix& pick_weighted(const std::vector<Mix>& mix);

  void push_ready(double at, unsigned user);

  std::vector<TrafficPhase> phases_;
  std::size_t total_sessions_ = 0;
  std::vector<double> phase_mean_service_;  ///< what sets the rates
  double service_units_ = 1.0;
  Rng rng_;  ///< draws; state() and restore() carry its words as st_.rng
  TrafficGeneratorState st_;  ///< everything else next()/on_outcome() mutate
};

}  // namespace wsp::server
