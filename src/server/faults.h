// Deterministic fault injection for the secure-session engine.
//
// A FaultPlan derives a per-session fault schedule — wire bit-flips on
// chosen records, failed key exchanges, unrecoverable mid-stream tampering,
// transient stalls — purely from (scenario seed, session id).  No shared
// mutable state, no host randomness: the same scenario seed produces the
// same chaos for any `--threads` value, which is what keeps the engine's
// determinism contract (docs/server.md, docs/faults.md) intact under
// injected failure.
//
// Fault taxonomy (docs/faults.md §1):
//   * wire bit-flip       — one bit of a sealed record is flipped in
//     transit; the receiver's MAC/padding check fails and the repair ladder
//     (retry → rekey → abort) engages.  A flipped transmission may recur
//     (`flip_attempts` in {1, 2}) before the wire goes clean.
//   * handshake failure   — the encrypted premaster is corrupted on the
//     wire for the first `handshake_failures` attempts; the engine retries
//     with bounded exponential backoff on the virtual timeline.
//   * unrecoverable record — from `abort_record` on, every transmission of
//     that record is corrupted; the session exhausts retry and rekey
//     budgets and aborts cleanly (models a peer gone hostile or dead).
//   * transient stall     — a one-off service-time inflation on the
//     virtual timeline (models a link-layer outage the session survives).
//   * process crash       — the whole engine is killed at a scheduled
//     virtual time (crash_at_cycles): run() unwinds with a CrashFault after
//     draining in-flight crypto work.  Recovery is the checkpoint/restore
//     path (docs/recovery.md), not the per-session repair ladder.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace wsp::server {

/// Why a session failed.  Carried by SessionError so the engine can account
/// recovery outcomes without string-matching exception text.
enum class SessionErrorKind {
  kHandshakeFailed,  ///< key exchange failed (corrupted premaster)
  kRecordTampered,   ///< a record failed verification and repair is ongoing
  kAborted,          ///< recovery budgets exhausted; session torn down
};

const char* to_string(SessionErrorKind kind);

/// Typed session failure: kind + owning session id + human-readable detail.
class SessionError : public std::runtime_error {
 public:
  SessionError(SessionErrorKind kind, std::uint64_t session_id,
               const std::string& detail);

  SessionErrorKind kind() const { return kind_; }
  std::uint64_t session_id() const { return session_id_; }

 private:
  SessionErrorKind kind_;
  std::uint64_t session_id_;
};

/// The simulated process kill (FaultConfig::crash_at_cycles).  Thrown by
/// Engine::run at the first arrival whose virtual time reaches the deadline,
/// after the scheduler has drained — so the unwind is clean, but the run is
/// simply GONE: no report, no end-of-stream chunk in the trace.  Callers
/// that armed the fault catch this; anyone else seeing it is a bug.
class CrashFault : public std::runtime_error {
 public:
  CrashFault(double at_cycles, double deadline_cycles);

  /// Virtual time the engine actually died at (first arrival >= deadline).
  double at_cycles() const { return at_cycles_; }
  /// The configured crash_at_cycles that triggered it.
  double deadline_cycles() const { return deadline_cycles_; }

 private:
  double at_cycles_;
  double deadline_cycles_;
};

/// Scenario-level fault model: rates are per-session (handshake/abort/
/// stall) or per-record (wire flips) probabilities in [0, 1]; budgets bound
/// the recovery machinery.  All-zero rates (the default) disable injection
/// entirely.
struct FaultConfig {
  double wire_flip_rate = 0.0;         ///< per-record P(bit flip in transit)
  double handshake_failure_rate = 0.0; ///< per-session P(failing handshakes)
  double abort_rate = 0.0;             ///< per-session P(unrecoverable record)
  double stall_rate = 0.0;             ///< per-session P(transient stall)
  double stall_cycles = 2.0e6;         ///< mean stall length (virtual cycles)

  unsigned record_retry_budget = 2;    ///< retransmissions before rekey
  unsigned handshake_retry_budget = 2; ///< handshake retries before abort
  double backoff_base_cycles = 1.0e5;  ///< first handshake-retry backoff
  double backoff_cap_cycles = 1.6e6;   ///< exponential backoff ceiling

  /// Virtual time at which the whole engine process is killed (0 = never).
  /// The engine throws CrashFault at the first arrival at/after this time,
  /// after running every checkpoint barrier due at or before it.  A crash
  /// is an EXTERNAL event, not part of the workload: it is deliberately NOT
  /// serialized into wsp-replay-v1 traces, so replaying or resuming a
  /// crashed run's trace never re-crashes (docs/recovery.md).
  double crash_at_cycles = 0.0;

  bool enabled() const {
    return wire_flip_rate > 0.0 || handshake_failure_rate > 0.0 ||
           abort_rate > 0.0 || stall_rate > 0.0;
  }

  /// Throws std::invalid_argument on rates outside [0, 1] or non-positive
  /// stall/backoff cycles.
  void validate() const;

  /// The stored fields in wire order (trace kConfig and per-phase fault
  /// overlays); crash_at_cycles is never stored.  See
  /// SessionEvent::for_each_field (engine.h) for the protocol.
  template <class F, class... S>
  static void for_each_field(F&& f, S&... s) {
    f("wire_flip_rate", s.wire_flip_rate...);
    f("handshake_failure_rate", s.handshake_failure_rate...);
    f("abort_rate", s.abort_rate...);
    f("stall_rate", s.stall_rate...);
    f("stall_cycles", s.stall_cycles...);
    f("record_retry_budget", s.record_retry_budget...);
    f("handshake_retry_budget", s.handshake_retry_budget...);
    f("backoff_base_cycles", s.backoff_base_cycles...);
    f("backoff_cap_cycles", s.backoff_cap_cycles...);
  }
};

/// One session's fault schedule — a pure function of (scenario seed,
/// session id), small enough to copy into SessionConfig by value.  `key ==
/// 0` is the benign schedule (no faults); per-record decisions are derived
/// lazily from `key` so the schedule needs no record-count bound.
struct FaultSchedule {
  std::uint64_t key = 0;            ///< 0 = benign; else per-session hash
  double wire_flip_rate = 0.0;
  unsigned record_retry_budget = 2;
  unsigned handshake_failures = 0;  ///< this many handshake attempts fail
  bool abort_scheduled = false;
  std::uint64_t abort_record = 0;   ///< unrecoverable from this record on
  bool stall_scheduled = false;
  double stall_cycles = 0.0;        ///< virtual-timeline stall length

  bool benign() const { return key == 0; }

  /// How many consecutive transmissions of `record` arrive corrupted
  /// (0 = clean record; otherwise 1 or 2).
  unsigned flip_attempts(std::uint64_t record) const;

  /// Which bit of the record's final wire byte the flip hits (0..7).
  unsigned flip_bit(std::uint64_t record, unsigned attempt) const;

  /// True when every transmission of `record` is corrupted (the
  /// unrecoverable-record fault): the repair ladder cannot win.
  bool poisons(std::uint64_t record) const {
    return abort_scheduled && record >= abort_record;
  }
};

/// Derives per-session schedules.  Immutable after construction and
/// therefore safe to consult from any thread.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Validates `config`; the plan keys every schedule off `scenario_seed`.
  FaultPlan(const FaultConfig& config, std::uint64_t scenario_seed);

  bool enabled() const { return config_.enabled(); }
  const FaultConfig& config() const { return config_; }

  /// The session's schedule — pure in (scenario seed, session id).
  FaultSchedule schedule_for(std::uint64_t session_id) const;

 private:
  FaultConfig config_;
  std::uint64_t seed_ = 0;
};

}  // namespace wsp::server
