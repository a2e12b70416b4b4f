// EngineCheckpoint — the full deterministic run state captured at a quiesce
// barrier, and its wsp-replay-v1 chunk codec (docs/recovery.md).
//
// A checkpoint is taken by Engine::run between two arrivals, after the
// RecordScheduler has quiesced: every pushed work item has executed, so no
// session is live and every admitted one has finalized.  That makes the
// captured state exact and thread-invariant:
//
//   * every finalized session's outcome (a SessionEvent) in arrival order;
//   * legacy traces only: every parked session as its admission config
//     (phase, cipher, size, seed, resume flag) plus its slab handle.  The
//     removed batched record plane (lanes > 1) left sessions staged but
//     unflushed at a barrier — still kPending, a pure function of their
//     config, so no key material was serialized.  Current engines never
//     park; the codec and validator keep reading such entries and resume
//     re-admits them onto the pump;
//   * the virtual queueing model (per-shard busy_until + pending
//     completions, counters, latencies, degrade state);
//   * the traffic generator's full state, snapshotted BEFORE the draw of
//     the arrival that crossed the barrier, so resume re-draws it;
//   * per-shard running event digests over the finalized entries — a
//     cross-check the resume path recomputes and compares, so a trace
//     corrupted in a CRC-preserving way still fails loudly.
//
// Restoring a checkpoint into Engine::run(scenario, checkpoint) and letting
// the run finish produces a RunReport bit-identical to the uninterrupted
// run on every deterministic field, for any --threads.
//
// Wire format: one kCheckpoint chunk per barrier, appended to the trace
// after the input chunks (server/record.h).  Legacy readers skip unknown
// chunk tags, so pre-checkpoint tooling still decodes these traces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "server/engine.h"
#include "support/arena.h"
#include "support/replay.h"

namespace wsp::server {

/// One shard's virtual service-unit state plus its running accounting.
struct CheckpointShard {
  double busy_until = 0.0;  ///< virtual time the shard frees up
  /// Virtual completion times still pending in the shard's waiting room,
  /// in queue (ascending) order.
  std::vector<double> completions;
  std::uint64_t admitted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t peak_virtual_depth = 0;
  /// Running digest chain over this shard's FINALIZED entries in arrival
  /// order (parked entries are not yet part of the chain).
  std::uint64_t events_digest = 0;

  bool operator==(const CheckpointShard&) const = default;

  /// kCheckpoint wire order; see SessionEvent::for_each_field.
  template <class F, class... S>
  static void for_each_field(F&& f, S&... s) {
    f("busy_until", s.busy_until...);
    f("admitted", s.admitted...);
    f("dropped", s.dropped...);
    f("peak_virtual_depth", s.peak_virtual_depth...);
    f("events_digest", s.events_digest...);
    f("completions", s.completions...);
  }
};

/// A parked session (legacy traces only: staged but unflushed by the removed
/// batched record plane): everything needed to re-admit it on resume.  The
/// fault schedule and handshake budget are NOT stored — both are re-derived
/// from (scenario seed, id, phase) exactly as at original admission.
struct ParkedSession {
  /// Phase it arrived in: an index into scenario.program(), so 0 for a
  /// flat scenario (its one lowered phase).
  std::uint32_t phase = 0;
  ssl::Cipher cipher = ssl::Cipher::kRc4;
  std::uint64_t transaction_bytes = 0;
  std::uint64_t session_seed = 0;
  bool resume = false;
  /// The session's slab handle at capture time — recorded so fuzzers and
  /// validators can prove handle hygiene (a live handle's generation is
  /// odd); resume re-inserts and gets a fresh handle.
  support::SlabRef handle;

  bool operator==(const ParkedSession&) const = default;
};

/// One admitted session, in arrival order: either finalized (its event
/// counters are complete) or parked (event carries only id/shard and the
/// parked_info says how to re-admit it).  The one hand-coded part of a
/// checkpoint: after the shared session key, a parked flag selects the
/// outcome fields or the legacy parked session (checkpoint.cpp).
struct CheckpointEntry {
  SessionEvent event;
  bool parked = false;
  ParkedSession parked_info;

  bool operator==(const CheckpointEntry&) const = default;
};

/// Full deterministic engine state at one quiesce barrier.
struct EngineCheckpoint {
  std::uint64_t seq = 0;       ///< barrier index within the run (0-based)
  double virtual_now = 0.0;    ///< the barrier's virtual time (a multiple of
                               ///< checkpoint_every)
  std::uint64_t offered = 0;
  std::uint64_t shed = 0;
  std::uint64_t degrade_enters = 0;
  bool degraded = false;
  double makespan_cycles = 0.0;
  std::uint64_t peak_sessions = 0;
  double platform_cycles_base = 0.0;
  double platform_cycles_optimized = 0.0;
  std::vector<CheckpointShard> shards;
  /// Per-admission virtual sojourn times, admission order.
  std::vector<double> latencies;
  /// Every admitted session so far, arrival order.
  std::vector<CheckpointEntry> entries;
  TrafficGeneratorState generator;

  bool operator==(const EngineCheckpoint&) const = default;

  /// kCheckpoint wire order; see SessionEvent::for_each_field.
  template <class F, class... S>
  static void for_each_field(F&& f, S&... s) {
    f("seq", s.seq...);
    f("virtual_now", s.virtual_now...);
    f("offered", s.offered...);
    f("shed", s.shed...);
    f("degrade_enters", s.degrade_enters...);
    f("degraded", s.degraded...);
    f("makespan_cycles", s.makespan_cycles...);
    f("peak_sessions", s.peak_sessions...);
    f("platform_cycles_base", s.platform_cycles_base...);
    f("platform_cycles_optimized", s.platform_cycles_optimized...);
    f("shards", s.shards...);
    f("latencies", s.latencies...);
    f("entries", s.entries...);
    f("generator", s.generator...);
  }

  std::uint64_t admitted() const {
    return static_cast<std::uint64_t>(entries.size());
  }
};

/// Appends the kCheckpoint chunk payload for `cp` to `out`.
void encode_checkpoint(std::vector<std::uint8_t>& out,
                       const EngineCheckpoint& cp);

/// Decodes one kCheckpoint chunk payload and validates it.  Structural
/// damage — truncation, overlong varints, trailing garbage, out-of-range
/// enums and integers, impossible counts — throws a typed
/// replay::ReplayError, and so does every validate_checkpoint failure;
/// nothing is clamped or guessed.
EngineCheckpoint decode_checkpoint(const std::vector<std::uint8_t>& payload);

/// Semantic validation, the one home of every check on what the values
/// mean: 1 to 64 shards, every double finite and >= 0, entry/latency/
/// admitted count agreement, no more pending completions than admissions,
/// per-shard digest chains recomputed from the finalized entries and
/// compared against the stored values, shard indices in range, monotone
/// completions, ascending pending arrivals, a live (non-zero) generator
/// Rng, parked-handle hygiene and non-empty parked sessions.  Throws
/// replay::ReplayError(kMalformed) on any violation — this is what stands
/// between a CRC-valid-but-corrupt checkpoint and the engine.
void validate_checkpoint(const EngineCheckpoint& cp);

/// Why `cp` cannot belong to a run of `program` (TrafficScenario::program())
/// on `shards` shards — a shard count, arrival count, generator cursor,
/// entry routing or parked phase that run cannot have — or an empty string
/// when it fits.  The engine's restore throws std::logic_error on a misfit;
/// resume_run (server/record.h) rejects it first as typed kMalformed.
std::string checkpoint_misfit(const EngineCheckpoint& cp,
                              const std::vector<TrafficPhase>& program,
                              unsigned shards);

}  // namespace wsp::server
