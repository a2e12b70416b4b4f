#include "server/checkpoint.h"

#include <cmath>
#include <string>

#include "server/field_codec.h"

namespace wsp::server {

using replay::Cursor;
using replay::ErrorKind;
using replay::ReplayError;
using replay::put_double;
using replay::put_varint;
using replay::put_zigzag;

namespace {

[[noreturn]] void malformed(const Cursor& c, const std::string& detail) {
  server::malformed(c.offset(), detail);
}

double get_finite(Cursor& c, const char* name) {
  const double v = c.f64();
  if (!std::isfinite(v)) malformed(c, std::string(name) + " is not finite");
  return v;
}

}  // namespace

void encode_checkpoint(std::vector<std::uint8_t>& out,
                       const EngineCheckpoint& cp) {
  put_varint(out, cp.seq);
  put_double(out, cp.virtual_now);
  put_varint(out, cp.offered);
  put_varint(out, cp.shed);
  put_varint(out, cp.degrade_enters);
  put_varint(out, cp.degraded ? 1 : 0);
  put_double(out, cp.makespan_cycles);
  put_varint(out, cp.peak_sessions);
  put_double(out, cp.platform_cycles_base);
  put_double(out, cp.platform_cycles_optimized);

  put_varint(out, cp.shards.size());
  for (const CheckpointShard& sh : cp.shards) {
    put_double(out, sh.busy_until);
    put_varint(out, sh.admitted);
    put_varint(out, sh.dropped);
    put_varint(out, sh.peak_virtual_depth);
    put_varint(out, sh.events_digest);
    put_varint(out, sh.completions.size());
    for (const double at : sh.completions) put_double(out, at);
  }

  put_varint(out, cp.latencies.size());
  for (const double lat : cp.latencies) put_double(out, lat);

  put_varint(out, cp.entries.size());
  std::int64_t prev_id = 0;  // ids ascend in arrival order; delta-code them
  for (const CheckpointEntry& e : cp.entries) {
    put_zigzag(out, static_cast<std::int64_t>(e.event.id) - prev_id);
    prev_id = static_cast<std::int64_t>(e.event.id);
    put_varint(out, e.event.shard);
    put_varint(out, e.parked ? 1 : 0);
    if (e.parked) {
      put_varint(out, e.parked_info.phase);
      put_varint(out, static_cast<std::uint64_t>(e.parked_info.cipher));
      put_varint(out, e.parked_info.transaction_bytes);
      put_varint(out, e.parked_info.session_seed);
      put_varint(out, e.parked_info.resume ? 1 : 0);
      put_varint(out, e.parked_info.handle.slot);
      put_varint(out, e.parked_info.handle.gen);
    } else {
      SessionEvent::for_each_outcome_field(FieldWriter{out}, e.event);
    }
  }

  const TrafficGeneratorState& g = cp.generator;
  for (int i = 0; i < 4; ++i) put_varint(out, g.rng.s[i]);
  put_varint(out, g.next_id);
  put_double(out, g.interarrival_mean);
  put_double(out, g.open_clock);
  put_varint(out, g.phase_idx);
  put_varint(out, g.phase_done);
  put_varint(out, g.phase_entered ? 1 : 0);
  put_varint(out, g.ready.size());
  for (const auto& [at, user] : g.ready) {
    put_double(out, at);
    put_varint(out, user);
  }
}

EngineCheckpoint decode_checkpoint(const std::vector<std::uint8_t>& payload) {
  Cursor c(payload);
  EngineCheckpoint cp;
  cp.seq = c.varint();
  cp.virtual_now = get_finite(c, "virtual_now");
  cp.offered = c.varint();
  cp.shed = c.varint();
  cp.degrade_enters = c.varint();
  cp.degraded = get_flag(c, "degraded");
  cp.makespan_cycles = get_finite(c, "makespan_cycles");
  cp.peak_sessions = c.varint();
  cp.platform_cycles_base = get_finite(c, "platform_cycles_base");
  cp.platform_cycles_optimized = get_finite(c, "platform_cycles_optimized");

  const std::uint64_t shards = c.varint();
  if (shards == 0 || shards > 64) {
    malformed(c, "shard count " + std::to_string(shards) +
                     " outside [1, 64]");
  }
  cp.shards.resize(static_cast<std::size_t>(shards));
  for (CheckpointShard& sh : cp.shards) {
    sh.busy_until = get_finite(c, "busy_until");
    sh.admitted = c.varint();
    sh.dropped = c.varint();
    sh.peak_virtual_depth = c.varint();
    sh.events_digest = c.varint();
    const std::uint64_t pending = c.varint();
    if (pending > sh.admitted) {
      malformed(c, "shard has more pending completions than admissions");
    }
    sh.completions.reserve(static_cast<std::size_t>(pending));
    for (std::uint64_t i = 0; i < pending; ++i) {
      sh.completions.push_back(get_finite(c, "completion time"));
    }
  }

  const std::uint64_t latencies = c.varint();
  if (latencies > payload.size()) {
    // Every latency costs >= 8 payload bytes; a count beyond the payload
    // size is corrupt, and rejecting it here keeps the reserve bounded.
    malformed(c, "latency count exceeds payload size");
  }
  cp.latencies.reserve(static_cast<std::size_t>(latencies));
  for (std::uint64_t i = 0; i < latencies; ++i) {
    cp.latencies.push_back(get_finite(c, "latency"));
  }

  const std::uint64_t entries = c.varint();
  if (entries > payload.size()) {
    malformed(c, "entry count exceeds payload size");
  }
  cp.entries.reserve(static_cast<std::size_t>(entries));
  std::int64_t prev_id = 0;
  for (std::uint64_t i = 0; i < entries; ++i) {
    CheckpointEntry e;
    const std::int64_t id = prev_id + c.zigzag();
    if (id < 0) malformed(c, "negative session id after delta decode");
    prev_id = id;
    e.event.id = static_cast<std::uint64_t>(id);
    const std::uint64_t shard = c.varint();
    if (shard >= cp.shards.size()) {
      malformed(c, "entry shard index out of range");
    }
    e.event.shard = static_cast<std::uint32_t>(shard);
    e.parked = get_flag(c, "parked");
    if (e.parked) {
      e.parked_info.phase = get_u32(c, "parked phase");
      e.parked_info.cipher = get_cipher(c);
      e.parked_info.transaction_bytes = c.varint();
      if (e.parked_info.transaction_bytes == 0) {
        malformed(c, "parked session with zero transaction bytes");
      }
      e.parked_info.session_seed = c.varint();
      e.parked_info.resume = get_flag(c, "resume");
      e.parked_info.handle.slot = get_u32(c, "parked handle slot");
      e.parked_info.handle.gen = get_u32(c, "parked handle generation");
      if ((e.parked_info.handle.gen & 1u) == 0) {
        // A live slab handle's generation is odd by construction
        // (support/arena.h).  An even or zero generation means the
        // checkpoint references a freed/stale slot — the handle-hygiene
        // violation the fuzzer drives at this decoder.
        malformed(c, "parked session handle generation " +
                         std::to_string(e.parked_info.handle.gen) +
                         " is stale (live handles are odd)");
      }
    } else {
      SessionEvent::for_each_outcome_field(FieldReader{c}, e.event);
    }
    cp.entries.push_back(std::move(e));
  }

  TrafficGeneratorState& g = cp.generator;
  for (int i = 0; i < 4; ++i) g.rng.s[i] = c.varint();
  if (g.rng.s[0] == 0 && g.rng.s[1] == 0 && g.rng.s[2] == 0 &&
      g.rng.s[3] == 0) {
    malformed(c, "generator rng state is all-zero (xoshiro dead state)");
  }
  g.next_id = c.varint();
  g.interarrival_mean = get_finite(c, "interarrival_mean");
  g.open_clock = get_finite(c, "open_clock");
  g.phase_idx = c.varint();
  g.phase_done = c.varint();
  g.phase_entered = get_flag(c, "phase_entered");
  const std::uint64_t ready = c.varint();
  if (ready > payload.size()) {
    malformed(c, "pending-arrival count exceeds payload size");
  }
  g.ready.reserve(static_cast<std::size_t>(ready));
  double prev_at = -1.0;
  for (std::uint64_t i = 0; i < ready; ++i) {
    const double at = get_finite(c, "pending arrival time");
    const unsigned user = get_u32(c, "pending arrival user");
    if (at < prev_at) {
      malformed(c, "pending arrivals out of ascending order");
    }
    prev_at = at;
    g.ready.emplace_back(at, user);
  }

  if (!c.done()) malformed(c, "trailing bytes after checkpoint payload");
  validate_checkpoint(cp);
  return cp;
}

void validate_checkpoint(const EngineCheckpoint& cp) {
  auto reject = [](const std::string& detail) {
    throw ReplayError(ErrorKind::kMalformed, 0, "checkpoint: " + detail);
  };

  std::uint64_t admitted_by_shard = 0;
  for (const CheckpointShard& sh : cp.shards) {
    admitted_by_shard += sh.admitted;
    double prev = -1.0;
    for (const double at : sh.completions) {
      if (at < prev) reject("shard completions out of queue order");
      prev = at;
    }
  }
  if (admitted_by_shard != cp.entries.size()) {
    reject("per-shard admission counts (" +
           std::to_string(admitted_by_shard) + ") disagree with entry list (" +
           std::to_string(cp.entries.size()) + ")");
  }
  if (cp.latencies.size() != cp.entries.size()) {
    reject("latency count " + std::to_string(cp.latencies.size()) +
           " != admitted count " + std::to_string(cp.entries.size()));
  }
  if (cp.admitted() > cp.offered) {
    reject("more admissions than offered arrivals");
  }
  if (cp.generator.next_id < cp.offered) {
    reject("generator id cursor behind the offered count");
  }

  // Recompute each shard's digest chain from the finalized entries and the
  // per-entry admission counts; both must agree with the stored values.
  // (decode_checkpoint already bounds shards and handle generations, but
  // callers also hand this validator checkpoints built or mutated in
  // memory, so the structural checks repeat here.)
  std::vector<std::uint64_t> digests(cp.shards.size(), 0);
  std::vector<std::uint64_t> admitted(cp.shards.size(), 0);
  for (const CheckpointEntry& e : cp.entries) {
    if (e.event.shard >= cp.shards.size()) {
      reject("entry shard index out of range");
    }
    if (e.parked && (e.parked_info.handle.gen & 1u) == 0) {
      reject("parked session handle generation " +
             std::to_string(e.parked_info.handle.gen) +
             " is stale (live handles are odd)");
    }
    ++admitted[e.event.shard];
    if (!e.parked) {
      std::uint64_t& chain = digests[e.event.shard];
      chain = chain_events_digest(chain, e.event);
    }
  }
  for (std::size_t i = 0; i < cp.shards.size(); ++i) {
    if (admitted[i] != cp.shards[i].admitted) {
      reject("shard " + std::to_string(i) + " admission count mismatch");
    }
    if (digests[i] != cp.shards[i].events_digest) {
      reject("shard " + std::to_string(i) +
             " events digest does not match its entries — the checkpoint "
             "was altered after capture");
    }
  }
}

std::string checkpoint_misfit(const EngineCheckpoint& cp,
                              const std::vector<TrafficPhase>& program,
                              unsigned shards) {
  using std::to_string;
  if (cp.shards.size() != shards) {
    return "checkpoint has " + to_string(cp.shards.size()) +
           " shards, the run has " + to_string(shards);
  }
  std::uint64_t total = 0;
  for (const TrafficPhase& ph : program) total += ph.sessions;
  if (cp.offered > total) {
    return "checkpoint offered " + to_string(cp.offered) +
           " arrivals, the scenario holds only " + to_string(total);
  }
  const TrafficGeneratorState& g = cp.generator;
  if (g.next_id > total) return "generator cursor past the scenario end";
  if (g.phase_idx > program.size()) return "generator phase index out of range";
  // The phase cursor must agree with the id cursor: once a phase is
  // entered, the earlier phases' arrivals plus the phase's own so far;
  // before that (or in a flat trace recorded before flat scenarios ran as
  // one-phase programs) the first phase, untouched.
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < g.phase_idx; ++i) before += program[i].sessions;
  if (g.phase_entered
          ? g.phase_done > g.next_id || g.next_id - g.phase_done != before
          : g.phase_idx != 0 || g.phase_done != 0) {
    return "generator phase cursor disagrees with its id cursor";
  }
  for (const CheckpointEntry& e : cp.entries) {
    if (e.event.shard != e.event.id % shards) {
      return "entry for session " + to_string(e.event.id) + " names shard " +
             to_string(e.event.shard) + ", routing places it on " +
             to_string(e.event.id % shards);
    }
    if (e.parked && e.parked_info.phase >= program.size()) {
      return "parked session " + to_string(e.event.id) + " names phase " +
             to_string(e.parked_info.phase) +
             ", which the scenario does not have";
    }
  }
  return {};
}

}  // namespace wsp::server
