#include "server/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>

#include "server/field_codec.h"

namespace wsp::server {

using replay::ErrorKind;
using replay::ReplayError;

void put_session(std::vector<std::uint8_t>& out, std::uint64_t& prev_id,
                 const CheckpointEntry& e) {
  put_key(out, prev_id, e.event);
  FieldWriter write{out};
  write("parked", e.parked);
  if (!e.parked) {
    SessionEvent::for_each_outcome_field(write, e.event);
    return;
  }
  const ParkedSession& p = e.parked_info;
  write("parked phase", p.phase);
  write("parked cipher", p.cipher);
  write("parked transaction bytes", p.transaction_bytes);
  write("parked session seed", p.session_seed);
  write("parked resume", p.resume);
  write("parked handle slot", p.handle.slot);
  write("parked handle generation", p.handle.gen);
}

void get_session(replay::Cursor& c, std::uint64_t& prev_id,
                 CheckpointEntry& e) {
  get_key(c, prev_id, e.event);
  FieldReader read{c};
  read("parked", e.parked);
  if (!e.parked) {
    SessionEvent::for_each_outcome_field(read, e.event);
    return;
  }
  ParkedSession& p = e.parked_info;
  read("parked phase", p.phase);
  read("parked cipher", p.cipher);
  read("parked transaction bytes", p.transaction_bytes);
  read("parked session seed", p.session_seed);
  read("parked resume", p.resume);
  read("parked handle slot", p.handle.slot);
  read("parked handle generation", p.handle.gen);
}

void encode_checkpoint(std::vector<std::uint8_t>& out,
                       const EngineCheckpoint& cp) {
  put_fields(out, cp);
}

EngineCheckpoint decode_checkpoint(const std::vector<std::uint8_t>& payload) {
  replay::Cursor c(payload);
  EngineCheckpoint cp;
  get_fields(c, cp);
  if (!c.done()) {
    malformed(c.offset(), "trailing bytes after checkpoint payload");
  }
  validate_checkpoint(cp);
  return cp;
}

namespace {

/// Names the first visited double that is not finite and >= 0.  Every
/// double a checkpoint holds is a virtual time, a cycle count or a mean.
struct FirstBadDouble {
  const char*& bad;

  template <class T>
  void operator()(const char* name, const T& v) const {
    if constexpr (std::is_same_v<T, double>) {
      if (!bad && !(std::isfinite(v) && v >= 0.0)) bad = name;
    } else if constexpr (FieldListed<T>) {
      T::for_each_field(*this, v);
    } else if constexpr (kVector<T>) {
      for (const auto& e : v) (*this)(name, e);
    } else if constexpr (requires { v.first; }) {
      (*this)(name, v.first);
    }
  }
};

}  // namespace

void validate_checkpoint(const EngineCheckpoint& cp) {
  auto reject = [](const std::string& detail) {
    throw ReplayError(ErrorKind::kMalformed, 0, "checkpoint: " + detail);
  };

  if (cp.shards.empty() || cp.shards.size() > 64) {
    reject("shard count " + std::to_string(cp.shards.size()) +
           " outside [1, 64]");
  }
  const char* bad = nullptr;
  EngineCheckpoint::for_each_field(FirstBadDouble{bad}, cp);
  if (bad) reject(std::string(bad) + " is not finite and >= 0");
  std::uint64_t admitted_by_shard = 0;
  for (const CheckpointShard& sh : cp.shards) {
    admitted_by_shard += sh.admitted;
    if (sh.completions.size() > sh.admitted) {
      reject("shard has more pending completions than admissions");
    }
    if (!std::is_sorted(sh.completions.begin(), sh.completions.end())) {
      reject("shard completions out of queue order");
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
  const TrafficGeneratorState& g = cp.generator;
  if (g.next_id < cp.offered) {
    reject("generator id cursor behind the offered count");
  }
  if (g.rng == Rng::State{}) {
    reject("generator rng state is all-zero (xoshiro dead state)");
  }
  // Ascending (time, user) order is what TrafficGenerator::restore takes
  // as its min-heap as is.
  if (!std::is_sorted(g.ready.begin(), g.ready.end())) {
    reject("pending arrivals out of ascending order");
  }

  // Recompute each shard's digest chain from the finalized entries and the
  // per-entry admission counts; both must agree with the stored values.
  std::vector<std::uint64_t> digests(cp.shards.size(), 0);
  std::vector<std::uint64_t> admitted(cp.shards.size(), 0);
  for (const CheckpointEntry& e : cp.entries) {
    if (e.event.shard >= cp.shards.size()) {
      reject("entry shard index out of range");
    }
    if (e.parked && (e.parked_info.handle.gen & 1u) == 0) {
      // A live slab handle's generation is odd by construction
      // (support/arena.h): an even one references a freed or stale slot.
      reject("parked session handle generation " +
             std::to_string(e.parked_info.handle.gen) +
             " is stale (live handles are odd)");
    }
    if (e.parked && e.parked_info.transaction_bytes == 0) {
      reject("parked session with zero transaction bytes");
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
