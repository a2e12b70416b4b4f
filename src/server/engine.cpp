#include "server/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>

#include "server/checkpoint.h"
#include "server/session_table.h"
#include "support/trace.h"

namespace wsp::server {

ssl::PlatformCosts calibrated_costs(Pricing pricing) {
  // Component costs from the Fig. 8 ISS measurement (bench_fig8_ssl /
  // bench_report --only fig8, seed 21: RSA-1024 ops, 3DES record cipher on
  // the base and TIE-optimized cores).  Baked in as constants so pricing a
  // session is arithmetic, not an ISS run; the unaccelerated misc/hash
  // shares come from ssl::misc_cost_defaults() either way.
  ssl::PlatformCosts c = ssl::misc_cost_defaults();
  if (pricing == Pricing::kBase) {
    c.rsa_private_cycles = 89884113.0;
    c.rsa_public_cycles = 997801.0;
    c.symmetric_cycles_per_byte = 1660.8;
  } else {
    c.rsa_private_cycles = 3869594.0;
    c.rsa_public_cycles = 175720.0;
    c.symmetric_cycles_per_byte = 44.3;
  }
  return c;
}

namespace {

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// FNV-1a over the per-session (id, wire_bytes, records) triples, folded to
// 32 bits so the digest survives a double-typed JSON field exactly.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  std::uint32_t fold() const {
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }
};

/// Bounded exponential backoff after the i-th failed handshake attempt
/// (virtual cycles).
double backoff_cycles(const FaultConfig& fc, unsigned attempt) {
  double b = fc.backoff_base_cycles;
  for (unsigned i = 0; i < attempt && b < fc.backoff_cap_cycles; ++i) b *= 2.0;
  return std::min(b, fc.backoff_cap_cycles);
}

/// Virtual-timeline service time for one session under its fault schedule.
/// This is a queueing MODEL of the recovery machinery, not a cycle-accurate
/// replay of it: what matters is that it is a pure function of the schedule
/// (hence identical for any --threads) and moves in the right direction —
/// failed handshakes add asymmetric work plus backoff, wire flips add a
/// retransmission surcharge, a poisoned record truncates the stream after
/// the doomed repair ladder, a stall adds dead time.
double modeled_service(const ssl::PlatformCosts& price, std::size_t bytes,
                       std::size_t record_bytes, const FaultSchedule& f,
                       const FaultConfig& fc, bool resume) {
  double service = 0.0;
  // A failed full exchange pays both asymmetric operations before the
  // premaster check rejects it; a failed resumption only burns the
  // abbreviated protocol work (the ticket is rejected before any key
  // exchange).  Either way the backoff follows.
  const double failed_attempt_cycles =
      resume ? 0.25 * price.handshake_misc_cycles
             : price.rsa_private_cycles + price.rsa_public_cycles;
  const unsigned failures =
      std::min(f.handshake_failures, fc.handshake_retry_budget + 1);
  for (unsigned i = 0; i < failures; ++i) {
    service += failed_attempt_cycles;
    service += backoff_cycles(fc, i);
  }
  if (f.handshake_failures > fc.handshake_retry_budget) {
    return service;  // aborted before any record moved
  }
  double body = resume ? ssl::resumed_transaction_cost(price, bytes).total()
                       : ssl::transaction_cost(price, bytes).total();
  if (f.wire_flip_rate > 0.0) {
    body *= 1.0 + f.wire_flip_rate;  // retransmission surcharge
  }
  if (f.abort_scheduled) {
    const std::uint64_t total_records =
        std::max<std::uint64_t>(1, (bytes + record_bytes - 1) / record_bytes);
    const double per_record = body / static_cast<double>(total_records);
    const double done = std::min<double>(static_cast<double>(f.abort_record),
                                         static_cast<double>(total_records));
    // Stream up to the poisoned record, then the full (losing) repair
    // ladder: budgeted retransmits, one rekey, one last retransmit.
    body = done * per_record +
           static_cast<double>(f.record_retry_budget + 2) * per_record;
  }
  service += body;
  if (f.stall_scheduled) service += f.stall_cycles;
  return service;
}

}  // namespace

std::uint64_t SessionEvent::digest() const {
  Digest d;
  for_each_field(
      [&d](const char*, auto v) {
        if constexpr (std::is_same_v<decltype(v), bool>) {
          d.mix(v ? 1 : 0xAB);  // completed, or the aborted tag
        } else {
          d.mix(v);
        }
      },
      *this);
  return d.h;
}

Engine::Engine(const EngineConfig& config) : config_(config) {
  if (config_.shards == 0) {
    // Auto: scale the data plane with the machine.  Callers that need
    // cross-host reproducible virtual timelines pin an explicit count.
    const unsigned hw = std::thread::hardware_concurrency();
    config_.shards = std::clamp(hw == 0 ? 4u : hw, 1u, 64u);
  }
  if (config_.queue_capacity == 0) {
    throw std::invalid_argument(
        "server: EngineConfig.queue_capacity must be > 0");
  }
  if (config_.record_batch == 0) {
    throw std::invalid_argument(
        "server: EngineConfig.record_batch must be > 0");
  }
  if (config_.rsa_bits < 512) {
    throw std::invalid_argument(
        "server: EngineConfig.rsa_bits must be >= 512");
  }
  config_.faults.validate();
  if (!std::isfinite(config_.checkpoint_every) ||
      config_.checkpoint_every < 0.0) {
    throw std::invalid_argument(
        "server: EngineConfig.checkpoint_every must be finite and >= 0");
  }
  config_.threads = std::max(1u, config_.threads);
}

RunReport Engine::run(const TrafficScenario& scenario) {
  return run_internal(scenario, nullptr);
}

RunReport Engine::run(const TrafficScenario& scenario,
                      const EngineCheckpoint& checkpoint) {
  return run_internal(scenario, &checkpoint);
}

RunReport Engine::run_internal(const TrafficScenario& scenario,
                               const EngineCheckpoint* restore) {
  WSP_TRACE_SPAN("server", "run");
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();

  // Reject degenerate scenarios (zero sessions, empty grids/mixes,
  // non-finite loads, ...) before any state is built.
  scenario.validate();

  RunReport rep;
  rep.threads = config_.threads;
  const unsigned shards = config_.shards;
  rep.shards.resize(shards);

  const ssl::PlatformCosts price = calibrated_costs(config_.pricing);
  const ssl::PlatformCosts base = calibrated_costs(Pricing::kBase);
  const ssl::PlatformCosts opt = calibrated_costs(Pricing::kOptimized);

  const bool phased = scenario.phased();
  auto price_one = [](const ssl::PlatformCosts& costs, std::size_t bytes,
                      bool resumed) {
    return resumed ? ssl::resumed_transaction_cost(costs, bytes).total()
                   : ssl::transaction_cost(costs, bytes).total();
  };

  // Mean service time: the flat path averages the uniform size grid; a
  // program gets one weighted figure per phase (size-mix weights, blended
  // across the resume fraction), and reports the session-weighted mean.
  double mean_service = 0.0;
  std::vector<double> phase_means;
  if (!phased) {
    const bool resume = scenario.resume_sessions;
    for (const std::size_t bytes : scenario.transaction_sizes) {
      mean_service += price_one(price, bytes, resume);
    }
    mean_service /= static_cast<double>(scenario.transaction_sizes.size());
  } else {
    phase_means.reserve(scenario.phases.size());
    for (const TrafficPhase& ph : scenario.phases) {
      double full = 0.0, resumed = 0.0;
      std::uint64_t wsum = 0;
      for (const SizeMix& m : ph.size_mix) {
        const double w = static_cast<double>(m.weight);
        full += price_one(price, m.bytes, false) * w;
        resumed += price_one(price, m.bytes, true) * w;
        wsum += m.weight;
      }
      full /= static_cast<double>(wsum);
      resumed /= static_cast<double>(wsum);
      const double f = ph.resume_fraction;
      phase_means.push_back(f <= 0.0   ? full
                            : f >= 1.0 ? resumed
                                       : (1.0 - f) * full + f * resumed);
    }
    if (scenario.phases.size() == 1) {
      // Exactly the single phase's figure (no weighting round-trip), so a
      // one-phase program reproduces the flat path's report bit for bit.
      mean_service = phase_means[0];
    } else {
      double acc = 0.0;
      for (std::size_t i = 0; i < scenario.phases.size(); ++i) {
        acc += phase_means[i] *
               static_cast<double>(scenario.phases[i].sessions);
      }
      mean_service = acc / static_cast<double>(scenario.total_sessions());
    }
  }
  rep.mean_service_cycles = mean_service;
  rep.memory_per_session = SessionTable::bytes_per_session();

  TrafficGenerator gen = phased ? TrafficGenerator(scenario, phase_means, shards)
                                : TrafficGenerator(scenario, mean_service, shards);

  // Fault plans: the engine-wide plan, plus one per phase where a .wsp
  // fault overlay replaces it (rekey storms, adversarial floods).  Every
  // plan keys off the scenario seed, so schedules stay pure in
  // (seed, session id) regardless of which phase a session lands in.
  const FaultPlan plan(config_.faults, scenario.seed);
  std::vector<FaultPlan> phase_plans;
  std::vector<FaultConfig> phase_faults;
  if (phased) {
    phase_plans.reserve(scenario.phases.size());
    for (const TrafficPhase& ph : scenario.phases) {
      const FaultConfig& fc = ph.faults ? *ph.faults : config_.faults;
      phase_faults.push_back(fc);
      phase_plans.emplace_back(fc, scenario.seed);
    }
  }

  // Real execution: one server key per run (the server's identity), worker
  // pool, bounded scheduler, sharded connection table.  Resumed scenarios
  // never touch the key (no RSA exchange happens), so skip the generation —
  // at 512 bits it otherwise dominates the wall time of small resumed runs.
  bool any_full_handshake = !scenario.resume_sessions;
  if (phased) {
    any_full_handshake = false;
    for (const TrafficPhase& ph : scenario.phases) {
      if (ph.resume_fraction < 1.0) any_full_handshake = true;
    }
  }
  std::optional<rsa::PrivateKey> server_key_storage;
  if (any_full_handshake) {
    Rng key_rng(scenario.seed ^ 0xC3A5C85C97CB3127ULL);
    server_key_storage = rsa::generate_key(config_.rsa_bits, key_rng);
  }
  const rsa::PrivateKey* server_key =
      server_key_storage ? &*server_key_storage : nullptr;
  ThreadPool pool(config_.threads);
  SessionTable table(shards);
  RecordScheduler sched(pool, shards, config_.queue_capacity,
                        config_.record_batch);

  // Virtual-time queueing state: per shard, one FIFO service unit with a
  // waiting room of queue_capacity sessions.
  struct VirtualShard {
    std::deque<double> completions;  ///< scheduled completion times, FIFO
    double busy_until = 0.0;
  };
  std::vector<VirtualShard> vq(shards);

  // Each admitted session's outcome, in arrival order.  Its pump task
  // writes it exactly once, and it is read only after a drain; a session
  // the task did not complete is aborted.  deque: stable addresses under
  // push_back.
  std::deque<SessionEvent> outcomes;

  std::vector<double> latencies;
  bool degraded = false;

  // The handshake retry ladder: returns true when the session aborted
  // instead of establishing.  Called from worker threads; `resume` and
  // `hs_budget` are per session, since a program phase sets its own resume
  // fraction and may override the fault budgets.
  auto establish = [server_key](Session* session, bool resume,
                                unsigned hs_budget) -> bool {
    for (unsigned attempt = 0;; ++attempt) {
      try {
        if (resume) {
          // Abbreviated handshake: no key exchange, no modexp engines.
          session->resume();
        } else {
          ModexpEngine client_engine{ModexpConfig{}};
          ModexpConfig server_cfg;  // the explored-optimal configuration
          server_cfg.mul = MulAlgo::kMontCIOS;
          server_cfg.window_bits = 5;
          server_cfg.crt = CrtMode::kGarner;
          server_cfg.caching = Caching::kFull;
          ModexpEngine server_engine(server_cfg);
          session->handshake(*server_key, client_engine, server_engine);
        }
        return false;
      } catch (const SessionError& e) {
        if (e.kind() != SessionErrorKind::kHandshakeFailed ||
            attempt >= hs_budget) {
          session->abort();
          return true;
        }
        // Retry; the matching exponential backoff is priced on the
        // virtual timeline by modeled_service().
      }
    }
  };

  // The per-session pump task: establish, pump the record stream in
  // quanta of `batch`, tear down, then finalize the outcome and erase the
  // session exactly once.  Shared by the admission loop and the
  // checkpoint-restore path, so a re-admitted parked session runs the same
  // code.  `table` is sharded and a shard's sessions are pumped FIFO on
  // one worker (scheduler.h).
  auto push_session = [&sched, &establish, &table](
                          unsigned shard, SessionEvent* out, Session* session,
                          SessionHandle handle, bool resume, unsigned hs_budget,
                          std::size_t batch) {
    sched.push(shard, [out, session, handle, batch, resume, hs_budget,
                       &establish, &table] {
      try {
        if (!establish(session, resume, hs_budget)) {
          while (!session->finished()) session->pump(batch);
          session->teardown();
          out->completed = true;
        }
      } catch (...) {
        // SessionError(kAborted) from the exhausted repair ladder, or any
        // unexpected failure: the session is finished either way.  abort()
        // is idempotent and safe from every state but kClosed.
        session->abort();
      }
      out->wire_bytes = session->wire_bytes();
      out->records = session->records();
      const std::uint32_t attempts = session->handshake_attempts();
      out->retries = session->retries() + (attempts > 0 ? attempts - 1 : 0);
      out->repairs = session->repairs();
      out->faults = session->faults_seen();
      table.erase(handle);
    });
  };

  // Crash-fault deadline: the earliest armed crash_at_cycles across the
  // engine config and every phase overlay.  Detected at arrival
  // granularity — the first arrival at/after the deadline kills the run.
  double crash_at = config_.faults.crash_at_cycles;
  for (const FaultConfig& pfc : phase_faults) {
    if (pfc.crash_at_cycles > 0.0 &&
        (crash_at <= 0.0 || pfc.crash_at_cycles < crash_at)) {
      crash_at = pfc.crash_at_cycles;
    }
  }

  // Checkpoint barriers (docs/recovery.md): at every multiple of
  // checkpoint_every on the virtual clock, quiesce the data plane and hand
  // the full run state to the sink.  `pre_draw` holds the generator state
  // from BEFORE the current arrival's draw — the barrier decision is made
  // from the drawn arrival's time, so the checkpoint must store the
  // pre-draw state for resume to re-draw that arrival.
  CheckpointSink* sink = config_.checkpoint_sink;
  const double cp_every = config_.checkpoint_every;
  const bool checkpointing = sink != nullptr && cp_every > 0.0;
  std::uint64_t checkpoint_seq = 0;
  double next_cp = cp_every;
  TrafficGeneratorState pre_draw;

  auto quiesce_checkpoint = [&](double cp_time) {
    WSP_TRACE_SPAN("server", "checkpoint");
    // Quiesce: every pushed work item has executed (proven by the
    // scheduler, not assumed), so every admitted session has finalized its
    // outcome and left the table.  Verified before anything is serialized.
    sched.quiesce();
    if (table.size() != 0) {
      throw std::logic_error(
          "server: quiesce barrier found " + std::to_string(table.size()) +
          " live sessions — the data plane did not quiesce");
    }
    EngineCheckpoint cp;
    cp.seq = checkpoint_seq++;
    cp.virtual_now = cp_time;
    cp.offered = rep.offered;
    cp.shed = rep.shed;
    cp.degrade_enters = rep.degrade_enters;
    cp.degraded = degraded;
    cp.makespan_cycles = rep.makespan_cycles;
    cp.peak_sessions = rep.peak_sessions;
    cp.platform_cycles_base = rep.platform_cycles_base;
    cp.platform_cycles_optimized = rep.platform_cycles_optimized;
    cp.shards.resize(shards);
    for (unsigned s = 0; s < shards; ++s) {
      CheckpointShard& csh = cp.shards[s];
      csh.busy_until = vq[s].busy_until;
      csh.completions.assign(vq[s].completions.begin(),
                             vq[s].completions.end());
      csh.admitted = rep.shards[s].admitted;
      csh.dropped = rep.shards[s].dropped;
      csh.peak_virtual_depth = rep.shards[s].peak_virtual_depth;
    }
    cp.latencies = latencies;
    cp.entries.reserve(outcomes.size());
    for (const SessionEvent& ev : outcomes) {
      CheckpointShard& csh = cp.shards[ev.shard];
      csh.events_digest = chain_events_digest(csh.events_digest, ev);
      cp.entries.emplace_back().event = ev;
    }
    cp.generator = pre_draw;
    sink->on_checkpoint(cp);
  };

  // Checkpoint restore: re-arm the virtual queueing model, counters and
  // latency ledger; refill the outcome ledger in arrival order (finalized
  // outcomes verbatim, parked sessions re-admitted onto the pump); rewind
  // the generator to the pre-draw state.  Only traces recorded by the
  // former batched record plane (lanes > 1) carry parked entries.
  // Structural mismatches throw std::logic_error — the typed-error
  // validation of untrusted traces lives in server/record.h's resume path,
  // which runs before this is reached.
  if (restore != nullptr) {
    const EngineCheckpoint& cp = *restore;
    auto bad = [](const std::string& what) {
      throw std::logic_error("server: checkpoint does not fit this run: " +
                             what);
    };
    if (cp.shards.size() != shards) bad("shard count mismatch");
    if (cp.offered > scenario.total_sessions()) {
      bad("offered count exceeds the scenario's total sessions");
    }
    rep.offered = cp.offered;
    rep.shed = cp.shed;
    rep.degrade_enters = cp.degrade_enters;
    degraded = cp.degraded;
    rep.makespan_cycles = cp.makespan_cycles;
    rep.peak_sessions = static_cast<std::size_t>(cp.peak_sessions);
    rep.platform_cycles_base = cp.platform_cycles_base;
    rep.platform_cycles_optimized = cp.platform_cycles_optimized;
    for (unsigned s = 0; s < shards; ++s) {
      const CheckpointShard& csh = cp.shards[s];
      vq[s].busy_until = csh.busy_until;
      vq[s].completions.assign(csh.completions.begin(),
                               csh.completions.end());
      rep.shards[s].admitted = csh.admitted;
      rep.shards[s].dropped = csh.dropped;
      rep.shards[s].peak_virtual_depth =
          static_cast<std::size_t>(csh.peak_virtual_depth);
      rep.admitted += csh.admitted;
      rep.dropped += csh.dropped;
    }
    latencies = cp.latencies;
    for (const CheckpointEntry& e : cp.entries) {
      if (e.event.shard != static_cast<std::uint32_t>(e.event.id % shards)) {
        bad("entry shard disagrees with its session id");
      }
      if (!e.parked) {
        outcomes.push_back(e.event);
        continue;
      }
      SessionEvent* out = &outcomes.emplace_back(
          SessionEvent{.id = e.event.id, .shard = e.event.shard});
      const ParkedSession& p = e.parked_info;
      if (phased && p.phase >= scenario.phases.size()) {
        bad("parked phase out of range");
      }
      if (!phased && p.phase != 0) bad("parked phase on a flat scenario");
      const FaultConfig& pfc = phased ? phase_faults[p.phase] : config_.faults;
      SessionConfig cfg;
      cfg.id = e.event.id;
      cfg.cipher = p.cipher;
      cfg.transaction_bytes = static_cast<std::size_t>(p.transaction_bytes);
      cfg.record_bytes = scenario.record_bytes;
      cfg.seed = p.session_seed;
      cfg.faults =
          (phased ? phase_plans[p.phase] : plan).schedule_for(e.event.id);
      const SessionTable::Inserted ins = table.insert(cfg);
      // The batch quantum is a host-side knob, so deciding it from the
      // restored degrade flag is safe.
      const std::size_t batch =
          degraded ? std::max<std::size_t>(1, config_.record_batch / 2)
                   : config_.record_batch;
      push_session(e.event.shard, out, ins.session, ins.handle, p.resume,
                   pfc.handshake_retry_budget, batch);
    }
    gen.restore(cp.generator);
    checkpoint_seq = cp.seq + 1;
    next_cp = cp.virtual_now + cp_every;
  }

  for (;;) {
    if (checkpointing) pre_draw = gen.state();
    const std::optional<SessionArrival> arrival = gen.next();
    if (!arrival) break;
    // Barriers due at/before this arrival fire first (over the pre-draw
    // generator state), then an armed crash kills the run before the
    // arrival is offered.  The order matters: a barrier scheduled before
    // the crash deadline must reach the trace even when both land between
    // the same two arrivals.
    const double now = arrival->at_cycles;
    const bool crash_now = crash_at > 0.0 && now >= crash_at;
    const double barrier_limit = crash_now ? crash_at : now;
    while (checkpointing && next_cp <= barrier_limit) {
      quiesce_checkpoint(next_cp);
      next_cp += cp_every;
    }
    if (crash_now) {
      sched.drain();  // clean unwind: no worker may touch freed stack state
      throw CrashFault(now, crash_at);
    }
    ++rep.offered;
    const unsigned shard = static_cast<unsigned>(arrival->id % shards);

    // Evict every shard up to this arrival so the in-system count — the
    // degrade-mode signal and the peak_sessions source — is exact, not the
    // lazily-evicted per-shard view.
    std::size_t in_system = 0;
    for (VirtualShard& other : vq) {
      while (!other.completions.empty() &&
             other.completions.front() <= arrival->at_cycles) {
        other.completions.pop_front();
      }
      in_system += other.completions.size();
    }

    // Degrade mode with hysteresis: engage at degrade_depth, release only
    // once the system has drained to half of it.
    if (config_.degrade_depth > 0) {
      if (!degraded && in_system >= config_.degrade_depth) {
        degraded = true;
        ++rep.degrade_enters;
        WSP_TRACE_INSTANT_V("server", "degrade/enter",
                            static_cast<double>(in_system));
      } else if (degraded && in_system <= config_.degrade_depth / 2) {
        degraded = false;
        WSP_TRACE_INSTANT_V("server", "degrade/exit",
                            static_cast<double>(in_system));
      }
    }

    VirtualShard& v = vq[shard];
    const std::size_t room =
        degraded ? std::max<std::size_t>(1, config_.queue_capacity / 2)
                 : config_.queue_capacity;
    if (v.completions.size() >= room) {
      ++rep.dropped;
      ++rep.shards[shard].dropped;
      if (degraded && v.completions.size() < config_.queue_capacity) {
        ++rep.shed;  // would have been admitted at full capacity
      }
      WSP_TRACE_INSTANT("server", "drop/shard" + std::to_string(shard));
      gen.on_outcome(*arrival, arrival->at_cycles, /*dropped=*/true);
      continue;
    }

    const FaultConfig& fc =
        phased ? phase_faults[arrival->phase] : config_.faults;
    const FaultSchedule schedule =
        (phased ? phase_plans[arrival->phase] : plan)
            .schedule_for(arrival->id);
    const bool resume = arrival->resume;
    if (schedule.stall_scheduled) {
      WSP_TRACE_INSTANT_V("server.fault", "stall/shard" + std::to_string(shard),
                          schedule.stall_cycles);
    }
    const double service =
        modeled_service(price, arrival->transaction_bytes,
                        scenario.record_bytes, schedule, fc, resume);
    const double start = std::max(v.busy_until, arrival->at_cycles);
    const double completion = start + service;
    v.busy_until = completion;
    v.completions.push_back(completion);
    rep.shards[shard].peak_virtual_depth =
        std::max(rep.shards[shard].peak_virtual_depth, v.completions.size());
    rep.peak_sessions = std::max(rep.peak_sessions, in_system + 1);
    latencies.push_back(completion - arrival->at_cycles);
    rep.makespan_cycles = std::max(rep.makespan_cycles, completion);
    rep.platform_cycles_base +=
        price_one(base, arrival->transaction_bytes, resume);
    rep.platform_cycles_optimized +=
        price_one(opt, arrival->transaction_bytes, resume);
    ++rep.admitted;
    ++rep.shards[shard].admitted;
    gen.on_outcome(*arrival, completion, /*dropped=*/false);

    SessionEvent* out = &outcomes.emplace_back(
        SessionEvent{.id = arrival->id, .shard = shard});
    SessionConfig cfg;
    cfg.id = arrival->id;
    cfg.cipher = arrival->cipher;
    cfg.transaction_bytes = arrival->transaction_bytes;
    cfg.record_bytes = scenario.record_bytes;
    cfg.seed = arrival->session_seed;
    cfg.faults = schedule;
    const SessionTable::Inserted ins = table.insert(cfg);
    Session* session = ins.session;  // slab addresses are stable for life
    const SessionHandle handle = ins.handle;
    WSP_TRACE_COUNTER("server", "live_sessions",
                      static_cast<double>(table.size()));

    // Sessions admitted while degraded run at half the record batch: finer
    // quanta interleave shard work and cap how long one session can hold
    // the pump.  Decided here, on the virtual timeline, so it is
    // deterministic per session.
    const std::size_t batch =
        degraded ? std::max<std::size_t>(1, config_.record_batch / 2)
                 : config_.record_batch;
    push_session(shard, out, session, handle, resume,
                 fc.handshake_retry_budget, batch);
  }

  sched.drain();

  // Tally in arrival order, so every digest and the event stream are
  // thread-invariant.
  Digest digest;
  for (const SessionEvent& ev : outcomes) {
    ShardReport& sh = rep.shards[ev.shard];
    sh.events_digest = chain_events_digest(sh.events_digest, ev);
    rep.retried += ev.retries;
    rep.repaired += ev.repairs;
    rep.faults_injected += ev.faults;
    sh.retried += ev.retries;
    sh.repaired += ev.repairs;
    sh.faults_injected += ev.faults;
    rep.wire_bytes += ev.wire_bytes;
    rep.records += ev.records;
    sh.wire_bytes += ev.wire_bytes;
    sh.records += ev.records;
    digest.mix(ev.id);
    digest.mix(ev.wire_bytes);
    digest.mix(ev.records);
    if (ev.completed) {
      ++rep.completed;
      ++sh.completed;
    } else {
      // Anything not completed is aborted — the worker guarantees one of
      // the two — so completed + aborted == admitted (no leaked sessions).
      ++rep.aborted;
      ++sh.aborted;
      digest.mix(0xAB);  // distinguish an aborted triple from a completed one
    }
  }
  if (config_.record_events) {
    rep.events.assign(outcomes.begin(), outcomes.end());
  }
  rep.bytes_digest = digest.fold();

  std::sort(latencies.begin(), latencies.end());
  rep.latency.p50 = quantile(latencies, 0.50);
  rep.latency.p90 = quantile(latencies, 0.90);
  rep.latency.p99 = quantile(latencies, 0.99);
  rep.latency.max = latencies.empty() ? 0.0 : latencies.back();
  if (rep.makespan_cycles > 0.0) {
    rep.throughput_per_gcycle =
        static_cast<double>(rep.completed) * 1e9 / rep.makespan_cycles;
  }
  for (unsigned s = 0; s < shards; ++s) {
    rep.peak_virtual_depth =
        std::max(rep.peak_virtual_depth, rep.shards[s].peak_virtual_depth);
    const ShardCounters counters = sched.counters(s);
    rep.backpressure_waits += counters.backpressure_waits;
    rep.failed_tasks += counters.failed;
    rep.peak_real_depth = std::max(rep.peak_real_depth, counters.peak_depth);
  }
  if (rep.platform_cycles_optimized > 0.0) {
    rep.equivalent_speedup =
        rep.platform_cycles_base / rep.platform_cycles_optimized;
  }
  rep.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  return rep;
}

}  // namespace wsp::server
