#include "server/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>

#include "server/admission.h"
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

/// Stage 2, the data-plane executor: every admitted session really runs —
/// real RSA, real record stream, teardown — on the worker pool, through the bounded scheduler
/// and the sharded session table.  A shard's sessions are pumped FIFO on
/// one worker (scheduler.h).  The outcome ledger holds each admitted
/// session's SessionEvent in arrival order: its pump task writes it exactly
/// once, it is read only after a drain, and a session the task did not
/// complete is aborted.
class DataPlane {
 public:
  DataPlane(const EngineConfig& config, std::uint64_t seed)
      : key_seed_(seed ^ 0xC3A5C85C97CB3127ULL),
        rsa_bits_(config.rsa_bits),
        pool_(config.threads),
        table_(config.shards),
        sched_(pool_, config.shards, config.queue_capacity,
               config.record_batch) {}
  /// No worker may outlive the state its tasks touch, whichever way the
  /// run ends (a crash fault, a throwing checkpoint sink).
  ~DataPlane() { sched_.drain(); }
  DataPlane(const DataPlane&) = delete;  // queued tasks hold `this`
  DataPlane& operator=(const DataPlane&) = delete;

  /// Runs `a` on its shard's pump: establish, pump the record stream in
  /// quanta of `a.batch`, tear down, then finalize the outcome and erase
  /// the session exactly once.  Admissions and re-admitted parked sessions
  /// both come here.
  void admit(const Admission& a) {
    if (!a.resume && !key_) {
      // Made for the first full handshake: resumed sessions never touch
      // the key (no RSA exchange happens), and at 512 bits its generation
      // dominates the wall time of small resumed runs.
      Rng key_rng(key_seed_);
      key_ = rsa::generate_key(rsa_bits_, key_rng);
    }
    SessionEvent* out = &outcomes_.emplace_back(
        SessionEvent{.id = a.session.id, .shard = a.shard});
    const SessionTable::Inserted ins = table_.insert(a.session);
    WSP_TRACE_COUNTER("server", "live_sessions",
                      static_cast<double>(table_.size()));
    sched_.push(a.shard, [this, out, session = ins.session,
                          handle = ins.handle, resume = a.resume,
                          budget = a.handshake_budget, batch = a.batch] {
      try {
        if (!establish(session, resume, budget)) {
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
      table_.erase(handle);
    });
  }

  /// A session finalized before a checkpoint, restored verbatim.
  void restore(const SessionEvent& finalized) {
    outcomes_.push_back(finalized);
  }

  /// Every pushed work item has executed (proven by the scheduler, not
  /// assumed), so every admitted session has finalized its outcome and left
  /// the table.  Verified before a checkpoint serializes anything.
  void quiesce() {
    sched_.quiesce();
    if (table_.size() != 0) {
      throw std::logic_error(
          "server: quiesce barrier found " + std::to_string(table_.size()) +
          " live sessions — the data plane did not quiesce");
    }
  }

  void drain() { sched_.drain(); }

  const std::deque<SessionEvent>& outcomes() const { return outcomes_; }

  /// After drain(): the per-shard outcome counters, event digests and the
  /// bytes digest, tallied in arrival order so every digest and the event
  /// stream are thread-invariant, plus the host-side scheduler counters.
  void tally(RunReport& rep, bool record_events) const {
    Digest digest;
    for (const SessionEvent& ev : outcomes_) {
      ShardReport& sh = rep.shards[ev.shard];
      sh.events_digest = chain_events_digest(sh.events_digest, ev);
      sh.retried += ev.retries;
      sh.repaired += ev.repairs;
      sh.faults_injected += ev.faults;
      sh.wire_bytes += ev.wire_bytes;
      sh.records += ev.records;
      digest.mix(ev.id);
      digest.mix(ev.wire_bytes);
      digest.mix(ev.records);
      if (ev.completed) {
        ++sh.completed;
      } else {
        // Anything not completed is aborted — the worker guarantees one of
        // the two — so completed + aborted == admitted (no leaked sessions).
        ++sh.aborted;
        digest.mix(0xAB);  // distinguish an aborted triple from a completed one
      }
    }
    if (record_events) rep.events.assign(outcomes_.begin(), outcomes_.end());
    rep.bytes_digest = digest.fold();
    for (unsigned s = 0; s < rep.shards.size(); ++s) {
      const ShardCounters counters = sched_.counters(s);
      rep.backpressure_waits += counters.backpressure_waits;
      rep.failed_tasks += counters.failed;
      rep.peak_real_depth = std::max(rep.peak_real_depth, counters.peak_depth);
    }
  }

 private:
  /// The handshake retry ladder: returns true when the session aborted
  /// instead of establishing.  Called from worker threads.
  bool establish(Session* session, bool resume, unsigned budget) const {
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
          session->handshake(*key_, client_engine, server_engine);
        }
        return false;
      } catch (const SessionError& e) {
        if (e.kind() != SessionErrorKind::kHandshakeFailed ||
            attempt >= budget) {
          session->abort();
          return true;
        }
        // Retry; the matching exponential backoff is priced on the
        // virtual timeline by the admission model.
      }
    }
  }

  // Declaration order is teardown order in reverse: the scheduler goes
  // first, while the pool, table, ledger and key its tasks use still live.
  std::uint64_t key_seed_;
  std::size_t rsa_bits_;
  std::optional<rsa::PrivateKey> key_;  ///< one per run: the server identity
  std::deque<SessionEvent> outcomes_;  ///< stable addresses under push_back
  ThreadPool pool_;
  SessionTable table_;
  RecordScheduler sched_;
};

/// Stage 3, checkpoint barriers (docs/recovery.md): at every multiple of
/// checkpoint_every on the virtual clock, quiesce the data plane and hand
/// the full run state to the sink; on resume, put a checkpoint's state
/// back into the other two stages.
class Barrier {
 public:
  explicit Barrier(const EngineConfig& config)
      : sink_(config.checkpoint_every > 0.0 ? config.checkpoint_sink
                                            : nullptr),
        every_(config.checkpoint_every),
        next_(every_) {}

  /// Takes every barrier due at or before `limit`.
  void fire_due(double limit, const AdmissionModel& model, DataPlane& plane) {
    for (; sink_ != nullptr && next_ <= limit; next_ += every_) {
      WSP_TRACE_SPAN("server", "checkpoint");
      plane.quiesce();
      EngineCheckpoint cp;
      cp.seq = seq_++;
      cp.virtual_now = next_;
      model.capture(cp);
      cp.entries.reserve(plane.outcomes().size());
      for (const SessionEvent& ev : plane.outcomes()) {
        CheckpointShard& csh = cp.shards[ev.shard];
        csh.events_digest = chain_events_digest(csh.events_digest, ev);
        cp.entries.emplace_back().event = ev;
      }
      sink_->on_checkpoint(cp);
    }
  }

  /// Re-arms the admission model and refills the outcome ledger in arrival
  /// order: finalized outcomes verbatim, parked sessions (legacy traces
  /// only) re-admitted onto the pump as the arrivals they were.
  void restore(const EngineCheckpoint& cp, AdmissionModel& model,
               DataPlane& plane) {
    model.restore(cp);
    for (const CheckpointEntry& e : cp.entries) {
      if (!e.parked) {
        plane.restore(e.event);
        continue;
      }
      const ParkedSession& p = e.parked_info;
      plane.admit(model.admission(SessionArrival{
          .id = e.event.id,
          .cipher = p.cipher,
          .transaction_bytes = static_cast<std::size_t>(p.transaction_bytes),
          .session_seed = p.session_seed,
          .phase = p.phase,
          .resume = p.resume}));
    }
    seq_ = cp.seq + 1;
    next_ = cp.virtual_now + every_;
  }

 private:
  CheckpointSink* sink_;  ///< nullptr = no barriers
  double every_;
  double next_;
  std::uint64_t seq_ = 0;
};

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

void RunReport::sum_shards() {
  admitted = dropped = completed = aborted = 0;
  retried = repaired = faults_injected = wire_bytes = records = 0;
  for (const ShardReport& sh : shards) {
    admitted += sh.admitted;
    dropped += sh.dropped;
    completed += sh.completed;
    aborted += sh.aborted;
    retried += sh.retried;
    repaired += sh.repaired;
    faults_injected += sh.faults_injected;
    wire_bytes += sh.wire_bytes;
    records += sh.records;
  }
}

void EngineConfig::validate() const {
  if (shards > 64) {
    // The checkpoint codec and the trace readers stop at 64 as well.
    throw std::invalid_argument(
        "server: EngineConfig.shards must be <= 64 (0 = auto)");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument(
        "server: EngineConfig.queue_capacity must be > 0");
  }
  if (record_batch == 0) {
    throw std::invalid_argument(
        "server: EngineConfig.record_batch must be > 0");
  }
  if (rsa_bits < 512) {
    throw std::invalid_argument(
        "server: EngineConfig.rsa_bits must be >= 512");
  }
  faults.validate();
  if (!std::isfinite(checkpoint_every) || checkpoint_every < 0.0) {
    throw std::invalid_argument(
        "server: EngineConfig.checkpoint_every must be finite and >= 0");
  }
}

Engine::Engine(const EngineConfig& config) : config_(config) {
  if (config_.shards == 0) {
    // Auto: scale the data plane with the machine.  Callers that need
    // cross-host reproducible virtual timelines pin an explicit count.
    const unsigned hw = std::thread::hardware_concurrency();
    config_.shards = std::clamp(hw == 0 ? 4u : hw, 1u, 64u);
  }
  config_.validate();
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

  AdmissionModel model(config_, scenario);  // validates the scenario first
  DataPlane plane(config_, scenario.seed);
  Barrier barrier(config_);
  if (restore != nullptr) barrier.restore(*restore, model, plane);

  // The crash deadline is detected at arrival granularity: the first
  // arrival at/after it kills the run.
  const double crash_at = model.crash_at();
  while (const std::optional<SessionArrival> arrival = model.next()) {
    // Barriers due at/before this arrival fire first (over the pre-draw
    // generator state), then an armed crash kills the run before the
    // arrival is offered.  The order matters: a barrier scheduled before
    // the crash deadline must reach the trace even when both land between
    // the same two arrivals.
    const double now = arrival->at_cycles;
    const bool crash_now = crash_at > 0.0 && now >= crash_at;
    barrier.fire_due(crash_now ? crash_at : now, model, plane);
    if (crash_now) throw CrashFault(now, crash_at);
    if (const std::optional<Admission> a = model.offer(*arrival)) {
      plane.admit(*a);
    }
  }
  plane.drain();

  RunReport rep = model.report();
  plane.tally(rep, config_.record_events);
  rep.sum_shards();
  rep.threads = config_.threads;
  rep.memory_per_session = SessionTable::bytes_per_session();
  if (rep.makespan_cycles > 0.0) {
    rep.throughput_per_gcycle =
        static_cast<double>(rep.completed) * 1e9 / rep.makespan_cycles;
  }
  rep.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  return rep;
}

}  // namespace wsp::server
