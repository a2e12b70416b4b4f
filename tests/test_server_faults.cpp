// Tier-1 tests for the deterministic fault-injection layer (src/server/
// faults.*) and the recovery machinery it drives: FaultPlan purity, config
// validation, the session repair ladder (retransmit -> rekey -> abort), and
// the scheduler's exception containment.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "server/engine.h"
#include "server/faults.h"
#include "server/session.h"

namespace wsp {
namespace {

using server::FaultConfig;
using server::FaultPlan;
using server::FaultSchedule;
using server::Session;
using server::SessionConfig;
using server::SessionError;
using server::SessionErrorKind;
using server::SessionState;

// One shared small server key: generation dominates the test's cost.
const rsa::PrivateKey& server_key() {
  static const rsa::PrivateKey key = [] {
    Rng rng(601);
    return rsa::generate_key(512, rng);
  }();
  return key;
}

SessionConfig faulty_session(std::uint64_t id, ssl::Cipher cipher,
                             std::size_t bytes, const FaultSchedule& faults) {
  SessionConfig cfg;
  cfg.id = id;
  cfg.cipher = cipher;
  cfg.transaction_bytes = bytes;
  cfg.record_bytes = 256;
  cfg.seed = 0xFA000000 + id;
  cfg.faults = faults;
  return cfg;
}

void establish(Session& s) {
  ModexpEngine client{ModexpConfig{}}, server{ModexpConfig{}};
  s.handshake(server_key(), client, server);
}

FaultSchedule flips_every_record(std::uint64_t key = 7) {
  FaultSchedule f;
  f.key = key;  // nonzero: schedule is live
  f.wire_flip_rate = 1.0;
  f.record_retry_budget = 2;
  return f;
}

TEST(FaultPlan, SchedulesArePureFunctionsOfSeedAndId) {
  FaultConfig cfg;
  cfg.wire_flip_rate = 0.3;
  cfg.handshake_failure_rate = 0.3;
  cfg.abort_rate = 0.3;
  cfg.stall_rate = 0.3;
  const FaultPlan a(cfg, 42), b(cfg, 42), other(cfg, 43);
  bool any_diverged = false;
  for (std::uint64_t id = 0; id < 64; ++id) {
    const FaultSchedule sa = a.schedule_for(id);
    const FaultSchedule sb = b.schedule_for(id);
    EXPECT_EQ(sa.key, sb.key);
    EXPECT_EQ(sa.handshake_failures, sb.handshake_failures);
    EXPECT_EQ(sa.abort_scheduled, sb.abort_scheduled);
    EXPECT_EQ(sa.abort_record, sb.abort_record);
    EXPECT_EQ(sa.stall_scheduled, sb.stall_scheduled);
    EXPECT_EQ(sa.stall_cycles, sb.stall_cycles);
    // Per-record decisions are pure too: re-probing never changes them.
    for (std::uint64_t r = 0; r < 8; ++r) {
      EXPECT_EQ(sa.flip_attempts(r), sb.flip_attempts(r));
      EXPECT_EQ(sa.flip_attempts(r), sa.flip_attempts(r));
    }
    if (sa.key != other.schedule_for(id).key) any_diverged = true;
  }
  EXPECT_TRUE(any_diverged) << "different seeds must yield different chaos";
}

TEST(FaultPlan, DisabledConfigYieldsBenignSchedules) {
  const FaultPlan plan(FaultConfig{}, 42);
  EXPECT_FALSE(plan.enabled());
  for (std::uint64_t id = 0; id < 16; ++id) {
    const FaultSchedule s = plan.schedule_for(id);
    EXPECT_TRUE(s.benign());
    EXPECT_EQ(s.flip_attempts(id), 0u);
    EXPECT_FALSE(s.poisons(id));
  }
}

TEST(FaultPlan, RejectsMalformedConfig) {
  FaultConfig bad;
  bad.wire_flip_rate = 1.5;
  EXPECT_THROW(FaultPlan(bad, 1), std::invalid_argument);
  bad = FaultConfig{};
  bad.abort_rate = -0.1;
  EXPECT_THROW(FaultPlan(bad, 1), std::invalid_argument);
  bad = FaultConfig{};
  bad.stall_cycles = 0.0;
  EXPECT_THROW(FaultPlan(bad, 1), std::invalid_argument);
  bad = FaultConfig{};
  bad.backoff_cap_cycles = bad.backoff_base_cycles / 2;
  EXPECT_THROW(FaultPlan(bad, 1), std::invalid_argument);
}

TEST(SessionError, CarriesKindAndSessionId) {
  const SessionError e(SessionErrorKind::kAborted, 17, "budget exhausted");
  EXPECT_EQ(e.kind(), SessionErrorKind::kAborted);
  EXPECT_EQ(e.session_id(), 17u);
  EXPECT_NE(std::string(e.what()).find("17"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("aborted"), std::string::npos);
}

TEST(EngineConfigValidation, RejectsDegenerateConfigs) {
  auto expect_invalid = [](server::EngineConfig cfg) {
    EXPECT_THROW(server::Engine{cfg}, std::invalid_argument);
  };
  server::EngineConfig cfg;
  // shards = 0 is not degenerate any more: it resolves to the hardware
  // core count (clamped to [1, 64]).
  cfg.shards = 0;
  EXPECT_GE(server::Engine(cfg).config().shards, 1u);
  EXPECT_LE(server::Engine(cfg).config().shards, 64u);
  cfg = server::EngineConfig{};
  cfg.shards = 65;  // past what checkpoints and traces carry
  expect_invalid(cfg);
  cfg = server::EngineConfig{};
  cfg.queue_capacity = 0;
  expect_invalid(cfg);
  cfg = server::EngineConfig{};
  cfg.record_batch = 0;
  expect_invalid(cfg);
  cfg = server::EngineConfig{};
  cfg.rsa_bits = 256;  // too small to carry a 48-byte premaster safely
  expect_invalid(cfg);
  cfg = server::EngineConfig{};
  cfg.faults.handshake_failure_rate = 2.0;
  expect_invalid(cfg);
  // threads is host-dependent and stays clamped, not rejected.
  cfg = server::EngineConfig{};
  cfg.threads = 0;
  EXPECT_EQ(server::Engine(cfg).config().threads, 1u);
}

// Engine::run() validates the scenario before touching any shard state
// (docs/scenarios.md §3): a malformed TrafficScenario — hand-built or
// decoded from a hostile replay blob — must be rejected as
// std::invalid_argument, never half-executed.
TEST(TrafficScenarioValidation, RejectsDegenerateFlatScenarios) {
  auto expect_invalid = [](const server::TrafficScenario& sc) {
    server::EngineConfig cfg;
    cfg.shards = 2;
    server::Engine engine(cfg);
    EXPECT_THROW(engine.run(sc), std::invalid_argument);
  };
  auto base = [] {
    server::TrafficScenario sc;
    sc.sessions = 4;
    sc.ciphers = {ssl::Cipher::kRc4};
    sc.transaction_sizes = {512};
    return sc;
  };
  auto sc = base();
  sc.sessions = 0;
  expect_invalid(sc);
  sc = base();
  sc.ciphers.clear();
  expect_invalid(sc);
  sc = base();
  sc.transaction_sizes = {0};
  expect_invalid(sc);
  sc = base();
  sc.offered_load = -1.0;
  expect_invalid(sc);
  sc = base();
  sc.offered_load = std::numeric_limits<double>::infinity();
  expect_invalid(sc);
  sc = base();
  sc.model = server::ArrivalModel::kClosedLoop;
  sc.users = 0;
  expect_invalid(sc);
  sc = base();
  sc.think_cycles = -5.0;
  expect_invalid(sc);
  sc = base();
  sc.record_bytes = 0;
  expect_invalid(sc);
}

TEST(TrafficScenarioValidation, RejectsDegeneratePhasedPrograms) {
  auto expect_invalid = [](const server::TrafficScenario& sc) {
    server::EngineConfig cfg;
    cfg.shards = 2;
    server::Engine engine(cfg);
    EXPECT_THROW(engine.run(sc), std::invalid_argument);
  };
  auto base = [] {
    server::TrafficScenario sc;
    server::TrafficPhase ph;
    ph.name = "p";
    ph.sessions = 4;
    ph.cipher_mix = {{ssl::Cipher::kRc4, 1}};
    ph.size_mix = {{512, 1}};
    sc.phases = {ph};
    return sc;
  };
  auto sc = base();
  sc.phases[0].sessions = 0;
  expect_invalid(sc);
  sc = base();
  sc.phases[0].cipher_mix.clear();
  expect_invalid(sc);
  sc = base();
  sc.phases[0].size_mix = {{0, 1}};
  expect_invalid(sc);
  sc = base();
  sc.phases[0].cipher_mix[0].weight = 0;
  expect_invalid(sc);
  sc = base();
  sc.phases[0].resume_fraction = 1.5;
  expect_invalid(sc);
  sc = base();
  sc.phases[0].model = server::ArrivalModel::kClosedLoop;
  sc.phases[0].users = 0;
  expect_invalid(sc);
  sc = base();
  server::FaultConfig bad_faults;
  bad_faults.wire_flip_rate = 2.0;
  sc.phases[0].faults = bad_faults;
  expect_invalid(sc);
  // The benign phased baseline itself runs clean.
  sc = base();
  server::EngineConfig cfg;
  cfg.shards = 2;
  server::Engine engine(cfg);
  const auto report = engine.run(sc);
  EXPECT_EQ(report.completed + report.aborted, report.admitted);
}

// A stream-cipher session heals flipped records by plain retransmission:
// RC4 keystream and sequence numbers stay aligned across a rejected record,
// so the ladder never needs the rekey leg.
TEST(ServerSessionFaults, Rc4HealsFlippedRecordsByRetransmit) {
  Session s(faulty_session(1, ssl::Cipher::kRc4, 600, flips_every_record()));
  establish(s);
  s.pump(100);
  EXPECT_TRUE(s.finished());
  EXPECT_EQ(s.state(), SessionState::kEstablished);
  EXPECT_EQ(s.records(), 3u);
  EXPECT_GT(s.faults_seen(), 0u);
  EXPECT_GT(s.retries(), 0u);
  EXPECT_EQ(s.repairs(), 0u) << "stream ciphers must not need rekey";
  s.teardown();
  EXPECT_EQ(s.state(), SessionState::kClosed);
}

// A CBC session desyncs on a flipped record (the receiver's chaining IV is
// taken from the corrupted ciphertext), so retransmits keep failing and the
// ladder must escalate to rekey() — which genuinely repairs it.
TEST(ServerSessionFaults, CbcRecoversViaRekeyRepair) {
  Session s(faulty_session(2, ssl::Cipher::kAes128Cbc, 600,
                           flips_every_record()));
  establish(s);
  s.pump(100);
  EXPECT_TRUE(s.finished());
  EXPECT_EQ(s.records(), 3u);
  EXPECT_GT(s.repairs(), 0u) << "CBC desync requires the rekey leg";
  EXPECT_GT(s.rekeys(), 0u);
  EXPECT_GT(s.retries(), s.repairs()) << "retransmits precede each rekey";
}

// An unrecoverable record (every transmission corrupted) must exhaust the
// ladder and abort — never complete, never silently accept corrupt bytes.
TEST(ServerSessionFaults, PoisonedRecordExhaustsLadderAndAborts) {
  FaultSchedule f;
  f.key = 9;
  f.record_retry_budget = 2;
  f.abort_scheduled = true;
  f.abort_record = 1;  // record 0 clean, record 1 unrecoverable
  Session s(faulty_session(3, ssl::Cipher::kAes128Cbc, 600, f));
  establish(s);
  try {
    s.pump(100);
    FAIL() << "poisoned record must abort the session";
  } catch (const SessionError& e) {
    EXPECT_EQ(e.kind(), SessionErrorKind::kAborted);
    EXPECT_EQ(e.session_id(), 3u);
  }
  EXPECT_EQ(s.state(), SessionState::kAborted);
  EXPECT_EQ(s.records(), 1u) << "only the clean record may count";
  EXPECT_FALSE(s.finished());
  // Aborted is terminal: the lifecycle rejects further use, teardown is a
  // no-op, and abort() stays idempotent.
  EXPECT_THROW(s.pump(1), std::logic_error);
  EXPECT_THROW(s.rekey(), std::logic_error);
  s.teardown();
  EXPECT_EQ(s.state(), SessionState::kAborted);
  s.abort();
  EXPECT_EQ(s.state(), SessionState::kAborted);
}

// Scheduled handshake failures corrupt the premaster on the wire: the
// attempt fails with a typed error, the session stays kPending, and the
// scheduled number of retries later the exchange succeeds.
TEST(ServerSessionFaults, HandshakeFailsThenRecovers) {
  FaultSchedule f;
  f.key = 5;
  f.handshake_failures = 2;
  Session s(faulty_session(4, ssl::Cipher::kRc4, 256, f));
  ModexpEngine ce{ModexpConfig{}}, se{ModexpConfig{}};
  for (unsigned attempt = 0; attempt < 2; ++attempt) {
    try {
      s.handshake(server_key(), ce, se);
      FAIL() << "scheduled handshake failure must throw";
    } catch (const SessionError& e) {
      EXPECT_EQ(e.kind(), SessionErrorKind::kHandshakeFailed);
    }
    EXPECT_EQ(s.state(), SessionState::kPending) << "failure is retryable";
  }
  s.handshake(server_key(), ce, se);  // third attempt is clean
  EXPECT_EQ(s.state(), SessionState::kEstablished);
  EXPECT_EQ(s.handshake_attempts(), 3u);
  EXPECT_EQ(s.faults_seen(), 2u);
  s.pump(100);
  EXPECT_TRUE(s.finished());
}

// Satellite regression (ISSUE 5): a task that throws must not wedge its
// shard.  One poisoned task per shard, surrounded by real work — everything
// else still executes, the failure is counted, and drain() returns.
TEST(ServerScheduler, PoisonedTaskDoesNotWedgeItsShard) {
  ThreadPool pool(2);
  server::RecordScheduler sched(pool, 2, /*capacity=*/4, /*batch=*/2);
  std::atomic<int> ran{0};
  for (unsigned shard = 0; shard < 2; ++shard) {
    for (int i = 0; i < 10; ++i) {
      if (i == 3) {
        sched.push(shard, [] { throw std::runtime_error("poisoned task"); });
      } else {
        sched.push(shard, [&ran] { ran.fetch_add(1); });
      }
    }
  }
  sched.drain();
  EXPECT_EQ(ran.load(), 18) << "work after the poisoned task must still run";
  for (unsigned shard = 0; shard < 2; ++shard) {
    const auto counters = sched.counters(shard);
    EXPECT_EQ(counters.enqueued, 10u) << "shard " << shard;
    EXPECT_EQ(counters.executed, 10u) << "shard " << shard;
    EXPECT_EQ(counters.failed, 1u) << "shard " << shard;
  }
}

// The containment path must also wake producers blocked in push(): fill a
// tiny queue with throwing tasks and keep pushing — if a failure stalled
// the pump, the pushes (and this test) would deadlock.
TEST(ServerScheduler, ContainmentKeepsBackpressureFlowing) {
  ThreadPool pool(1);
  server::RecordScheduler sched(pool, 1, /*capacity=*/2, /*batch=*/1);
  for (int i = 0; i < 32; ++i) {
    sched.push(0, [] { throw std::runtime_error("always fails"); });
  }
  sched.drain();
  const auto counters = sched.counters(0);
  EXPECT_EQ(counters.executed, 32u);
  EXPECT_EQ(counters.failed, 32u);
  EXPECT_LE(counters.peak_depth, 2u);
}

}  // namespace
}  // namespace wsp
