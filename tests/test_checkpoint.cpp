// Tier-1 tests for the crash-fault tolerance layer (docs/recovery.md):
// TrafficGenerator state snapshots, the EngineCheckpoint chunk codec and
// its semantic validator, quiesce-barrier invariants, the CrashFault
// contract, RunRecorder torn traces, and the scan -> resume pipeline —
// including truncation at every checkpoint-chunk boundary and rejection of
// CRC-valid-but-lying checkpoints (stale slab handles, tampered digests).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "golden_chaos_trace.h"
#include "golden_checkpoint_trace.h"
#include "legacy_flat_closed_trace.h"
#include "legacy_lanes8_trace.h"
#include "server/checkpoint.h"
#include "server/engine.h"
#include "server/record.h"
#include "server/traffic.h"
#include "support/replay.h"

namespace wsp {
namespace {

using replay::ErrorKind;
using replay::ReplayError;

server::TrafficScenario crash_mix(std::uint64_t seed, std::size_t sessions) {
  server::TrafficScenario s;
  s.seed = seed;
  s.sessions = sessions;
  s.model = server::ArrivalModel::kOpenLoop;
  s.offered_load = 0.8;
  s.ciphers = {ssl::Cipher::kRc4, ssl::Cipher::kAes128Cbc,
               ssl::Cipher::kTripleDesCbc};
  s.transaction_sizes = {512, 2048};
  s.record_bytes = 512;
  return s;
}

server::EngineConfig engine_cfg(unsigned threads) {
  server::EngineConfig cfg;
  cfg.threads = threads;
  cfg.shards = 4;
  cfg.queue_capacity = 32;
  cfg.record_batch = 4;
  cfg.record_events = true;
  return cfg;
}

/// Captures every barrier checkpoint by value.
struct CollectSink final : server::CheckpointSink {
  std::vector<server::EngineCheckpoint> taken;
  void on_checkpoint(const server::EngineCheckpoint& cp) override {
    taken.push_back(cp);
  }
};

// --- traffic generator snapshots -------------------------------------------

TEST(CheckpointGenerator, SnapshotRestoreResumesDrawSequenceExactly) {
  const auto scenario = crash_mix(11, 40);
  server::TrafficGenerator gen(scenario, 5.0e6, 4);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(gen.next().has_value());

  const server::TrafficGeneratorState snap = gen.state();
  server::TrafficGenerator fresh(scenario, 5.0e6, 4);
  fresh.restore(snap);

  // Every remaining draw must be identical, field for field.
  while (true) {
    const auto a = gen.next();
    const auto b = fresh.next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) break;
    EXPECT_EQ(a->id, b->id);
    EXPECT_EQ(a->at_cycles, b->at_cycles);
    EXPECT_EQ(a->cipher, b->cipher);
    EXPECT_EQ(a->transaction_bytes, b->transaction_bytes);
    EXPECT_EQ(a->session_seed, b->session_seed);
    EXPECT_EQ(a->phase, b->phase);
    EXPECT_EQ(a->resume, b->resume);
  }
}

TEST(CheckpointGenerator, ClosedLoopPendingArrivalsSurviveSnapshot) {
  auto scenario = crash_mix(12, 24);
  scenario.model = server::ArrivalModel::kClosedLoop;
  scenario.users = 4;
  scenario.think_cycles = 1e6;
  server::TrafficGenerator gen(scenario, 5.0e6, 4);
  // Drain a few arrivals and feed completions back so the ready heap has
  // genuine content when the snapshot is taken.
  for (int i = 0; i < 6; ++i) {
    const auto a = gen.next();
    ASSERT_TRUE(a.has_value());
    gen.on_outcome(*a, a->at_cycles + 2.0e6, false);
  }
  const auto snap = gen.state();
  EXPECT_FALSE(snap.ready.empty());
  // Canonical form: ascending, whatever order the live heap keeps.
  EXPECT_TRUE(std::is_sorted(snap.ready.begin(), snap.ready.end()));

  server::TrafficGenerator fresh(scenario, 5.0e6, 4);
  fresh.restore(snap);
  const auto a = gen.next();
  const auto b = fresh.next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->id, b->id);
  EXPECT_EQ(a->at_cycles, b->at_cycles);
  EXPECT_EQ(a->user, b->user);
}

// --- checkpoint codec -------------------------------------------------------

/// Runs the scenario with barriers armed and returns the captured
/// checkpoints (at least one, asserted).
std::vector<server::EngineCheckpoint> capture_checkpoints(
    const server::TrafficScenario& scenario, unsigned threads, double every) {
  CollectSink sink;
  server::EngineConfig cfg = engine_cfg(threads);
  cfg.checkpoint_every = every;
  cfg.checkpoint_sink = &sink;
  server::Engine engine(cfg);
  (void)engine.run(scenario);
  EXPECT_FALSE(sink.taken.empty()) << "barrier interval too long for this run";
  return sink.taken;
}

TEST(CheckpointCodec, EncodeDecodeIsIdentityOnRealCheckpoints) {
  const auto scenario = crash_mix(21, 32);
  for (const auto& cp : capture_checkpoints(scenario, 2, 2.0e7)) {
    std::vector<std::uint8_t> payload;
    server::encode_checkpoint(payload, cp);
    const server::EngineCheckpoint back = server::decode_checkpoint(payload);
    EXPECT_EQ(back, cp) << "seq " << cp.seq;
    // A freshly captured checkpoint must also pass semantic validation.
    EXPECT_NO_THROW(server::validate_checkpoint(back));
  }
}

TEST(CheckpointCodec, TruncatedPayloadThrowsTyped) {
  const auto scenario = crash_mix(22, 24);
  const auto cps = capture_checkpoints(scenario, 1, 3.0e7);
  std::vector<std::uint8_t> payload;
  server::encode_checkpoint(payload, cps.back());
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, payload.size() / 2,
                          payload.size() - 1}) {
    std::vector<std::uint8_t> prefix(payload.begin(), payload.begin() + cut);
    EXPECT_THROW((void)server::decode_checkpoint(prefix), ReplayError)
        << "cut=" << cut;
  }
  // Trailing garbage is damage too, not padding.
  auto padded = payload;
  padded.push_back(0);
  EXPECT_THROW((void)server::decode_checkpoint(padded), ReplayError);
}

// An entry's shard index is range-checked on the full decoded value: a
// CRC-valid 2^32 must not narrow to shard 0 and pass.
TEST(CheckpointCodec, EntryShardWiderThan32BitsIsMalformed) {
  server::EngineCheckpoint cp;
  cp.offered = 1;
  cp.shards.resize(1);
  cp.shards[0].admitted = 1;
  cp.latencies = {5.0};
  cp.entries.resize(1);
  cp.entries[0].event.completed = true;
  cp.shards[0].events_digest =
      server::chain_events_digest(0, cp.entries[0].event);
  cp.generator.rng.s[0] = 1;
  cp.generator.next_id = 1;
  std::vector<std::uint8_t> payload;
  server::encode_checkpoint(payload, cp);
  ASSERT_NO_THROW((void)server::decode_checkpoint(payload));

  // Header (4 counters, flag, doubles and peak), one shard with no pending
  // completions, one latency, the entry count and the first id delta.
  replay::Cursor c(payload);
  for (char kind : std::string("vdvvvvdvddvdvvvvvvdvv")) {
    kind == 'd' ? (void)c.f64() : (void)c.varint();
  }
  const std::size_t at = c.offset();
  ASSERT_EQ(payload[at], 0u);  // the entry's shard, one byte
  std::vector<std::uint8_t> wide(payload.begin(), payload.begin() + at);
  replay::put_varint(wide, std::uint64_t{1} << 32);
  wide.insert(wide.end(), payload.begin() + at + 1, payload.end());
  try {
    (void)server::decode_checkpoint(wide);
    FAIL() << "shard 2^32 accepted";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformed) << e.what();
  }
}

TEST(CheckpointCodec, StaleSlabHandleGenerationIsMalformed) {
  // Parked entries only exist in traces recorded with lanes > 1, hence the
  // legacy fixture.
  const auto scan = server::scan_trace_for_resume(testdata::kLegacyLanes8Trace);
  bool saw_parked = false;
  for (const auto& cp : scan.checkpoints) {
    for (const auto& entry : cp.entries) {
      if (!entry.parked) continue;
      saw_parked = true;
      // A live handle's generation is odd; an even one is a handle that was
      // already recycled when the checkpoint claims it was live.
      EXPECT_EQ(entry.parked_info.handle.gen % 2, 1u);
      server::EngineCheckpoint bad = cp;
      for (auto& e : bad.entries) {
        if (e.parked) e.parked_info.handle.gen &= ~1u;
      }
      try {
        server::validate_checkpoint(bad);
        FAIL() << "stale generation accepted";
      } catch (const ReplayError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kMalformed);
        EXPECT_NE(std::string(e.what()).find("stale"), std::string::npos);
      }
      break;
    }
  }
  EXPECT_TRUE(saw_parked) << "the legacy fixture carries no parked entries";
}

TEST(CheckpointCodec, TamperedShardDigestIsMalformed) {
  const auto scenario = crash_mix(24, 32);
  auto cps = capture_checkpoints(scenario, 1, 2.0e7);
  server::EngineCheckpoint cp = cps.back();
  ASSERT_FALSE(cp.shards.empty());
  // Find a shard with finalized entries (nonzero digest chain) and lie
  // about it: the validator recomputes the chain and must disagree.
  bool tampered = false;
  for (auto& sh : cp.shards) {
    if (sh.events_digest == 0) continue;
    sh.events_digest ^= 0x1;
    tampered = true;
    break;
  }
  ASSERT_TRUE(tampered) << "no shard had finalized entries at the barrier";
  try {
    server::validate_checkpoint(cp);
    FAIL() << "tampered digest accepted";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformed);
  }
}

// --- quiesce invariants -----------------------------------------------------

TEST(CheckpointQuiesce, ScalarPlaneParksNothing) {
  const auto scenario = crash_mix(31, 32);
  for (const auto& cp : capture_checkpoints(scenario, 4, 1.5e7)) {
    for (const auto& entry : cp.entries) {
      EXPECT_FALSE(entry.parked)
          << "quiesce must finalize every admitted session";
    }
    EXPECT_EQ(cp.latencies.size(), cp.admitted());
  }
}

TEST(CheckpointQuiesce, CountsAndTimesAreCoherent) {
  const auto scenario = crash_mix(32, 48);
  double prev_now = -1.0;
  std::uint64_t seq = 0;
  for (const auto& cp : capture_checkpoints(scenario, 2, 1.0e7)) {
    EXPECT_EQ(cp.seq, seq++);
    EXPECT_GT(cp.virtual_now, prev_now);
    prev_now = cp.virtual_now;
    EXPECT_LE(cp.admitted(), cp.offered);
    EXPECT_EQ(cp.shards.size(), 4u);
    std::uint64_t shard_admitted = 0;
    for (const auto& sh : cp.shards) shard_admitted += sh.admitted;
    EXPECT_EQ(shard_admitted, cp.admitted());
  }
}

// --- legacy traces with parked entries -------------------------------------

// The only traces whose checkpoints carry parked entries were recorded with
// batch lanes > 1.  They must still scan, and resume must re-admit every
// parked entry onto the pump and finish bit-identically to a fresh run of
// the same scenario and config, at any thread count.
TEST(CheckpointLegacy, Lanes8TraceResumesBitIdenticallyToAFreshRun) {
  const auto scan = server::scan_trace_for_resume(testdata::kLegacyLanes8Trace);
  EXPECT_FALSE(scan.complete);
  ASSERT_EQ(scan.checkpoints.size(),
            testdata::kLegacyLanes8CheckpointOffsets.size());
  std::size_t parked = 0;
  for (const auto& cp : scan.checkpoints) {
    for (const auto& entry : cp.entries) parked += entry.parked ? 1 : 0;
  }
  EXPECT_GE(parked, 1u);

  const auto fresh = server::Engine(testdata::legacy_lanes8_config())
                         .run(testdata::legacy_lanes8_scenario());
  for (unsigned threads : {1u, 4u}) {
    const auto result = server::resume_run(scan, threads);
    const auto mismatches = server::compare_reports(fresh, result.report);
    EXPECT_TRUE(mismatches.empty())
        << "threads=" << threads << ": " << mismatches.front();
  }
}

/// Every kCheckpoint chunk payload of `trace`, in order (a torn trace ends
/// after its last whole checkpoint).
std::vector<std::vector<std::uint8_t>> checkpoint_payloads(
    const std::vector<std::uint8_t>& trace) {
  std::vector<std::vector<std::uint8_t>> out;
  replay::ChunkReader reader(trace);
  try {
    while (auto chunk = reader.next()) {
      if (chunk->tag ==
          static_cast<std::uint64_t>(server::RecordChunk::kCheckpoint)) {
        out.push_back(chunk->payload);
      }
    }
  } catch (const replay::ReplayError&) {
    // The trace is torn after its last checkpoint (it records a crash).
  }
  return out;
}

// Every checkpoint payload of the legacy trace, parked entries included,
// re-encodes to the exact bytes it was decoded from: the entry codec still
// writes the layout those recorders wrote.
TEST(CheckpointLegacy, Lanes8CheckpointPayloadsReencodeByteIdentically) {
  const auto payloads = checkpoint_payloads(testdata::kLegacyLanes8Trace);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    std::vector<std::uint8_t> again;
    server::encode_checkpoint(again, server::decode_checkpoint(payloads[i]));
    EXPECT_EQ(again, payloads[i]) << "checkpoint " << i;
  }
  EXPECT_EQ(payloads.size(), testdata::kLegacyLanes8CheckpointOffsets.size());
}

// The flat closed-loop fixture stores the generator state of the arrival
// path flat scenarios had before they ran as one-phase programs: phase not
// entered, no phase arrivals counted, the user stagger already drawn.
TEST(CheckpointLegacy, FlatClosedLoopTraceCarriesTheFlatGeneratorState) {
  const auto payloads = checkpoint_payloads(testdata::kLegacyFlatClosedTrace);
  ASSERT_EQ(payloads.size(),
            testdata::kLegacyFlatClosedCheckpointOffsets.size());
  for (const auto& payload : payloads) {
    const auto cp = server::decode_checkpoint(payload);
    EXPECT_FALSE(cp.generator.phase_entered);
    EXPECT_EQ(cp.generator.phase_done, 0u);
    EXPECT_GT(cp.generator.next_id, 0u);
    EXPECT_FALSE(cp.generator.ready.empty());
    std::vector<std::uint8_t> again;
    server::encode_checkpoint(again, cp);
    EXPECT_EQ(again, payload) << "checkpoint " << cp.seq;
  }
}

// Both flat legacy fixtures — open loop (lanes 8) and closed loop — resume
// from EVERY checkpoint they hold, at 1 and 8 threads, bit-identically to a
// fresh run of the same scenario.  A naive one-phase restore would re-enter
// the closed-loop phase and draw the user stagger a second time.
TEST(CheckpointLegacy, FlatTracesResumeFromEveryCheckpointAt1And8Threads) {
  struct Fixture {
    const std::vector<std::uint8_t>& trace;
    server::TrafficScenario scenario;
    server::EngineConfig config;
  };
  const Fixture fixtures[] = {
      {testdata::kLegacyLanes8Trace, testdata::legacy_lanes8_scenario(),
       testdata::legacy_lanes8_config()},
      {testdata::kLegacyFlatClosedTrace,
       testdata::legacy_flat_closed_scenario(),
       testdata::legacy_flat_closed_config()},
  };
  for (const Fixture& f : fixtures) {
    const auto fresh = server::Engine(f.config).run(f.scenario);
    const auto scan = server::scan_trace_for_resume(f.trace);
    ASSERT_FALSE(scan.checkpoints.empty());
    for (std::size_t k = 1; k <= scan.checkpoints.size(); ++k) {
      server::ResumeScan prefix = scan;
      prefix.checkpoints.resize(k);
      for (unsigned threads : {1u, 8u}) {
        const auto result = server::resume_run(prefix, threads);
        const auto mismatches = server::compare_reports(fresh, result.report);
        EXPECT_TRUE(mismatches.empty())
            << "seed " << f.scenario.seed << ", checkpoint " << k - 1
            << ", threads " << threads << ": " << mismatches.front();
      }
    }
  }
}

// --- crafted u32 fields -----------------------------------------------------

/// Offset of the first byte where the encodings of `cp` and `changed`
/// differ: the start of the one field `changed` altered.
std::size_t field_offset(const server::EngineCheckpoint& cp,
                         const server::EngineCheckpoint& changed) {
  std::vector<std::uint8_t> a, b;
  server::encode_checkpoint(a, cp);
  server::encode_checkpoint(b, changed);
  return static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first - a.begin());
}

/// The varint at `at` set to 2^32 + 3 must be kMalformed at exactly `at`,
/// not decoded as 3.
void expect_u32_checked(const std::vector<std::uint8_t>& payload,
                        std::size_t at, const char* what) {
  const auto crafted =
      testdata::replace_varint(payload, at, (std::uint64_t{1} << 32) + 3);
  try {
    (void)server::decode_checkpoint(crafted);
    FAIL() << what << " past 2^32 accepted";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformed) << what << ": " << e.what();
    EXPECT_EQ(e.offset(), at) << what << ": " << e.what();
  }
}

/// The first lanes-8 checkpoint with a parked entry, and that entry's index.
std::pair<std::vector<std::uint8_t>, std::size_t> parked_payload() {
  for (const auto& payload : checkpoint_payloads(testdata::kLegacyLanes8Trace)) {
    const auto cp = server::decode_checkpoint(payload);
    for (std::size_t i = 0; i < cp.entries.size(); ++i) {
      if (cp.entries[i].parked) return {payload, i};
    }
  }
  ADD_FAILURE() << "the legacy fixture carries no parked entries";
  return {};
}

TEST(CheckpointCrafted, ParkedPhaseIsRangeChecked) {
  const auto [payload, i] = parked_payload();
  const auto cp = server::decode_checkpoint(payload);
  auto changed = cp;
  changed.entries[i].parked_info.phase ^= 1;
  expect_u32_checked(payload, field_offset(cp, changed), "parked phase");
}

TEST(CheckpointCrafted, ParkedHandleSlotIsRangeChecked) {
  const auto [payload, i] = parked_payload();
  const auto cp = server::decode_checkpoint(payload);
  auto changed = cp;
  changed.entries[i].parked_info.handle.slot ^= 1;
  expect_u32_checked(payload, field_offset(cp, changed), "handle slot");
}

TEST(CheckpointCrafted, ParkedHandleGenerationIsRangeChecked) {
  const auto [payload, i] = parked_payload();
  const auto cp = server::decode_checkpoint(payload);
  auto changed = cp;
  changed.entries[i].parked_info.handle.gen ^= 1;
  expect_u32_checked(payload, field_offset(cp, changed), "handle generation");
}

TEST(CheckpointCrafted, PendingArrivalUserIsRangeChecked) {
  const auto payload =
      checkpoint_payloads(testdata::kLegacyFlatClosedTrace).front();
  const auto cp = server::decode_checkpoint(payload);
  ASSERT_FALSE(cp.generator.ready.empty());
  auto changed = cp;
  changed.generator.ready.front().second ^= 1;
  expect_u32_checked(payload, field_offset(cp, changed), "pending user");
}

/// `cp` with `mutate` applied, re-encoded (the encoder checks nothing) and
/// decoded again: the decode must fail as kMalformed.
template <class Mutate>
void expect_crafted_malformed(server::EngineCheckpoint cp, Mutate mutate,
                              const char* what) {
  mutate(cp);
  std::vector<std::uint8_t> payload;
  server::encode_checkpoint(payload, cp);
  try {
    (void)server::decode_checkpoint(payload);
    FAIL() << what << " accepted";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformed) << what << ": " << e.what();
  }
}

/// The golden fixture's first checkpoint: closed-loop phase entered,
/// pending arrivals, finalized entries on both shards.
server::EngineCheckpoint golden_checkpoint() {
  return server::decode_checkpoint(
      checkpoint_payloads(testdata::kGoldenCheckpointTrace).front());
}

TEST(CheckpointCrafted, NonFiniteDoublesAreMalformed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto cp = golden_checkpoint();
  ASSERT_FALSE(cp.latencies.empty());
  expect_crafted_malformed(
      cp, [&](auto& c) { c.shards[1].busy_until = nan; }, "NaN busy_until");
  expect_crafted_malformed(
      cp, [&](auto& c) { c.latencies.back() = nan; }, "NaN latency");
  expect_crafted_malformed(
      cp, [&](auto& c) { c.generator.open_clock = nan; }, "NaN open_clock");
  expect_crafted_malformed(
      cp, [&](auto& c) { c.virtual_now = inf; }, "infinite virtual_now");
}

TEST(CheckpointCrafted, AllZeroRngStateIsMalformed) {
  expect_crafted_malformed(
      golden_checkpoint(), [](auto& c) { c.generator.rng = {}; },
      "all-zero rng state");
}

TEST(CheckpointCrafted, DescendingPendingArrivalsAreMalformed) {
  const auto cp = golden_checkpoint();
  ASSERT_GE(cp.generator.ready.size(), 2u);
  ASSERT_LT(cp.generator.ready[0].first, cp.generator.ready[1].first);
  expect_crafted_malformed(
      cp,
      [](auto& c) { std::swap(c.generator.ready[0], c.generator.ready[1]); },
      "descending ready");
}

TEST(CheckpointCrafted, MorePendingCompletionsThanAdmissionsIsMalformed) {
  expect_crafted_malformed(
      golden_checkpoint(),
      [](auto& c) {
        auto& sh = c.shards[0];
        sh.completions.assign(sh.admitted + 1, sh.busy_until);
      },
      "pending completions past admissions");
}

TEST(CheckpointCrafted, ShardCountOutsideOneTo64IsMalformed) {
  const auto cp = golden_checkpoint();
  expect_crafted_malformed(
      cp, [](auto& c) { c.shards.clear(); }, "0 shards");
  expect_crafted_malformed(
      cp, [](auto& c) { c.shards.resize(65); }, "65 shards");
}

// --- golden checkpoint fixture ----------------------------------------------

TEST(CheckpointGolden, FixtureHoldsAnEnteredClosedPhaseAndPendingArrivals) {
  const auto scan =
      server::scan_trace_for_resume(testdata::kGoldenCheckpointTrace);
  EXPECT_TRUE(scan.complete);
  ASSERT_EQ(scan.checkpoints.size(), testdata::kGoldenCheckpointOffsets.size());
  ASSERT_TRUE(scan.record.scenario.phases.at(0).faults.has_value());
  for (const auto& cp : scan.checkpoints) {
    EXPECT_TRUE(cp.generator.phase_entered) << "checkpoint " << cp.seq;
    EXPECT_FALSE(cp.generator.ready.empty()) << "checkpoint " << cp.seq;
    EXPECT_FALSE(cp.entries.empty()) << "checkpoint " << cp.seq;
    for (const auto& e : cp.entries) EXPECT_FALSE(e.parked);
  }
  EXPECT_EQ(scan.checkpoints.front().generator.phase_idx, 0u);
}

TEST(CheckpointGolden, PayloadsReencodeByteIdentically) {
  const auto payloads = checkpoint_payloads(testdata::kGoldenCheckpointTrace);
  ASSERT_EQ(payloads.size(), testdata::kGoldenCheckpointOffsets.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    std::vector<std::uint8_t> again;
    server::encode_checkpoint(again, server::decode_checkpoint(payloads[i]));
    EXPECT_EQ(again, payloads[i]) << "checkpoint " << i;
  }
}

TEST(CheckpointGolden, ResumeFromEveryCheckpointMatchesAFreshRun) {
  const auto fresh = server::Engine(testdata::golden_checkpoint_config())
                         .run(testdata::golden_checkpoint_scenario());
  const auto scan =
      server::scan_trace_for_resume(testdata::kGoldenCheckpointTrace);
  ASSERT_FALSE(scan.checkpoints.empty());
  EXPECT_TRUE(server::compare_reports(scan.record.report, fresh).empty());
  for (std::size_t k = 1; k <= scan.checkpoints.size(); ++k) {
    server::ResumeScan prefix = scan;
    prefix.checkpoints.resize(k);
    for (unsigned threads : {1u, 4u}) {
      const auto result = server::resume_run(prefix, threads);
      EXPECT_TRUE(result.ok()) << "checkpoint " << k - 1;
      const auto mismatches = server::compare_reports(fresh, result.report);
      EXPECT_TRUE(mismatches.empty())
          << "checkpoint " << k - 1 << ", threads " << threads << ": "
          << mismatches.front();
    }
  }
}

// --- crash + restore --------------------------------------------------------

TEST(CheckpointCrash, CrashFaultCarriesTimingAndFiresDueBarriers) {
  const auto scenario = crash_mix(41, 32);
  const auto ref = server::Engine(engine_cfg(1)).run(scenario);
  const double crash_at = ref.makespan_cycles * 0.5;

  CollectSink sink;
  server::EngineConfig cfg = engine_cfg(1);
  cfg.checkpoint_every = crash_at / 4.0;
  cfg.checkpoint_sink = &sink;
  cfg.faults.crash_at_cycles = crash_at;
  server::Engine engine(cfg);
  try {
    (void)engine.run(scenario);
    FAIL() << "expected CrashFault";
  } catch (const server::CrashFault& e) {
    EXPECT_EQ(e.deadline_cycles(), crash_at);
    EXPECT_GE(e.at_cycles(), crash_at) << "death precedes the deadline";
  }
  // Every barrier due at or before the crash fired first, none after.
  ASSERT_FALSE(sink.taken.empty());
  for (const auto& cp : sink.taken) EXPECT_LE(cp.virtual_now, crash_at);
}

TEST(CheckpointCrash, RestoreFromAnyBarrierMatchesUninterruptedRun) {
  const auto scenario = crash_mix(42, 40);
  const auto ref = server::Engine(engine_cfg(2)).run(scenario);
  const auto cps =
      capture_checkpoints(scenario, 2, ref.makespan_cycles / 5.0);
  for (const auto& cp : cps) {
    server::Engine engine(engine_cfg(2));
    const auto resumed = engine.run(scenario, cp);
    const auto mismatches = server::compare_reports(ref, resumed);
    EXPECT_TRUE(mismatches.empty())
        << "seq " << cp.seq << ": " << mismatches.front();
  }
}

TEST(CheckpointCrash, RestoreRejectsWrongScenarioStructurally) {
  const auto scenario = crash_mix(43, 32);
  const auto cps = capture_checkpoints(scenario, 1, 2.0e7);
  auto other = crash_mix(43, 8);  // fewer sessions than the checkpoint offered
  server::Engine engine(engine_cfg(1));
  EXPECT_THROW((void)engine.run(other, cps.back()), std::logic_error);
}

// --- config validation ------------------------------------------------------

TEST(CheckpointConfig, InvalidIntervalsAndCrashTimesRejected) {
  const auto scenario = crash_mix(51, 8);
  {
    server::EngineConfig cfg = engine_cfg(1);
    cfg.checkpoint_every = -1.0;
    EXPECT_THROW(server::Engine{cfg}, std::invalid_argument);
  }
  {
    server::EngineConfig cfg = engine_cfg(1);
    cfg.checkpoint_every = std::numeric_limits<double>::infinity();
    EXPECT_THROW(server::Engine{cfg}, std::invalid_argument);
  }
  {
    server::EngineConfig cfg = engine_cfg(1);
    cfg.faults.crash_at_cycles = -5.0;
    EXPECT_THROW(server::Engine{cfg}, std::invalid_argument);
  }
  {
    // checkpoint_every without a sink is legal and inert.
    server::EngineConfig cfg = engine_cfg(1);
    cfg.checkpoint_every = 1.0e7;
    const auto rep = server::Engine(cfg).run(scenario);
    EXPECT_EQ(rep.completed + rep.aborted, rep.admitted);
  }
}

// --- RunRecorder + scan + resume -------------------------------------------

struct TornTrace {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offsets;  ///< checkpoint chunk boundaries
  server::RunReport reference;       ///< the uninterrupted run
};

TornTrace record_torn_trace(const server::TrafficScenario& scenario,
                            unsigned threads, double crash_frac = 0.6) {
  TornTrace out;
  server::EngineConfig cfg = engine_cfg(threads);
  out.reference = server::Engine(cfg).run(scenario);

  cfg.checkpoint_every = out.reference.makespan_cycles / 6.0;
  cfg.faults.crash_at_cycles = out.reference.makespan_cycles * crash_frac;
  server::RunRecorder recorder(cfg, scenario);
  server::Engine engine(recorder.engine_config());
  try {
    (void)engine.run(scenario);
    ADD_FAILURE() << "expected CrashFault";
  } catch (const server::CrashFault&) {
    recorder.crash();
  }
  EXPECT_GT(recorder.checkpoints(), 0u);
  out.bytes = recorder.bytes();
  out.offsets = recorder.checkpoint_offsets();
  return out;
}

TEST(CheckpointResume, TornTraceScansAndResumesBitIdentically) {
  const auto scenario = crash_mix(61, 40);
  const TornTrace torn = record_torn_trace(scenario, 2);

  const auto scan = server::scan_trace_for_resume(torn.bytes);
  EXPECT_FALSE(scan.complete);
  EXPECT_FALSE(scan.tear.empty()) << "a torn trace must report its tear";
  EXPECT_EQ(scan.checkpoints.size(), torn.offsets.size());
  EXPECT_EQ(scan.scanned_bytes, torn.bytes.size());

  const auto result = server::resume_run(scan);
  EXPECT_TRUE(result.ok());
  const auto mismatches = server::compare_reports(torn.reference, result.report);
  EXPECT_TRUE(mismatches.empty()) << mismatches.front();
  EXPECT_EQ(result.report.completed + result.report.aborted,
            result.report.admitted)
      << "resume must preserve the leak invariant";
}

TEST(CheckpointResume, TruncationAtEveryCheckpointBoundaryStillResumes) {
  const auto scenario = crash_mix(62, 40);
  const TornTrace torn = record_torn_trace(scenario, 1);
  ASSERT_GE(torn.offsets.size(), 2u);

  // Cutting at checkpoint k's first header byte leaves exactly k usable
  // checkpoints; resume from each prefix must still match the reference.
  for (std::size_t k = 0; k < torn.offsets.size(); ++k) {
    std::vector<std::uint8_t> prefix(torn.bytes.begin(),
                                     torn.bytes.begin() + torn.offsets[k]);
    const auto scan = server::scan_trace_for_resume(prefix);
    EXPECT_EQ(scan.checkpoints.size(), k) << "cut at checkpoint " << k;
    const auto result = server::resume_run(scan);
    const auto mismatches =
        server::compare_reports(torn.reference, result.report);
    EXPECT_TRUE(mismatches.empty())
        << "cut at checkpoint " << k << ": " << mismatches.front();
  }
}

TEST(CheckpointResume, MidChunkTearFallsBackToPreviousCheckpoint) {
  const auto scenario = crash_mix(63, 40);
  const TornTrace torn = record_torn_trace(scenario, 2);
  ASSERT_GE(torn.offsets.size(), 2u);

  // Tear a few bytes into the LAST checkpoint chunk: the scan must stop at
  // the previous one and the resume must still verify.
  std::vector<std::uint8_t> mid(torn.bytes.begin(),
                                torn.bytes.begin() + torn.offsets.back() + 3);
  const auto scan = server::scan_trace_for_resume(mid);
  EXPECT_EQ(scan.checkpoints.size(), torn.offsets.size() - 1);
  EXPECT_FALSE(scan.tear.empty());
  const auto result = server::resume_run(scan);
  const auto mismatches = server::compare_reports(torn.reference, result.report);
  EXPECT_TRUE(mismatches.empty()) << mismatches.front();
}

TEST(CheckpointResume, CompleteTraceVerifiesAgainstItsOwnRecording) {
  const auto scenario = crash_mix(64, 32);
  server::EngineConfig cfg = engine_cfg(2);
  server::RunRecorder recorder(cfg, scenario);
  cfg = recorder.engine_config();
  cfg.checkpoint_every = 2.0e7;
  server::Engine engine(cfg);
  ASSERT_TRUE(recorder.finish(engine.run(scenario)));

  const auto scan = server::scan_trace_for_resume(recorder.bytes());
  EXPECT_TRUE(scan.complete);
  EXPECT_TRUE(scan.tear.empty());
  // Complete trace: resume_run verifies against the recorded report, at a
  // different thread count than the recording ran with.
  const auto result = server::resume_run(scan, 8);
  EXPECT_TRUE(result.ok()) << result.mismatches.front();
}

TEST(CheckpointResume, InputDamageRethrowsScanDamageIsTyped) {
  const auto scenario = crash_mix(65, 24);
  const TornTrace torn = record_torn_trace(scenario, 1);

  // Damage BEFORE the inputs complete: no run to resume, scan throws.
  std::vector<std::uint8_t> early(torn.bytes.begin(), torn.bytes.begin() + 12);
  EXPECT_THROW((void)server::scan_trace_for_resume(early), ReplayError);

  // A CRC-valid checkpoint that lies about the scenario: resume_run must
  // reject it as typed kMalformed, never feed it to the engine.
  auto scan = server::scan_trace_for_resume(torn.bytes);
  ASSERT_FALSE(scan.checkpoints.empty());
  scan.checkpoints.back().offered = scenario.sessions + 1000;
  try {
    (void)server::resume_run(scan);
    FAIL() << "lying checkpoint accepted";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformed);
  }
}

TEST(CheckpointResume, PhaseCursorDisagreeingWithIdCursorIsMalformed) {
  // A phase cursor past the arrivals drawn would walk the generator off the
  // end of the program; resume rejects it typed, the engine structurally.
  const auto scenario = crash_mix(67, 24);
  const TornTrace torn = record_torn_trace(scenario, 1);
  auto scan = server::scan_trace_for_resume(torn.bytes);
  ASSERT_FALSE(scan.checkpoints.empty());
  ASSERT_TRUE(scan.checkpoints.back().generator.phase_entered);
  scan.checkpoints.back().generator.phase_done += 5;
  try {
    (void)server::resume_run(scan);
    FAIL() << "disagreeing phase cursor accepted";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformed);
  }
  server::Engine engine(engine_cfg(1));
  EXPECT_THROW((void)engine.run(scenario, scan.checkpoints.back()),
               std::logic_error);
}

TEST(CheckpointResume, RecorderReportsFileErrors) {
  const auto scenario = crash_mix(66, 8);
  server::EngineConfig cfg = engine_cfg(1);
  server::RunRecorder recorder(cfg, scenario, {}, "/nonexistent-dir-xyz/t.wspr");
  EXPECT_FALSE(recorder.ok());
  EXPECT_NE(recorder.error().find("/nonexistent-dir-xyz"), std::string::npos);
}

}  // namespace
}  // namespace wsp
