// Tests for the wsp-replay-v1 codec (support/replay.h) and the engine
// run-record mapping (server/record.h): primitive round trips, randomized
// event-stream round trips, rejection of truncated/corrupted/version-skewed
// streams with typed errors, and RunRecord encode/decode identity.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/crc32.h"
#include "golden_chaos_trace.h"
#include "server/record.h"
#include "support/random.h"
#include "support/replay.h"

namespace wsp {
namespace {

using replay::Chunk;
using replay::ChunkReader;
using replay::ChunkWriter;
using replay::Cursor;
using replay::ErrorKind;
using replay::ReplayError;
using replay::VectorSink;

// --- primitives ------------------------------------------------------------

TEST(ReplayCodec, VarintRoundTripBoundaries) {
  const std::uint64_t values[] = {0,
                                  1,
                                  0x7F,
                                  0x80,
                                  0x3FFF,
                                  0x4000,
                                  1234567890123ULL,
                                  std::numeric_limits<std::uint64_t>::max()};
  std::vector<std::uint8_t> buf;
  for (std::uint64_t v : values) replay::put_varint(buf, v);
  Cursor c(buf);
  for (std::uint64_t v : values) EXPECT_EQ(c.varint(), v);
  EXPECT_TRUE(c.done());
}

TEST(ReplayCodec, ZigzagRoundTripIncludingNegatives) {
  const std::int64_t values[] = {0, -1, 1, -2, 63, -64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  std::vector<std::uint8_t> buf;
  for (std::int64_t v : values) replay::put_zigzag(buf, v);
  Cursor c(buf);
  for (std::int64_t v : values) EXPECT_EQ(c.zigzag(), v);
  EXPECT_TRUE(c.done());
}

TEST(ReplayCodec, DoubleRoundTripIsBitExact) {
  const double values[] = {0.0, -0.0, 1.0 / 3.0, 1e300, -2.5e-308,
                           239.31498, std::numeric_limits<double>::infinity()};
  std::vector<std::uint8_t> buf;
  for (double v : values) replay::put_double(buf, v);
  Cursor c(buf);
  for (double v : values) {
    const double got = c.f64();
    EXPECT_EQ(std::memcmp(&got, &v, sizeof v), 0);
  }
}

TEST(ReplayCodec, StringRoundTripAndTruncation) {
  const std::string with_nul("git\0rev", 7);  // length-prefixed: NUL-safe
  std::vector<std::uint8_t> buf;
  replay::put_string(buf, with_nul);
  replay::put_string(buf, "");
  Cursor c(buf);
  EXPECT_EQ(c.str(), with_nul);
  EXPECT_EQ(c.str(), "");
  EXPECT_TRUE(c.done());

  // A declared length longer than the remaining bytes must throw, not read.
  std::vector<std::uint8_t> lying;
  replay::put_varint(lying, 100);
  lying.push_back('x');
  Cursor bad(lying);
  try {
    (void)bad.str();
    FAIL() << "expected ReplayError";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTruncated);
  }
}

TEST(ReplayCodec, VarintOverflowRejected) {
  // 10 continuation bytes followed by more: value would exceed 64 bits.
  std::vector<std::uint8_t> buf(11, 0xFF);
  Cursor c(buf);
  try {
    (void)c.varint();
    FAIL() << "expected ReplayError";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kVarintOverflow);
  }
}

// --- chunk framing ---------------------------------------------------------

std::vector<std::uint8_t> two_chunk_stream() {
  VectorSink sink;
  ChunkWriter writer(sink);
  writer.chunk(7, {1, 2, 3});
  writer.chunk(9, {});
  writer.end();
  return sink.take();
}

TEST(ReplayChunks, RoundTripPreservesTagsAndPayloads) {
  const auto bytes = two_chunk_stream();
  ChunkReader reader(bytes);
  EXPECT_EQ(reader.version(), replay::kFormatVersion);
  auto c1 = reader.next();
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->tag, 7u);
  EXPECT_EQ(c1->payload, (std::vector<std::uint8_t>{1, 2, 3}));
  auto c2 = reader.next();
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->tag, 9u);
  EXPECT_TRUE(c2->payload.empty());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());  // stays ended
}

TEST(ReplayChunks, EveryTruncationPointRejected) {
  const auto bytes = two_chunk_stream();
  // Cutting the stream at any length short of the full one must throw a
  // typed error — either immediately (header) or while iterating.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    bool threw = false;
    try {
      ChunkReader reader(prefix);
      while (reader.next().has_value()) {
      }
    } catch (const ReplayError& e) {
      threw = true;
      EXPECT_TRUE(e.kind() == ErrorKind::kTruncated ||
                  e.kind() == ErrorKind::kCrcMismatch)
          << "cut=" << cut << " kind=" << replay::to_string(e.kind());
    }
    EXPECT_TRUE(threw) << "truncation at " << cut << " went undetected";
  }
}

TEST(ReplayChunks, EverySingleByteCorruptionRejected) {
  const auto clean = two_chunk_stream();
  // Flip one bit in every byte position past the magic; the CRC framing (or
  // the header checks) must catch each one.  Magic-byte corruption is
  // kBadMagic; version-byte corruption is kVersionSkew.
  for (std::size_t pos = 0; pos < clean.size(); ++pos) {
    std::vector<std::uint8_t> bytes = clean;
    bytes[pos] ^= 0x01;
    bool threw = false;
    try {
      ChunkReader reader(bytes);
      while (reader.next().has_value()) {
      }
    } catch (const ReplayError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "corruption at byte " << pos << " went undetected";
  }
}

TEST(ReplayChunks, VersionSkewFailsLoudlyWithTypedError) {
  // Hand-craft a stream whose header claims format version 2: a future (or
  // stale) trace must be rejected before any chunk is trusted.
  std::vector<std::uint8_t> bytes(replay::kMagic, replay::kMagic + 4);
  replay::put_varint(bytes, replay::kFormatVersion + 1);
  try {
    ChunkReader reader(bytes);
    FAIL() << "expected ReplayError";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kVersionSkew);
    EXPECT_NE(std::string(e.what()).find("version 2"), std::string::npos);
  }
}

TEST(ReplayChunks, BadMagicRejected) {
  std::vector<std::uint8_t> bytes = {'N', 'O', 'P', 'E', 1};
  try {
    ChunkReader reader(bytes);
    FAIL() << "expected ReplayError";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kBadMagic);
  }
}

// --- randomized event-stream round trips -----------------------------------

server::SessionEvent random_event(Rng& rng, std::uint64_t id) {
  server::SessionEvent ev;
  ev.id = id;
  ev.shard = static_cast<std::uint32_t>(rng.below(16));
  ev.wire_bytes = rng.below(1 << 20);
  ev.records = rng.below(256);
  ev.retries = static_cast<std::uint32_t>(rng.below(8));
  ev.repairs = static_cast<std::uint32_t>(rng.below(4));
  ev.faults = static_cast<std::uint32_t>(rng.below(8));
  ev.completed = rng.below(8) != 0;
  return ev;
}

// Round-trips randomized event streams through the full RunRecord codec:
// encode -> decode must be the identity on every field, for many seeds.
TEST(ReplayRunRecord, RandomizedEventStreamsRoundTrip) {
  for (std::uint64_t seed : {1ULL, 42ULL, 12345ULL}) {
    Rng rng(seed);
    server::RunRecord rec;
    rec.git_rev = "testrev";
    rec.recorded_threads = 3;
    rec.scenario.seed = seed;
    rec.scenario.sessions = 500;
    rec.config.shards = 16;
    rec.report.shards.resize(16);
    std::uint64_t id = 0;
    for (int i = 0; i < 500; ++i) {
      id += 1 + rng.below(3);  // gaps model dropped arrivals
      const auto ev = random_event(rng, id);
      rec.report.events.push_back(ev);
      auto& sh = rec.report.shards[ev.shard];
      sh.events_digest = (sh.events_digest ^ ev.digest()) * 1099511628211ULL + 1;
    }
    rec.report.admitted = rec.report.events.size();
    rec.report.latency = {1.5e6, 3.0e6, 4.5e6, 6.0e6};
    rec.report.throughput_per_gcycle = 239.31498;

    const auto bytes = server::encode_run_record(rec);
    const server::RunRecord back = server::decode_run_record(bytes);
    EXPECT_EQ(back.git_rev, "testrev");
    EXPECT_EQ(back.recorded_threads, 3u);
    EXPECT_EQ(back.scenario.seed, seed);
    EXPECT_EQ(back.scenario.sessions, 500u);
    EXPECT_EQ(back.config.shards, 16u);
    ASSERT_EQ(back.report.events.size(), rec.report.events.size());
    for (std::size_t i = 0; i < rec.report.events.size(); ++i) {
      EXPECT_EQ(back.report.events[i], rec.report.events[i]) << "event " << i;
    }
    for (std::size_t s = 0; s < 16; ++s) {
      EXPECT_EQ(back.report.shards[s].events_digest,
                rec.report.shards[s].events_digest);
    }
    EXPECT_EQ(back.report.latency.p99, 4.5e6);
    EXPECT_EQ(back.report.throughput_per_gcycle, 239.31498);
  }
}

TEST(ReplayRunRecord, EncodingIsDeterministic) {
  server::RunRecord rec;
  rec.git_rev = "r";
  rec.scenario.sessions = 8;
  rec.config.shards = 2;
  rec.report.shards.resize(2);
  EXPECT_EQ(server::encode_run_record(rec), server::encode_run_record(rec));
}

TEST(ReplayRunRecord, MissingChunkIsMalformed) {
  // A structurally valid stream (header + end chunk only) is not a run
  // record; it must fail with kMalformed, not decode to an empty record.
  VectorSink sink;
  ChunkWriter writer(sink);
  writer.end();
  try {
    (void)server::decode_run_record(sink.bytes());
    FAIL() << "expected ReplayError";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformed);
  }
}

TEST(ReplayRunRecord, UnknownChunkTagsAreSkipped) {
  server::RunRecord rec;
  rec.git_rev = "r";
  rec.scenario.sessions = 4;
  rec.config.shards = 1;
  rec.report.shards.resize(1);
  auto bytes = server::encode_run_record(rec);
  // Splice an unknown (future) chunk after the header: the decoder must
  // skip it and still find every required chunk.
  VectorSink sink;
  ChunkWriter writer(sink);
  writer.chunk(99, {0xAA, 0xBB});
  const auto& extra = sink.bytes();
  const std::size_t header = 5;  // magic + version varint
  std::vector<std::uint8_t> spliced;
  const auto append = [&spliced](const std::vector<std::uint8_t>& src,
                                 std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) spliced.push_back(src[i]);
  };
  append(bytes, 0, header);
  append(extra, header, extra.size());
  append(bytes, header, bytes.size());
  const server::RunRecord back = server::decode_run_record(spliced);
  EXPECT_EQ(back.scenario.sessions, 4u);
}

// Legacy traces predate the phased-program fields and the kScenarioSource
// chunk: a record encoded without them must decode as a flat scenario with
// no phases and no embedded source (version-skew, old-writer direction).
TEST(ReplayRunRecord, LegacyRecordDecodesAsFlatScenarioWithoutSource) {
  server::RunRecord rec;
  rec.git_rev = "legacy";
  rec.scenario.sessions = 6;
  rec.scenario.ciphers = {ssl::Cipher::kRc4};
  rec.scenario.transaction_sizes = {512};
  rec.config.shards = 2;
  rec.report.shards.resize(2);
  // No phases, no source: the writer emits the flat trailing layout and no
  // kScenarioSource chunk, exactly like a pre-phase binary would.
  const auto bytes = server::encode_run_record(rec);
  const server::RunRecord back = server::decode_run_record(bytes);
  EXPECT_TRUE(back.scenario.phases.empty());
  EXPECT_TRUE(back.scenario.phases.empty());
  EXPECT_TRUE(back.scenario_source.empty());
  EXPECT_EQ(back.scenario.sessions, 6u);
}

// New-writer direction: phased programs and the embedded .wsp source ride
// in the stream and round-trip field-for-field.
TEST(ReplayRunRecord, PhasedRecordRoundTripsPhasesAndSource) {
  server::RunRecord rec;
  rec.git_rev = "phased";
  rec.scenario.seed = 99;
  server::TrafficPhase ph;
  ph.name = "spike";
  ph.sessions = 12;
  ph.model = server::ArrivalModel::kClosedLoop;
  ph.offered_load = 2.5;
  ph.users = 3;
  ph.think_cycles = 1e4;
  ph.resume_fraction = 0.25;
  ph.cipher_mix = {{ssl::Cipher::kAes128Cbc, 2}, {ssl::Cipher::kTripleDesCbc, 1}};
  ph.size_mix = {{1024, 3}, {4096, 1}};
  server::FaultConfig faults;
  faults.wire_flip_rate = 0.125;
  faults.record_retry_budget = 3;
  ph.faults = faults;
  rec.scenario.phases = {ph};
  rec.scenario.sessions = rec.scenario.total_sessions();
  rec.scenario_source = "scenario { phase \"spike\" { sessions 12 } }\n";
  rec.config.shards = 1;
  rec.report.shards.resize(1);

  const auto bytes = server::encode_run_record(rec);
  const server::RunRecord back = server::decode_run_record(bytes);
  EXPECT_EQ(back.scenario_source, rec.scenario_source);
  ASSERT_EQ(back.scenario.phases.size(), 1u);
  const server::TrafficPhase& b = back.scenario.phases[0];
  EXPECT_EQ(b.name, "spike");
  EXPECT_EQ(b.sessions, 12u);
  EXPECT_EQ(b.model, server::ArrivalModel::kClosedLoop);
  EXPECT_EQ(b.offered_load, 2.5);
  EXPECT_EQ(b.users, 3u);
  EXPECT_EQ(b.think_cycles, 1e4);
  EXPECT_EQ(b.resume_fraction, 0.25);
  ASSERT_EQ(b.cipher_mix.size(), 2u);
  EXPECT_EQ(b.cipher_mix[0].cipher, ssl::Cipher::kAes128Cbc);
  EXPECT_EQ(b.cipher_mix[0].weight, 2u);
  EXPECT_EQ(b.cipher_mix[1].cipher, ssl::Cipher::kTripleDesCbc);
  ASSERT_EQ(b.size_mix.size(), 2u);
  EXPECT_EQ(b.size_mix[0].bytes, 1024u);
  EXPECT_EQ(b.size_mix[0].weight, 3u);
  ASSERT_TRUE(b.faults.has_value());
  EXPECT_EQ(b.faults->wire_flip_rate, 0.125);
  EXPECT_EQ(b.faults->record_retry_budget, 3u);
}

// A phase entry naming a cipher id this binary does not know is hostile or
// future data, not something to guess at: kMalformed.
TEST(ReplayRunRecord, PhaseWithUnknownCipherIdIsMalformed) {
  server::RunRecord rec;
  rec.git_rev = "r";
  server::TrafficPhase ph;
  ph.name = "p";
  ph.sessions = 1;
  ph.cipher_mix = {{ssl::Cipher::kRc4, 1}};
  ph.size_mix = {{256, 1}};
  rec.scenario.phases = {ph};
  rec.config.shards = 1;
  rec.report.shards.resize(1);
  auto bytes = server::encode_run_record(rec);
  // Corrupt the encoded cipher id byte: flip the byte that encodes kRc4's
  // wire id inside the phase mix.  Rather than chase the offset, decode on
  // every single-byte 0x7F overwrite and require either a successful decode
  // or a typed ReplayError -- never a crash or a silent bad value.
  std::size_t typed_rejections = 0;
  for (std::size_t i = 5; i < bytes.size(); ++i) {
    auto corrupted = bytes;
    corrupted[i] = 0x7F;
    try {
      (void)server::decode_run_record(corrupted);
    } catch (const ReplayError&) {
      ++typed_rejections;
    }
  }
  EXPECT_GT(typed_rejections, 0u);
}

// Traces recorded while the engine still had a batched record plane end
// their kConfig payload with its lane width (1..8).  Re-frames `bytes` with
// `tail` appended to that payload, as such a recorder wrote it.
std::vector<std::uint8_t> with_config_tail(
    const std::vector<std::uint8_t>& bytes,
    const std::vector<std::uint8_t>& tail) {
  ChunkReader reader(bytes);
  VectorSink sink;
  ChunkWriter writer(sink);
  while (auto chunk = reader.next()) {
    if (chunk->tag == static_cast<std::uint64_t>(server::RecordChunk::kConfig)) {
      chunk->payload.insert(chunk->payload.end(), tail.begin(), tail.end());
    }
    writer.chunk(chunk->tag, chunk->payload);
  }
  writer.end();
  return sink.take();
}

server::RunRecord small_recorded_run() {
  server::TrafficScenario s;
  s.seed = 555;
  s.sessions = 24;
  s.offered_load = 0.9;
  s.ciphers = {ssl::Cipher::kAes128Cbc, ssl::Cipher::kTripleDesCbc};
  s.transaction_sizes = {512, 2048};
  s.record_bytes = 512;
  server::EngineConfig cfg;
  cfg.threads = 2;
  cfg.shards = 4;
  cfg.queue_capacity = 32;
  cfg.record_batch = 4;
  return server::record_run(cfg, s);
}

TEST(ReplayRunRecord, ConfigWithLegacyLaneWidthDecodesAndReplays) {
  const auto bytes = server::encode_run_record(small_recorded_run());
  const auto decoded = server::decode_run_record(with_config_tail(bytes, {8}));
  // The field is read and dropped: re-encoding gives today's layout.
  EXPECT_EQ(server::encode_run_record(decoded), bytes);
  for (unsigned threads : {1u, 4u}) {
    const auto result = server::replay_run(decoded, threads);
    EXPECT_TRUE(result.ok()) << "threads=" << threads << ": "
                             << result.mismatches.front();
  }
}

TEST(ReplayRunRecord, ConfigWithLaneWidthOutOfRangeIsMalformed) {
  const auto bytes = server::encode_run_record(small_recorded_run());
  for (std::uint8_t lanes : {std::uint8_t{9}, std::uint8_t{0}}) {
    try {
      (void)server::decode_run_record(with_config_tail(bytes, {lanes}));
      FAIL() << "lane width " << int{lanes} << " accepted";
    } catch (const ReplayError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kMalformed) << int{lanes};
    }
  }
}

TEST(ReplayRunRecord, ConfigWithoutLaneWidthDecodesAndReplays) {
  const auto bytes = server::encode_run_record(small_recorded_run());
  const auto decoded = server::decode_run_record(bytes);
  EXPECT_EQ(server::encode_run_record(decoded), bytes);
  const auto result = server::replay_run(decoded, 4);
  EXPECT_TRUE(result.ok()) << result.mismatches.front();
}

TEST(ReplayRunRecord, FileRoundTrip) {
  server::RunRecord rec;
  rec.git_rev = "filetest";
  rec.scenario.sessions = 4;
  rec.config.shards = 2;
  rec.report.shards.resize(2);
  const std::string path = ::testing::TempDir() + "/roundtrip.wspr";
  ASSERT_TRUE(server::write_run_record_file(rec, path));
  const server::RunRecord back = server::read_run_record_file(path);
  EXPECT_EQ(back.git_rev, "filetest");
  std::remove(path.c_str());

  EXPECT_FALSE(server::write_run_record_file(rec, "/nonexistent-dir-xyz/x"));
  try {
    (void)server::read_run_record_file("/nonexistent-dir-xyz/x");
    FAIL() << "expected ReplayError";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTruncated);
  }
}

// --- the golden chaos trace (tests/golden_chaos_trace.h) -------------------

using server::RecordChunk;
using testdata::kGoldenChaosTrace;

TEST(ReplayGolden, DecodeEncodeReproducesTheFixtureByteForByte) {
  const server::RunRecord rec = server::decode_run_record(kGoldenChaosTrace);
  EXPECT_EQ(rec.git_rev, "golden");
  EXPECT_EQ(rec.scenario_source, testdata::kGoldenChaosSource);
  ASSERT_EQ(rec.scenario.phases.size(), 2u);
  EXPECT_TRUE(rec.scenario.phases[0].faults.has_value());
  const server::EngineConfig want = testdata::golden_chaos_config();
  EXPECT_EQ(rec.config.shards, want.shards);
  EXPECT_EQ(rec.config.queue_capacity, want.queue_capacity);
  EXPECT_EQ(rec.config.degrade_depth, want.degrade_depth);
  EXPECT_EQ(rec.config.faults.abort_rate, want.faults.abort_rate);
  EXPECT_EQ(rec.report.admitted, rec.report.events.size());
  EXPECT_GT(rec.report.aborted, 0u);
  EXPECT_EQ(server::encode_run_record(rec), kGoldenChaosTrace);
}

TEST(ReplayGolden, ReplaysWithZeroMismatchesAtThreads1And4) {
  const server::RunRecord rec = server::decode_run_record(kGoldenChaosTrace);
  for (unsigned threads : {1u, 4u}) {
    const auto result = server::replay_run(rec, threads);
    EXPECT_TRUE(result.ok()) << "threads=" << threads << ": "
                             << result.mismatches.size() << " mismatches, "
                             << result.mismatches.front();
  }
}

// compare_reports must see every deterministic field: perturbing any one of
// them yields exactly one mismatch line, and that line names the field.
// The names come from this literal list, not from the field lists in
// engine.h, so an entry missing there fails here.
TEST(ReplayCompare, EveryDeterministicFieldIsComparedAndNamed) {
  const server::RunReport want =
      server::decode_run_record(kGoldenChaosTrace).report;
  ASSERT_EQ(want.shards.size(), 2u);
  ASSERT_GT(want.events.size(), 5u);
  using R = server::RunReport&;
  const std::vector<std::pair<std::string, std::function<void(R)>>> cases = {
      {"offered", [](R r) { ++r.offered; }},
      {"admitted", [](R r) { ++r.admitted; }},
      {"completed", [](R r) { ++r.completed; }},
      {"dropped", [](R r) { ++r.dropped; }},
      {"aborted", [](R r) { ++r.aborted; }},
      {"retried", [](R r) { ++r.retried; }},
      {"repaired", [](R r) { ++r.repaired; }},
      {"faults_injected", [](R r) { ++r.faults_injected; }},
      {"shed", [](R r) { ++r.shed; }},
      {"degrade_enters", [](R r) { ++r.degrade_enters; }},
      {"records", [](R r) { ++r.records; }},
      {"wire_bytes", [](R r) { ++r.wire_bytes; }},
      {"bytes_digest", [](R r) { ++r.bytes_digest; }},
      {"latency_p50_cycles", [](R r) { r.latency.p50 += 1.0; }},
      {"latency_p90_cycles", [](R r) { r.latency.p90 += 1.0; }},
      {"latency_p99_cycles", [](R r) { r.latency.p99 += 1.0; }},
      {"latency_max_cycles", [](R r) { r.latency.max += 1.0; }},
      {"makespan_cycles", [](R r) { r.makespan_cycles += 1.0; }},
      {"throughput_per_gcycle", [](R r) { r.throughput_per_gcycle += 1.0; }},
      {"queue_depth_peak", [](R r) { ++r.peak_virtual_depth; }},
      {"sessions_peak", [](R r) { ++r.peak_sessions; }},
      {"mean_service_cycles", [](R r) { r.mean_service_cycles += 1.0; }},
      {"platform_cycles_base", [](R r) { r.platform_cycles_base += 1.0; }},
      {"platform_cycles_opt", [](R r) { r.platform_cycles_optimized += 1.0; }},
      {"platform_equiv_speedup", [](R r) { r.equivalent_speedup += 1.0; }},
      {"memory_per_session", [](R r) { ++r.memory_per_session; }},
      {"shards count", [](R r) { r.shards.emplace_back(); }},
      {"shards[0].admitted", [](R r) { ++r.shards[0].admitted; }},
      {"shards[0].dropped", [](R r) { ++r.shards[0].dropped; }},
      {"shards[0].completed", [](R r) { ++r.shards[0].completed; }},
      {"shards[0].aborted", [](R r) { ++r.shards[0].aborted; }},
      {"shards[0].wire_bytes", [](R r) { ++r.shards[0].wire_bytes; }},
      {"shards[0].records", [](R r) { ++r.shards[0].records; }},
      {"shards[0].retried", [](R r) { ++r.shards[0].retried; }},
      {"shards[0].repaired", [](R r) { ++r.shards[0].repaired; }},
      {"shards[0].faults_injected",
       [](R r) { ++r.shards[0].faults_injected; }},
      {"shards[1].peak_virtual_depth",
       [](R r) { ++r.shards[1].peak_virtual_depth; }},
      {"shards[1].events_digest", [](R r) { ++r.shards[1].events_digest; }},
      {"events count", [](R r) { r.events.pop_back(); }},
      {"events[5].retries", [](R r) { ++r.events[5].retries; }},
      {"events[0].completed",
       [](R r) { r.events[0].completed = !r.events[0].completed; }},
  };
  ASSERT_TRUE(server::compare_reports(want, want).empty());
  for (const auto& [field, perturb] : cases) {
    server::RunReport got = want;
    perturb(got);
    const auto mismatches = server::compare_reports(want, got);
    ASSERT_EQ(mismatches.size(), 1u) << field;
    EXPECT_EQ(mismatches[0].rfind(field + ": recorded ", 0), 0u)
        << field << " -> " << mismatches[0];
  }
}

// --- crafted CRC-valid payloads --------------------------------------------

/// Byte offset just past the fields `layout` spells ('v' a varint, 'd' a
/// double, 's' a string), walked by hand so the layout is independent of
/// the codec.
std::size_t offset_after(const std::vector<std::uint8_t>& payload,
                         std::string_view layout) {
  Cursor c(payload);
  for (char kind : layout) {
    if (kind == 'd') {
      (void)c.f64();
    } else if (kind == 's') {
      (void)c.str();
    } else {
      (void)c.varint();
    }
  }
  return c.offset();
}

/// `trace` with the `chunk` varint at `at` set to `value`.
std::vector<std::uint8_t> crafted(const std::vector<std::uint8_t>& trace,
                                  RecordChunk chunk, std::size_t at,
                                  std::uint64_t value) {
  return testdata::with_chunk_payload(
      trace, chunk,
      testdata::replace_varint(testdata::chunk_payload(trace, chunk), at,
                               value));
}

/// Re-frames the golden trace with the `chunk` varint at `at` set to
/// `value`; decoding it must be kMalformed at exactly that offset.
void expect_malformed(RecordChunk chunk, std::size_t at, std::uint64_t value,
                      const char* what) {
  ASSERT_LT(at, testdata::chunk_payload(kGoldenChaosTrace, chunk).size())
      << what;
  const auto bytes = crafted(kGoldenChaosTrace, chunk, at, value);
  try {
    (void)server::decode_run_record(bytes);
    FAIL() << what << " = " << value << " accepted";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformed) << what << ": " << e.what();
    EXPECT_EQ(e.offset(), at) << what << ": " << e.what();
  }
}

constexpr std::uint64_t k2to32 = std::uint64_t{1} << 32;
constexpr std::uint64_t k2to40 = std::uint64_t{1} << 40;

TEST(ReplayCrafted, OversizeEventCountIsMalformedNotBadAlloc) {
  expect_malformed(RecordChunk::kEvents, 0, k2to40, "event count");
}

TEST(ReplayCrafted, OversizeShardCountIsMalformedNotBadAlloc) {
  // 13 counters, 6 doubles (latency quantiles, makespan, throughput),
  // 2 peaks, 4 doubles, then the shard count.
  const auto report =
      testdata::chunk_payload(kGoldenChaosTrace, RecordChunk::kReport);
  expect_malformed(RecordChunk::kReport,
                   offset_after(report, "vvvvvvvvvvvvvddddddvvdddd"), k2to40,
                   "shard count");
}

TEST(ReplayCrafted, EngineConfigNarrowFieldsAreRangeChecked) {
  const auto config =
      testdata::chunk_payload(kGoldenChaosTrace, RecordChunk::kConfig);
  expect_malformed(RecordChunk::kConfig, 0, k2to32, "shards");
  expect_malformed(RecordChunk::kConfig, offset_after(config, "vvvv"), 2,
                   "pricing");
}

TEST(ReplayCrafted, FaultConfigRetryBudgetsAreRangeChecked) {
  // 6 engine fields, then the faults: 5 doubles, the two budgets.
  const auto config =
      testdata::chunk_payload(kGoldenChaosTrace, RecordChunk::kConfig);
  expect_malformed(RecordChunk::kConfig, offset_after(config, "vvvvvvddddd"),
                   k2to32, "record_retry_budget");
  expect_malformed(RecordChunk::kConfig, offset_after(config, "vvvvvvdddddv"),
                   k2to32, "handshake_retry_budget");
}

TEST(ReplayCrafted, ReportBytesDigestIsRangeChecked) {
  const auto report =
      testdata::chunk_payload(kGoldenChaosTrace, RecordChunk::kReport);
  expect_malformed(RecordChunk::kReport, offset_after(report, "vvvvvvvvvvvv"),
                   k2to32, "bytes_digest");
}

TEST(ReplayCrafted, EventNarrowCountersAndFlagAreRangeChecked) {
  // count, then the first event: id delta, shard, wire_bytes, records,
  // retries, repairs, faults, completed.
  const auto events =
      testdata::chunk_payload(kGoldenChaosTrace, RecordChunk::kEvents);
  expect_malformed(RecordChunk::kEvents, offset_after(events, "vv"), k2to32,
                   "shard");
  expect_malformed(RecordChunk::kEvents, offset_after(events, "vvvvv"),
                   k2to32, "retries");
  expect_malformed(RecordChunk::kEvents, offset_after(events, "vvvvvvvv"), 2,
                   "completed");
}

TEST(ReplayCrafted, MetaThreadCountIsRangeChecked) {
  const auto meta =
      testdata::chunk_payload(kGoldenChaosTrace, RecordChunk::kMeta);
  const std::size_t at = Cursor(meta).str().size() + 1;  // length byte + text
  expect_malformed(RecordChunk::kMeta, at, k2to32, "recorded_threads");
}

/// The golden kScenario layout up to the first phase's `users`: the flat
/// fields (seed, sessions, model, load, users, think, the cipher and size
/// grids, record_bytes, resume), the phase count, then the first phase's
/// name, sessions, model and load.
std::string layout_to_phase_users() {
  const auto sc = server::decode_run_record(kGoldenChaosTrace).scenario;
  return "vvvdvd" + std::string(1 + sc.ciphers.size(), 'v') +
         std::string(1 + sc.transaction_sizes.size(), 'v') + "vvv" + "svvd";
}

TEST(ReplayCrafted, ScenarioUsersIsRangeChecked) {
  // users = 2^32 + 3 must be rejected, not decoded as 3 users.
  const auto scn =
      testdata::chunk_payload(kGoldenChaosTrace, RecordChunk::kScenario);
  expect_malformed(RecordChunk::kScenario, offset_after(scn, "vvvd"),
                   k2to32 + 3, "users");
}

TEST(ReplayCrafted, ScenarioPhaseUsersIsRangeChecked) {
  const auto scn =
      testdata::chunk_payload(kGoldenChaosTrace, RecordChunk::kScenario);
  expect_malformed(RecordChunk::kScenario,
                   offset_after(scn, layout_to_phase_users()), k2to32 + 3,
                   "phase users");
}

TEST(ReplayCrafted, ScenarioCipherMixWeightIsRangeChecked) {
  // users, think, resume fraction, the mix count, the first cipher id.
  const auto scn =
      testdata::chunk_payload(kGoldenChaosTrace, RecordChunk::kScenario);
  expect_malformed(RecordChunk::kScenario,
                   offset_after(scn, layout_to_phase_users() + "vddvv"),
                   k2to32 + 1, "cipher mix weight");
}

TEST(ReplayCrafted, ScenarioSizeMixWeightIsRangeChecked) {
  // Past the cipher mix's (id, weight) pairs: the size count, the first
  // size.
  const auto sc = server::decode_run_record(kGoldenChaosTrace).scenario;
  const std::string mix(2 * sc.phases[0].cipher_mix.size(), 'v');
  const auto scn =
      testdata::chunk_payload(kGoldenChaosTrace, RecordChunk::kScenario);
  expect_malformed(RecordChunk::kScenario,
                   offset_after(scn, layout_to_phase_users() + "vddv" + mix +
                                         "vv"),
                   k2to32 + 1, "size mix weight");
}

// A zero transaction size is invalid even in a program's ignored flat grid
// and in a phase's size mix.
TEST(ReplayCrafted, ScenarioZeroTransactionSizesAreMalformed) {
  const auto sc = server::decode_run_record(kGoldenChaosTrace).scenario;
  const auto scn =
      testdata::chunk_payload(kGoldenChaosTrace, RecordChunk::kScenario);
  const std::string flat_sizes =
      "vvvdvd" + std::string(1 + sc.ciphers.size(), 'v') + "v";
  const std::string mix(2 * sc.phases[0].cipher_mix.size(), 'v');
  const std::size_t ats[] = {
      offset_after(scn, flat_sizes),  // the first size, zigzag delta 0
      offset_after(scn, layout_to_phase_users() + "vddv" + mix + "v"),
  };
  for (const std::size_t at : ats) {
    try {
      (void)server::decode_run_record(
          crafted(kGoldenChaosTrace, RecordChunk::kScenario, at, 0));
      FAIL() << "zero size at " << at << " accepted";
    } catch (const ReplayError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kMalformed) << e.what();
    }
  }
}

/// Both trace readers must reject `bytes` as kMalformed: an input the
/// engine would refuse is damage, not a std::invalid_argument at replay.
void expect_inputs_malformed(const std::vector<std::uint8_t>& bytes,
                             const char* what) {
  try {
    (void)server::decode_run_record(bytes);
    FAIL() << what << ": decode accepted";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformed) << what << ": " << e.what();
  }
  try {
    (void)server::scan_trace_for_resume(bytes);
    FAIL() << what << ": scan accepted";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformed) << what << ": " << e.what();
  }
}

TEST(ReplayCrafted, FlatScenarioWithZeroSessionsIsMalformed) {
  const auto flat = server::encode_run_record(small_recorded_run());
  ASSERT_NO_THROW((void)server::decode_run_record(flat));
  // seed, then sessions.
  const auto scn = testdata::chunk_payload(flat, RecordChunk::kScenario);
  expect_inputs_malformed(
      crafted(flat, RecordChunk::kScenario, offset_after(scn, "v"), 0),
      "sessions 0");
}

TEST(ReplayCrafted, ConfigTheEngineRejectsIsMalformed) {
  // shards, then queue_capacity, record_batch, rsa_bits.
  const auto config =
      testdata::chunk_payload(kGoldenChaosTrace, RecordChunk::kConfig);
  expect_inputs_malformed(
      crafted(kGoldenChaosTrace, RecordChunk::kConfig,
              offset_after(config, "v"), 0),
      "queue_capacity 0");
  expect_inputs_malformed(
      crafted(kGoldenChaosTrace, RecordChunk::kConfig,
              offset_after(config, "vvv"), 256),
      "rsa_bits 256");
}

TEST(ReplayCrafted, RecordedShardCountOutsideOneTo64IsMalformed) {
  for (const std::uint64_t shards : {0, 65}) {
    expect_inputs_malformed(
        crafted(kGoldenChaosTrace, RecordChunk::kConfig, 0, shards),
        shards == 0 ? "shards 0" : "shards 65");
  }
}

TEST(ReplayCrc32Filter, MatchesOneShotCrc) {
  VectorSink sink;
  replay::Crc32Filter filter(sink);
  const std::uint8_t part1[] = {1, 2, 3};
  const std::uint8_t part2[] = {4, 5};
  filter.write(part1, sizeof part1);
  filter.write(part2, sizeof part2);
  const std::uint8_t whole[] = {1, 2, 3, 4, 5};
  EXPECT_EQ(filter.crc(), crc32(whole, sizeof whole));
  EXPECT_EQ(sink.bytes().size(), 5u);  // pass-through, unchanged
}

}  // namespace
}  // namespace wsp
