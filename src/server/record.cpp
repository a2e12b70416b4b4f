#include "server/record.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "server/field_codec.h"

#ifndef WSP_GIT_REV
#define WSP_GIT_REV "unknown"
#endif

namespace wsp::server {

namespace {

using replay::Cursor;
using replay::ErrorKind;
using replay::ReplayError;

constexpr std::uint64_t tag(RecordChunk c) {
  return static_cast<std::uint64_t>(c);
}

EngineConfig decode_config(const std::vector<std::uint8_t>& payload) {
  Cursor c(payload);
  EngineConfig cfg;
  get_fields(c, cfg);
  if (!c.done()) {
    // Legacy trailing field: the lane width (batch_lanes, 1..8) of the
    // removed batched record plane.  Host-side only, so it is read, range
    // checked and dropped; such traces replay on the one record path.
    const std::size_t at = c.offset();
    const std::uint64_t lanes = c.varint();
    if (lanes == 0 || lanes > 8) {
      throw ReplayError(ErrorKind::kMalformed, at,
                        "legacy lane width " + std::to_string(lanes) +
                            " outside [1, 8]");
    }
  }
  return cfg;
}

/// Writes one `chunk` holding `fields` in order, each coded by its type
/// (server/field_codec.h).
template <class... Fields>
void write_chunk(replay::ChunkWriter& writer, RecordChunk chunk,
                 const Fields&... fields) {
  std::vector<std::uint8_t> p;
  (FieldWriter{p}("", fields), ...);
  writer.chunk(tag(chunk), p);
}

/// The input chunks every trace starts with, whether written at once
/// (encode_run_record) or incrementally (RunRecorder).
void write_input_chunks(replay::ChunkWriter& writer, const RunRecord& record) {
  write_chunk(writer, RecordChunk::kMeta, record.git_rev,
              record.recorded_threads);
  write_chunk(writer, RecordChunk::kScenario, record.scenario);
  if (!record.scenario_source.empty()) {
    // Informational: the .wsp text the scenario was compiled from.  Replay
    // runs from the lowered kScenario chunk, never from this text, so the
    // compiler cannot drift a recorded run; older binaries skip the
    // unknown tag entirely.
    write_chunk(writer, RecordChunk::kScenarioSource, record.scenario_source);
  }
  write_chunk(writer, RecordChunk::kConfig, record.config);
  write_chunk(writer, RecordChunk::kCosts, calibrated_costs(Pricing::kBase),
              calibrated_costs(Pricing::kOptimized));
}

/// The report and event chunks that complete a trace.
void write_outcome_chunks(replay::ChunkWriter& writer,
                          const RunReport& report) {
  write_chunk(writer, RecordChunk::kReport, report);
  write_chunk(writer, RecordChunk::kEvents, report.events);
}

/// Which chunks a decode has seen, plus the recorded calibration.
struct ChunksSeen {
  bool meta = false, scenario = false, config = false, costs = false,
       report = false, events = false;
  ssl::PlatformCosts base, opt;

  bool inputs() const { return meta && scenario && config && costs; }
};

/// Decodes every chunk but kCheckpoint into `rec` (decode_run_record and
/// scan_trace_for_resume read them alike).  Unknown tags are skipped (the
/// CRC already held): room for forward-compatible additions within the
/// same format version.
void decode_chunk(const replay::Chunk& chunk, RunRecord& rec,
                  ChunksSeen& seen) {
  Cursor c(chunk.payload);
  switch (static_cast<RecordChunk>(chunk.tag)) {
    case RecordChunk::kMeta:
      rec.git_rev = c.str();
      FieldReader{c}("recorded_threads", rec.recorded_threads);
      seen.meta = true;
      break;
    case RecordChunk::kScenario:
      rec.scenario = TrafficScenario{};
      get_fields(c, rec.scenario);
      seen.scenario = true;
      break;
    case RecordChunk::kScenarioSource:
      rec.scenario_source = c.str();
      break;
    case RecordChunk::kConfig:
      rec.config = decode_config(chunk.payload);
      rec.config.threads = rec.recorded_threads;
      rec.config.record_events = true;
      seen.config = true;
      break;
    case RecordChunk::kCosts:
      get_fields(c, seen.base);
      get_fields(c, seen.opt);
      seen.costs = true;
      break;
    case RecordChunk::kReport:
      rec.report = RunReport{};
      get_fields(c, rec.report);
      seen.report = true;
      break;
    case RecordChunk::kEvents:
      FieldReader{c}("events", rec.report.events);
      seen.events = true;
      break;
    default:
      break;
  }
}

/// The recorded calibration must match this binary's; a drifted cost model
/// would re-time every virtual event and make any mismatch meaningless.
void require_calibration(const ssl::PlatformCosts& rec_base,
                         const ssl::PlatformCosts& rec_opt,
                         const std::string& git_rev) {
  if (rec_base != calibrated_costs(Pricing::kBase) ||
      rec_opt != calibrated_costs(Pricing::kOptimized)) {
    throw ReplayError(ErrorKind::kMalformed, 0,
                      "recorded calibrated_costs differ from this binary's "
                      "(recorded at git_rev " + git_rev + ")");
  }
}

/// The decoded inputs must describe a run the engine accepts: a scenario or
/// config it would refuse (std::invalid_argument), or the auto shard count
/// 0 (recorders store the resolved count), is damage.
void validate_inputs(const RunRecord& rec) {
  if (rec.config.shards == 0) malformed(0, "recorded shard count 0");
  try {
    rec.scenario.validate();
    rec.config.validate();
  } catch (const std::invalid_argument& e) {
    malformed(0, std::string("recorded inputs: ") + e.what());
  }
}

/// The engine config a trace's run executes under, recorded or re-run:
/// `config` resolved by the engine (auto-shards is a property of the
/// recording host, and a replay or resume elsewhere must pin the same
/// count; threads clamped to >= 1) with the per-session event stream on.
/// A re-run (replay, resume) passes its worker count as `rerun_threads`;
/// it neither crashes nor checkpoints: the crash already happened, and the
/// trace is evidence, not something to extend.  (crash_at_cycles and the
/// checkpoint settings are never serialized, so clearing them guards
/// callers that hand-build a RunRecord or ResumeScan.)
EngineConfig trace_config(EngineConfig config, unsigned rerun_threads = 0) {
  if (rerun_threads > 0) {
    config.threads = rerun_threads;
    config.faults.crash_at_cycles = 0.0;
    config.checkpoint_every = 0.0;
    config.checkpoint_sink = nullptr;
  }
  config.record_events = true;
  return Engine(config).config();
}

/// A re-run's worker count: the override, else the recorded count.
unsigned replay_threads(const RunRecord& record, unsigned threads_override) {
  return threads_override > 0 ? threads_override
                              : std::max(1u, record.recorded_threads);
}

}  // namespace

RunRecord record_run(const EngineConfig& config,
                     const TrafficScenario& scenario,
                     std::string scenario_source) {
  RunRecord rec;
  rec.git_rev = WSP_GIT_REV;
  rec.config = trace_config(config);
  rec.recorded_threads = rec.config.threads;
  rec.scenario = scenario;
  rec.scenario_source = std::move(scenario_source);
  Engine engine(rec.config);
  rec.report = engine.run(scenario);
  return rec;
}

std::vector<std::uint8_t> encode_run_record(const RunRecord& record) {
  replay::VectorSink sink;
  replay::ChunkWriter writer(sink);
  write_input_chunks(writer, record);
  write_outcome_chunks(writer, record.report);
  writer.end();
  return sink.take();
}

RunRecord decode_run_record(const std::vector<std::uint8_t>& bytes) {
  replay::ChunkReader reader(bytes);
  RunRecord rec;
  ChunksSeen seen;
  // kCheckpoint chunks are resume-only data (scan_trace_for_resume): plain
  // replay re-runs from the inputs, so decode_chunk passes over them.
  while (auto chunk = reader.next()) decode_chunk(*chunk, rec, seen);
  if (!seen.inputs() || !seen.report || !seen.events) {
    throw ReplayError(ErrorKind::kMalformed, bytes.size(),
                      "run record is missing a required chunk");
  }
  require_calibration(seen.base, seen.opt, rec.git_rev);
  validate_inputs(rec);
  return rec;
}

bool write_run_record_file(const RunRecord& record, const std::string& path) {
  const std::vector<std::uint8_t> bytes = encode_run_record(record);
  replay::FileSink sink(path);
  sink.write(bytes.data(), bytes.size());
  sink.finish();
  return sink.ok();
}

RunRecord read_run_record_file(const std::string& path) {
  return decode_run_record(replay::read_file(path));
}

namespace {

/// Adds one "<prefix><name>: recorded X, replayed Y" line per field that
/// differs between the two visited objects, descending into vectors of
/// listed structs element by element.  Entries from `required` on are
/// trailing fields: a recorded zero means the trace predates the field, so
/// there is nothing to verify.
struct FieldCompare {
  std::vector<std::string>& out;
  std::string prefix;
  std::size_t required = std::numeric_limits<std::size_t>::max();
  std::size_t index = 0;

  template <class T>
  void operator()(const char* name, const T& want, const T& got) {
    const bool trailing = index++ >= required;
    if constexpr (kVector<T>) {
      scalar((std::string(name) + " count").c_str(), want.size(), got.size(),
             false);
      for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
        if (want[i] == got[i]) continue;
        T::value_type::for_each_field(
            FieldCompare{out, prefix + name + "[" + std::to_string(i) + "]."},
            want[i], got[i]);
      }
    } else {
      scalar(name, want, got, trailing);
    }
  }

  template <class T>
  void scalar(const char* name, T want, T got, bool trailing) {
    if (want == got || (trailing && want == T{})) return;
    if constexpr (std::is_same_v<T, double>) {
      if (std::isnan(want) && std::isnan(got)) return;
      char buf[96];
      std::snprintf(buf, sizeof buf, ": recorded %.17g, replayed %.17g", want,
                    got);
      out.push_back(prefix + name + buf);
    } else {
      out.push_back(prefix + name + ": recorded " +
                    std::to_string(static_cast<std::uint64_t>(want)) +
                    ", replayed " +
                    std::to_string(static_cast<std::uint64_t>(got)));
    }
  }
};

}  // namespace

std::vector<std::string> compare_reports(const RunReport& want,
                                         const RunReport& got) {
  std::vector<std::string> mm;
  RunReport::for_each_field(FieldCompare{mm, "", RunReport::kV1Fields}, want,
                            got);
  FieldCompare{mm, ""}("events", want.events, got.events);
  return mm;
}

ReplayResult replay_run(const RunRecord& record, unsigned threads_override) {
  ReplayResult result;
  Engine engine(
      trace_config(record.config, replay_threads(record, threads_override)));
  result.report = engine.run(record.scenario);
  result.mismatches = compare_reports(record.report, result.report);
  return result;
}

// --- incremental recording + crash/resume ----------------------------------

/// Every byte goes to the in-memory mirror and, when a path was given, to
/// the file as well — so tests can tear the mirror exactly like the file.
struct RunRecorder::Tee final : replay::ByteSink {
  std::vector<std::uint8_t> buf;
  std::optional<replay::FileSink> file;

  explicit Tee(const std::string& path) {
    if (!path.empty()) file.emplace(path);
  }
  void write(const std::uint8_t* data, std::size_t n) override {
    buf.insert(buf.end(), data, data + n);
    if (file) file->write(data, n);
  }
  void finish() override {
    if (file) file->finish();
  }
};

RunRecorder::RunRecorder(const EngineConfig& config,
                         const TrafficScenario& scenario,
                         std::string scenario_source, const std::string& path)
    : path_(path) {
  resolved_ = trace_config(config);
  tee_ = std::make_unique<Tee>(path);
  writer_ = std::make_unique<replay::ChunkWriter>(*tee_);
  RunRecord inputs;
  inputs.git_rev = WSP_GIT_REV;
  inputs.recorded_threads = resolved_.threads;
  inputs.scenario = scenario;
  inputs.scenario_source = std::move(scenario_source);
  inputs.config = resolved_;
  write_input_chunks(*writer_, inputs);
  if (tee_->file) tee_->file->flush();
}

RunRecorder::~RunRecorder() = default;

EngineConfig RunRecorder::engine_config() {
  EngineConfig cfg = resolved_;
  cfg.checkpoint_sink = this;
  return cfg;
}

void RunRecorder::on_checkpoint(const EngineCheckpoint& checkpoint) {
  if (closed_) {
    throw std::logic_error("record: checkpoint after the trace was closed");
  }
  checkpoint_offsets_.push_back(tee_->buf.size());
  std::vector<std::uint8_t> payload;
  encode_checkpoint(payload, checkpoint);
  writer_->chunk(tag(RecordChunk::kCheckpoint), payload);
  // Push the chunk to the OS now: a kill after this point loses at most the
  // bytes written since this barrier, and the scanner falls back cleanly.
  if (tee_->file) tee_->file->flush();
}

bool RunRecorder::finish(const RunReport& report) {
  if (closed_) return ok();
  write_outcome_chunks(*writer_, report);
  writer_->end();  // writes the end tag and closes the tee (and the file)
  closed_ = true;
  return ok();
}

void RunRecorder::crash(std::size_t torn_tail_bytes) {
  if (closed_) return;
  closed_ = true;
  if (tee_->file) tee_->file->finish();  // close WITHOUT the end tag
  std::vector<std::uint8_t>& buf = tee_->buf;
  const std::size_t torn = std::min(torn_tail_bytes, buf.size());
  buf.resize(buf.size() - torn);
  if (torn > 0 && !path_.empty()) {
    std::error_code ec;
    std::filesystem::resize_file(path_, buf.size(), ec);
    // A failed truncation only leaves a longer torn tail; the scanner
    // handles that shape anyway, so nothing to report here.
  }
}

const std::vector<std::uint8_t>& RunRecorder::bytes() const {
  return tee_->buf;
}

bool RunRecorder::ok() const { return !tee_->file || tee_->file->ok(); }

std::string RunRecorder::error() const {
  return tee_->file ? tee_->file->error() : std::string();
}

ResumeScan scan_trace_for_resume(const std::vector<std::uint8_t>& bytes) {
  ResumeScan scan;
  // Header errors (magic/version) identify no run at all: let them throw.
  replay::ChunkReader reader(bytes);
  scan.scanned_bytes = reader.offset();
  ChunksSeen seen;
  bool ended = false;
  try {
    for (;;) {
      const std::size_t chunk_start = reader.offset();
      auto chunk = reader.next();
      if (!chunk) {
        ended = true;
        break;
      }
      if (chunk->tag != tag(RecordChunk::kCheckpoint)) {
        decode_chunk(*chunk, scan.record, seen);
        scan.scanned_bytes = reader.offset();
        continue;
      }
      if (!seen.inputs()) {
        throw ReplayError(ErrorKind::kMalformed, chunk_start,
                          "checkpoint chunk before the input chunks");
      }
      EngineCheckpoint cp = decode_checkpoint(chunk->payload);
      if (cp.seq != scan.checkpoints.size()) {
        throw ReplayError(ErrorKind::kMalformed, chunk_start,
                          "checkpoint seq " + std::to_string(cp.seq) +
                              " out of order (expected " +
                              std::to_string(scan.checkpoints.size()) + ")");
      }
      if (!scan.checkpoints.empty() &&
          cp.virtual_now <= scan.checkpoints.back().virtual_now) {
        throw ReplayError(ErrorKind::kMalformed, chunk_start,
                          "checkpoint virtual time not increasing");
      }
      scan.checkpoints.push_back(std::move(cp));
      scan.scanned_bytes = reader.offset();
    }
  } catch (const ReplayError& e) {
    // Before the inputs are complete there is no run to resume — the caller
    // gets the error.  After them, damage is what a crash looks like: stop
    // at the last good chunk and record why.
    if (!seen.inputs()) throw;
    scan.tear = e.what();
  }
  if (!seen.inputs()) {
    throw ReplayError(ErrorKind::kMalformed, bytes.size(),
                      "trace ends before the input chunks are complete");
  }
  require_calibration(seen.base, seen.opt, scan.record.git_rev);
  validate_inputs(scan.record);
  scan.complete = ended && seen.report && seen.events && scan.tear.empty();
  if (!scan.complete) {
    // Don't hand out a half-read outcome: a report without its event stream
    // (or vice versa) is not a verification target.
    scan.record.report = RunReport{};
  }
  return scan;
}

ReplayResult resume_run(const ResumeScan& scan, unsigned threads_override) {
  ReplayResult result;
  Engine engine(trace_config(scan.record.config,
                             replay_threads(scan.record, threads_override)));
  // Per-phase fault overlays carry their own crash time: clear it too.
  TrafficScenario scenario = scan.record.scenario;
  for (TrafficPhase& ph : scenario.phases) {
    if (ph.faults) ph.faults->crash_at_cycles = 0.0;
  }
  if (scan.checkpoints.empty()) {
    // Nothing usable survived: restart from the beginning.  Resume is
    // always possible; checkpoints only buy back the work.
    result.report = engine.run(scenario);
  } else {
    const EngineCheckpoint& cp = scan.checkpoints.back();
    // Everything the engine's restore path treats as a programming error
    // (logic_error) is pre-checked here as typed kMalformed: a CRC-valid
    // checkpoint that lies about the run it belongs to is an input problem.
    const std::string misfit =
        checkpoint_misfit(cp, scenario.program(), engine.config().shards);
    if (!misfit.empty()) {
      throw ReplayError(ErrorKind::kMalformed, 0, "resume: " + misfit);
    }
    result.report = engine.run(scenario, cp);
  }
  if (scan.complete) {
    result.mismatches = compare_reports(scan.record.report, result.report);
  }
  return result;
}

}  // namespace wsp::server
