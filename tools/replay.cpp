// Replays a recorded engine run (server/record.h, format wsp-replay-v1) and
// verifies the outcome bit-exactly: every deterministic RunReport field,
// per-shard event digest and per-session event must match the recording.
// Because the engine's determinism contract excludes thread count, the
// replay may run at any --threads value — replaying a chaos failure
// recorded at --threads 8 under a single thread (or a debugger) is the
// point of the format.
//
// Crash recovery (docs/recovery.md): --resume scans a possibly-torn trace —
// one a crashed run left without its end tag, or with a partially-written
// checkpoint chunk at the tail — restores the last valid checkpoint and
// continues the run.  For a complete trace the resumed outcome is verified
// against the recording just like a plain replay; for a torn trace there is
// no recorded outcome, so the resumed report is printed instead.
//
// Usage: replay TRACE_FILE [--threads N] [--dump] [--resume]
//   --threads N   re-run with N worker threads (default: as recorded)
//   --dump        print the recorded header/summary, do not re-run
//   --resume      crash recovery: restore the last valid checkpoint
//
// Exit codes: 0 replay/resume verified, 1 mismatch, 2 unreadable/invalid
// trace (for --resume: damage before the input chunks completed).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/record.h"
#include "server/traffic.h"
#include "ssl/ssl.h"

namespace {

using namespace wsp;

void dump_record(const server::RunRecord& rec) {
  const server::RunReport& r = rec.report;
  std::printf("wsp-replay-v1 run record\n");
  std::printf("  recorded at git_rev %s on %u threads\n", rec.git_rev.c_str(),
              rec.recorded_threads);
  std::printf("  scenario: seed %llu, %zu sessions, %s, load %.2f\n",
              static_cast<unsigned long long>(rec.scenario.seed),
              rec.scenario.sessions,
              rec.scenario.model == server::ArrivalModel::kOpenLoop
                  ? "open loop"
                  : "closed loop",
              rec.scenario.offered_load);
  std::printf("  ciphers:");
  for (ssl::Cipher c : rec.scenario.ciphers) {
    std::printf(" %s", ssl::to_string(c));
  }
  std::printf("\n");
  if (!rec.scenario.phases.empty()) {
    std::printf("  program: %zu phases, %zu total sessions\n",
                rec.scenario.phases.size(), rec.scenario.total_sessions());
    for (const server::TrafficPhase& ph : rec.scenario.phases) {
      std::printf("    phase '%s': %zu sessions, %s, %s%.2f, resume %.2f%s\n",
                  ph.name.c_str(), ph.sessions,
                  ph.model == server::ArrivalModel::kOpenLoop ? "open loop"
                                                              : "closed loop",
                  ph.model == server::ArrivalModel::kOpenLoop ? "load "
                                                              : "users ",
                  ph.model == server::ArrivalModel::kOpenLoop
                      ? ph.offered_load
                      : static_cast<double>(ph.users),
                  ph.resume_fraction, ph.faults ? ", fault overlay" : "");
    }
  }
  if (!rec.scenario_source.empty()) {
    std::printf("  scenario source (.wsp, %zu bytes):\n",
                rec.scenario_source.size());
    // Indent each line so the embedded text reads as a quoted block.
    std::size_t start = 0;
    while (start < rec.scenario_source.size()) {
      std::size_t end = rec.scenario_source.find('\n', start);
      if (end == std::string::npos) end = rec.scenario_source.size();
      std::printf("    %.*s\n", static_cast<int>(end - start),
                  rec.scenario_source.c_str() + start);
      start = end + 1;
    }
  } else {
    std::printf("  scenario source: none (legacy trace or hand-built "
                "scenario)\n");
  }
  std::printf("  engine: %u shards, queue %zu, batch %zu, rsa %zu, "
              "degrade depth %zu%s\n",
              rec.config.shards, rec.config.queue_capacity,
              rec.config.record_batch, rec.config.rsa_bits,
              rec.config.degrade_depth,
              rec.config.faults.enabled() ? ", faults on" : "");
  std::printf("  outcome: offered %llu, admitted %llu, completed %llu, "
              "aborted %llu, dropped %llu\n",
              static_cast<unsigned long long>(r.offered),
              static_cast<unsigned long long>(r.admitted),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.aborted),
              static_cast<unsigned long long>(r.dropped));
  std::printf("  faults %llu, retried %llu, repaired %llu, shed %llu, "
              "degrade enters %llu\n",
              static_cast<unsigned long long>(r.faults_injected),
              static_cast<unsigned long long>(r.retried),
              static_cast<unsigned long long>(r.repaired),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.degrade_enters));
  std::printf("  throughput %.4f sessions/Gcycle, makespan %.1f Mcycles, "
              "bytes digest %08x\n",
              r.throughput_per_gcycle, r.makespan_cycles / 1e6,
              r.bytes_digest);
  std::printf("  %zu session events across %zu shards\n", r.events.size(),
              r.shards.size());
  for (std::size_t s = 0; s < r.shards.size(); ++s) {
    std::printf("    shard %zu: events digest %016llx (%llu sessions)\n", s,
                static_cast<unsigned long long>(r.shards[s].events_digest),
                static_cast<unsigned long long>(r.shards[s].admitted));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  unsigned threads = 0;
  bool dump = false;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dump") {
      dump = true;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<unsigned>(
          std::strtoul(arg.c_str() + std::strlen("--threads="), nullptr, 10));
    } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: replay TRACE_FILE [--threads N] [--dump] "
                   "[--resume]\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: replay TRACE_FILE [--threads N] [--dump] "
                 "[--resume]\n");
    return 2;
  }

  if (resume) {
    server::ResumeScan scan;
    try {
      scan = server::scan_trace_for_resume(wsp::replay::read_file(path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "resume: %s: %s\n", path.c_str(), e.what());
      return 2;
    }
    std::printf("scanned %s: %zu bytes, %zu checkpoint%s, %s\n", path.c_str(),
                scan.scanned_bytes, scan.checkpoints.size(),
                scan.checkpoints.size() == 1 ? "" : "s",
                scan.complete ? "complete trace" : "torn trace");
    if (!scan.tear.empty()) std::printf("  tear: %s\n", scan.tear.c_str());
    if (!scan.checkpoints.empty()) {
      const server::EngineCheckpoint& cp = scan.checkpoints.back();
      std::printf("resuming from checkpoint %llu at virtual cycle %.1f "
                  "(%llu of the run's arrivals already offered) on %u "
                  "threads...\n",
                  static_cast<unsigned long long>(cp.seq), cp.virtual_now,
                  static_cast<unsigned long long>(cp.offered),
                  threads > 0 ? threads : scan.record.recorded_threads);
    } else {
      std::printf("no usable checkpoint; restarting the run from the "
                  "beginning on %u threads...\n",
                  threads > 0 ? threads : scan.record.recorded_threads);
    }
    server::ReplayResult result;
    try {
      result = server::resume_run(scan, threads);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "resume: %s: %s\n", path.c_str(), e.what());
      return 2;
    }
    if (!result.ok()) {
      std::fprintf(stderr, "resume FAILED: %zu mismatches\n",
                   result.mismatches.size());
      for (const std::string& m : result.mismatches) {
        std::fprintf(stderr, "  %s\n", m.c_str());
      }
      return 1;
    }
    const server::RunReport& r = result.report;
    std::printf("resume OK: offered %llu, admitted %llu, completed %llu, "
                "aborted %llu, dropped %llu%s\n",
                static_cast<unsigned long long>(r.offered),
                static_cast<unsigned long long>(r.admitted),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.aborted),
                static_cast<unsigned long long>(r.dropped),
                scan.complete
                    ? " — verified bit-identical against the recording"
                    : " (torn trace: no recorded outcome to verify against)");
    return 0;
  }

  server::RunRecord rec;
  try {
    rec = server::read_run_record_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay: %s: %s\n", path.c_str(), e.what());
    return 2;
  }

  if (dump) {
    dump_record(rec);
    return 0;
  }

  std::printf("replaying %s (recorded at %s, %zu sessions) on %u threads...\n",
              path.c_str(), rec.git_rev.c_str(), rec.scenario.sessions,
              threads > 0 ? threads : rec.recorded_threads);
  const server::ReplayResult result = server::replay_run(rec, threads);
  if (!result.ok()) {
    std::fprintf(stderr, "replay FAILED: %zu mismatches\n",
                 result.mismatches.size());
    for (const std::string& m : result.mismatches) {
      std::fprintf(stderr, "  %s\n", m.c_str());
    }
    return 1;
  }
  std::printf("replay OK: RunReport, %zu shard digests and %zu session "
              "events bit-identical\n",
              result.report.shards.size(), result.report.events.size());
  return 0;
}
