// Traced breakdown of the server data plane and its codecs.  The benchmark
// drives each layer's public API itself and wraps every call in a span; the
// library stays uninstrumented.
#include <cmath>
#include <cstdio>
#include <optional>
#include <unordered_map>

#include "crypto/rsa.h"
#include "server/checkpoint.h"
#include "server/faults.h"
#include "server/record.h"
#include "server/scheduler.h"
#include "server/session.h"
#include "server/session_table.h"
#include "server/traffic.h"
#include "server_probe.h"
#include "support/threadpool.h"

namespace perfbench {

using namespace wsp;
using namespace wsp::server;

ModexpConfig server_modexp_config() {
  ModexpConfig cfg;
  cfg.mul = MulAlgo::kMontCIOS;
  cfg.window_bits = 5;
  cfg.crt = CrtMode::kGarner;
  cfg.caching = Caching::kFull;
  return cfg;
}

namespace {

/// Establishes a session the way the engine does: retry a failed handshake
/// up to the budget, then abort.  Returns false when the session aborted.
bool establish(Session& s, bool resume, unsigned budget,
               const rsa::PrivateKey* key) {
  for (unsigned attempt = 0;; ++attempt) {
    try {
      if (resume) {
        ScopedSpan span("server.session.resume", s.id());
        s.resume();
      } else {
        ModexpEngine client{ModexpConfig{}};
        ModexpEngine server(server_modexp_config());
        ScopedSpan span("server.session.handshake", s.id());
        s.handshake(*key, client, server);
      }
      return true;
    } catch (const SessionError& e) {
      if (e.kind() != SessionErrorKind::kHandshakeFailed || attempt >= budget) {
        s.abort();
        return false;
      }
    }
  }
}

/// One pass of the session replay; returns its wall time.  `out` receives one
/// SessionEvent per admitted session, in the engine's arrival order.
double replay_pass(const TrafficScenario& sc, const EngineConfig& cfg,
                   const std::vector<SessionEvent>& admitted,
                   const rsa::PrivateKey* key, std::vector<SessionEvent>& out) {
  const double t0 = now_s();
  ScopedSpan root("bench.run");

  // Regenerate the offered stream: ids, ciphers, sizes and session seeds
  // do not depend on the arrival rate, so any mean service gives them.
  std::unordered_map<std::uint64_t, SessionArrival> arrivals;
  {
    TrafficGenerator gen(sc, 1.0e6, cfg.shards);
    for (;;) {
      std::optional<SessionArrival> a;
      {
        ScopedSpan span("server.traffic.next");
        a = gen.next();
      }
      if (!a) break;
      arrivals.emplace(a->id, *a);
    }
  }

  const FaultPlan plan(cfg.faults, sc.seed);
  ThreadPool pool(cfg.threads);
  SessionTable table(cfg.shards);
  RecordScheduler sched(pool, cfg.shards, cfg.queue_capacity, cfg.record_batch);
  out.assign(admitted.size(), SessionEvent{});
  const unsigned budget = cfg.faults.handshake_retry_budget;
  const std::size_t batch = cfg.record_batch;

  for (std::size_t i = 0; i < admitted.size(); ++i) {
    const SessionArrival& a = arrivals.at(admitted[i].id);
    SessionConfig scfg;
    scfg.id = a.id;
    scfg.cipher = a.cipher;
    scfg.transaction_bytes = a.transaction_bytes;
    scfg.record_bytes = sc.record_bytes;
    scfg.seed = a.session_seed;
    scfg.faults = plan.schedule_for(a.id);
    SessionTable::Inserted ins;
    {
      ScopedSpan span("server.session_table.insert", a.id);
      ins = table.insert(scfg);
    }
    SessionEvent* ev = &out[i];
    ev->id = a.id;
    ev->shard = admitted[i].shard;
    const bool resume = a.resume;
    auto task = [ins, ev, resume, budget, batch, key, &table] {
      Session& s = *ins.session;
      ScopedSpan span("bench.session", s.id());
      bool completed = false;
      try {
        if (establish(s, resume, budget, key)) {
          while (!s.finished()) {
            ScopedSpan pump("server.session.pump", s.id());
            s.pump(batch);
          }
          ScopedSpan td("server.session.teardown", s.id());
          s.teardown();
          completed = true;
        }
      } catch (...) {
        s.abort();
      }
      ev->wire_bytes = s.wire_bytes();
      ev->records = s.records();
      const std::uint32_t attempts = s.handshake_attempts();
      ev->retries = s.retries() + (attempts > 0 ? attempts - 1 : 0);
      ev->repairs = s.repairs();
      ev->faults = s.faults_seen();
      ev->completed = completed;
      ScopedSpan erase("server.session_table.erase", s.id());
      table.erase(ins.handle);
    };
    ScopedSpan span("server.scheduler.push", a.id);
    sched.push(ev->shard, std::move(task));
  }
  {
    ScopedSpan span("server.scheduler.drain");
    sched.drain();
  }
  return now_s() - t0;
}

/// Collects what the recorder holds, appends it to `all` and aggregates it.
std::map<std::string, SpanStats> harvest(std::vector<SpanRecord>& all,
                                         const char* what, RunResult& result) {
  std::vector<SpanRecord> batch;
  result.check(SpanRecorder::instance().collect(batch),
               std::string(what) + " left a span open");
  append_spans(all, batch);
  return SpanRecorder::aggregate(batch);
}

}  // namespace

PlaneLayers drive_server_layers(const TrafficScenario& scenario,
                                 const EngineConfig& config, RunResult& result,
                                 std::vector<SpanRecord>& all_spans) {
  PlaneLayers d;
  SpanRecorder& rec = SpanRecorder::instance();

  EngineConfig cfg = config;
  cfg.record_events = true;
  rec.set_enabled(false);
  {
    const double t0 = now_s();
    d.engine_report = Engine(cfg).run(scenario);
    d.engine_wall_s = now_s() - t0;
  }
  const std::vector<SessionEvent>& want = d.engine_report.events;

  std::optional<rsa::PrivateKey> key;
  if (!scenario.resume_sessions) {
    Rng rng(mix_seed(scenario.seed, 201));
    key = rsa::generate_key(config.rsa_bits, rng);
  }
  const rsa::PrivateKey* key_ptr = key ? &*key : nullptr;

  std::vector<SessionEvent> got;
  d.untraced_wall_s = replay_pass(scenario, cfg, want, key_ptr, got);
  bool ok = result.check(got == want, "untraced replay sessions differ from Engine::run");
  rec.clear();
  rec.set_enabled(true);
  d.traced_wall_s = replay_pass(scenario, cfg, want, key_ptr, got);
  rec.set_enabled(false);
  ok = result.check(got == want, "traced replay sessions differ from Engine::run") && ok;
  d.spans = harvest(all_spans, "session replay", result);
  const std::uint64_t ops = 3 * want.size();
  result.attempted += ops;
  if (!ok) result.failed += ops;
  return d;
}

std::map<std::string, SpanStats> session_probe(const TrafficScenario& scenario,
                                               std::size_t rsa_bits,
                                               std::uint64_t seed,
                                               RunResult& result,
                                               std::vector<SpanRecord>& all_spans) {
  SpanRecorder& rec = SpanRecorder::instance();
  Rng rng(mix_seed(seed, 202));
  const rsa::PrivateKey key = rsa::generate_key(rsa_bits, rng);
  rec.clear();
  rec.set_enabled(true);
  std::uint64_t id = 1;
  bool ok = true;
  for (int round = 0; round < 4; ++round) {
    for (ssl::Cipher c : scenario.ciphers) {
      for (bool resume : {false, true}) {
        SessionConfig scfg;
        scfg.id = id++;
        scfg.cipher = c;
        scfg.transaction_bytes = scenario.transaction_sizes.front();
        scfg.record_bytes = scenario.record_bytes;
        scfg.seed = mix_seed(seed, 300 + id);
        Session s(scfg);
        if (!establish(s, resume, 0, &key)) ok = false;
        while (s.state() == SessionState::kEstablished && !s.finished()) {
          ScopedSpan pump("server.session.pump", s.id());
          s.pump(4);
        }
        s.teardown();
        ++result.attempted;
      }
    }
  }
  rec.set_enabled(false);
  if (!result.check(ok, "session probe failed")) ++result.failed;
  return harvest(all_spans, "session probe", result);
}

CodecLayers probe_codec(const TrafficScenario& scenario,
                        const EngineConfig& config, RunResult& result,
                        std::vector<SpanRecord>& all_spans) {
  CodecLayers c;
  SpanRecorder& rec = SpanRecorder::instance();
  rec.set_enabled(false);

  // The same run with and without the checkpoint sink.
  RunRecorder recorder(config, scenario);
  const double t0 = now_s();
  const RunReport report = Engine(recorder.engine_config()).run(scenario);
  const double with_sink = now_s() - t0;
  recorder.finish(report);
  EngineConfig plain = config;
  plain.record_events = true;
  const double t1 = now_s();
  const RunReport plain_report = Engine(plain).run(scenario);
  c.barrier_s = with_sink - (now_s() - t1);
  bool ok = result.check(compare_reports(report, plain_report).empty(),
                         "checkpoint barriers changed the run's report");
  const std::vector<std::uint8_t>& bytes = recorder.bytes();
  const auto& offsets = recorder.checkpoint_offsets();
  ok = result.check(!offsets.empty(), "codec probe run took no checkpoint") && ok;

  rec.clear();
  rec.set_enabled(true);
  ResumeScan full;
  {
    ScopedSpan span("server.record.scan_complete");
    full = scan_trace_for_resume(bytes);
  }
  ok = result.check(full.complete, "complete trace scanned as torn") && ok;
  for (const EngineCheckpoint& cp : full.checkpoints) {
    std::vector<std::uint8_t> payload;
    {
      ScopedSpan span("server.checkpoint.encode");
      encode_checkpoint(payload, cp);
    }
    c.checkpoint_bytes += payload.size();
    EngineCheckpoint back;
    {
      ScopedSpan span("server.checkpoint.decode");
      back = decode_checkpoint(payload);
    }
    {
      ScopedSpan span("server.checkpoint.validate");
      validate_checkpoint(back);
    }
    ok = result.check(back == cp, "checkpoint did not round-trip") && ok;
  }
  // Whole-record codec, repeated so the timing covers a few milliseconds.
  for (int i = 0; i < 5; ++i) {
    std::vector<std::uint8_t> enc;
    {
      ScopedSpan span("server.record.encode");
      enc = encode_run_record(full.record);
    }
    c.record_bytes = enc.size();
    RunRecord back;
    {
      ScopedSpan span("server.record.decode");
      back = decode_run_record(enc);
    }
    ok = result.check(compare_reports(full.record.report, back.report).empty(),
                      "run record did not round-trip") && ok;
  }
  // Torn trace: scan and resume from the last intact checkpoint.
  const std::size_t keep = offsets.empty() ? 0 : offsets.size() * 2 / 3;
  if (!offsets.empty()) {
    const std::vector<std::uint8_t> torn(bytes.begin(),
                                         bytes.begin() + offsets[keep] + 5);
    ResumeScan scan;
    {
      ScopedSpan span("server.record.scan");
      scan = scan_trace_for_resume(torn);
    }
    ReplayResult resumed;
    {
      ScopedSpan span("server.record.resume_run");
      resumed = resume_run(scan, config.threads);
    }
    ok = result.check(scan.checkpoints.size() == keep,
                      "resume scan did not stop at the tear") && ok;
    ok = result.check(compare_reports(report, resumed.report).empty(),
                      "resumed report differs from the recorded run") && ok;
  }
  rec.set_enabled(false);
  c.spans = harvest(all_spans, "codec probe", result);
  const std::uint64_t ops = 2 * report.admitted + full.checkpoints.size();
  result.attempted += ops;
  if (!ok) result.failed += ops;
  return c;
}

std::string session_time_split(const PlaneLayers& d) {
  const double total = total_span(d.spans, "bench.session");
  auto pct = [&](const char* name) {
    return 100.0 * total_span(d.spans, name) / total;
  };
  char line[256];
  std::snprintf(line, sizeof line,
                "session time split (traced replay, %.3f s over all workers): "
                "handshake %.1f%%, resume %.1f%%, record pump (ssl + crypto) "
                "%.1f%%, teardown %.1f%%, other %.1f%%",
                total, pct("server.session.handshake"),
                pct("server.session.resume"), pct("server.session.pump"),
                pct("server.session.teardown"),
                100.0 - pct("server.session.handshake") -
                    pct("server.session.resume") - pct("server.session.pump") -
                    pct("server.session.teardown"));
  return line;
}

void server_layer_values(const PlaneLayers& d,
                         const std::map<std::string, SpanStats>& probe,
                         const CodecLayers& c, unsigned threads,
                         std::map<std::string, double>& v) {
  const auto& s = d.spans;
  const RunReport& rep = d.engine_report;
  v["server.traffic.ns_per_arrival"] = mean_span(s, "server.traffic.next", 1e9);
  v["server.session_table.insert_ns"] =
      mean_span(s, "server.session_table.insert", 1e9);
  v["server.session_table.erase_ns"] =
      mean_span(s, "server.session_table.erase", 1e9);
  v["server.session_table.bytes_per_session"] =
      static_cast<double>(SessionTable::bytes_per_session());
  v["server.scheduler.push_ns"] = mean_span(s, "server.scheduler.push", 1e9);
  v["server.scheduler.backpressure_waits"] =
      static_cast<double>(rep.backpressure_waits);
  v["server.scheduler.failed_tasks"] = static_cast<double>(rep.failed_tasks);
  // Handshake and resume come from the workload's own sessions when it has
  // them, otherwise from the serial session probe.
  for (const char* op : {"handshake", "resume"}) {
    const std::string span = std::string("server.session.") + op;
    const double own = mean_span(s, span, 1e6);
    v[span + "_us"] = std::isnan(own) ? mean_span(probe, span, 1e6) : own;
  }
  v["server.session.pump_us_per_record"] =
      total_span(s, "server.session.pump") * 1e6 /
      static_cast<double>(rep.records);
  v["server.session.useful_ratio"] =
      static_cast<double>(rep.completed) / static_cast<double>(rep.admitted);
  v["server.session.record_useful_ratio"] =
      static_cast<double>(rep.records) /
      static_cast<double>(rep.records + rep.retried);
  v["server.session.retries"] = static_cast<double>(rep.retried);
  v["server.session.repairs"] = static_cast<double>(rep.repaired);
  double layer_self = 0.0;
  for (const char* name :
       {"server.traffic.next", "server.session_table.insert",
        "server.session_table.erase", "server.scheduler.push",
        "server.session.handshake", "server.session.resume",
        "server.session.pump", "server.session.teardown"}) {
    const auto it = s.find(name);
    if (it != s.end()) layer_self += it->second.self_s;
  }
  v["server.engine.unattributed_frac"] =
      1.0 - layer_self / (d.engine_wall_s * threads);

  const auto& cs = c.spans;
  v["server.checkpoint.encode_us"] = mean_span(cs, "server.checkpoint.encode", 1e6);
  v["server.checkpoint.decode_us"] = mean_span(cs, "server.checkpoint.decode", 1e6);
  v["server.checkpoint.validate_us"] =
      mean_span(cs, "server.checkpoint.validate", 1e6);
  v["server.checkpoint.bytes"] = static_cast<double>(c.checkpoint_bytes);
  v["server.checkpoint.barrier_s"] = c.barrier_s;
  const double rec_mb = static_cast<double>(c.record_bytes) * 1e-6;
  v["server.record.encode_mb_per_s"] =
      rec_mb * 1e6 / mean_span(cs, "server.record.encode", 1e6);
  v["server.record.decode_mb_per_s"] =
      rec_mb * 1e6 / mean_span(cs, "server.record.decode", 1e6);
  v["server.record.scan_ms"] = mean_span(cs, "server.record.scan", 1e3);
  v["server.record.resume_run_s"] = mean_span(cs, "server.record.resume_run", 1.0);
  v["trace.overhead_frac"] = d.traced_wall_s / d.untraced_wall_s - 1.0;
}

}  // namespace perfbench
