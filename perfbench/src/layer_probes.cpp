// The traced run of every workload: kernel-level probes (crypto, ssl, mp),
// the server data-plane replay, the codec probe and the method-layer flow,
// each on the workload's own inputs where it has them.  Every call into a
// layer is wrapped in a span; the spans are written out when the run ends.
#include <cmath>
#include <cstdio>

#include "crypto/aes.h"
#include "crypto/des.h"
#include "crypto/hmac.h"
#include "crypto/rc4.h"
#include "crypto/rsa.h"
#include "flow.h"
#include "layer_table.h"
#include "mp/prime.h"
#include "server_probe.h"
#include "ssl/ssl.h"

namespace perfbench {

using namespace wsp;

namespace {

/// Inputs of the kernel-level probes, taken from the workload.
struct KernelInputs {
  std::size_t record_bytes = 1024;
  std::vector<ssl::Cipher> ciphers;
  std::size_t rsa_bits = 512;
  std::uint64_t seed = 1;
};

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u32());
  return v;
}

/// Calls `fn` on one record-sized buffer until `budget` bytes have passed,
/// one span per call; returns MB/s over the span time.
template <typename Fn>
double stream_probe(const char* span, std::size_t record, std::size_t budget,
                    std::vector<std::uint8_t>& buf, Fn&& fn,
                    std::vector<SpanRecord>& all) {
  SpanRecorder::instance().clear();
  for (std::size_t done = 0; done < budget; done += record) {
    ScopedSpan s(span);
    fn(buf);
  }
  std::vector<SpanRecord> batch;
  SpanRecorder::instance().collect(batch);
  append_spans(all, batch);
  const SpanStats st = SpanRecorder::aggregate(batch).at(span);
  return static_cast<double>(st.count * record) / st.total_s * 1e-6;
}

const char* cipher_tag(ssl::Cipher c) {
  switch (c) {
    case ssl::Cipher::kTripleDesCbc: return "3des";
    case ssl::Cipher::kAes128Cbc: return "aes";
    case ssl::Cipher::kRc4: return "rc4";
  }
  return "?";
}

void kernel_probes(const KernelInputs& in, std::map<std::string, double>& v,
                   RunResult& result, std::vector<SpanRecord>& all) {
  SpanRecorder& rec = SpanRecorder::instance();
  rec.set_enabled(true);
  Rng rng(mix_seed(in.seed, 401));
  const std::size_t rb = in.record_bytes;
  std::vector<std::uint8_t> buf = random_bytes(rb, rng);

  // crypto: the record cipher and MAC functions on record-sized buffers.
  const auto ks3 = des::triple_key_schedule(rng.next_u64(), rng.next_u64(),
                                            rng.next_u64());
  std::uint64_t chain = rng.next_u64();
  v["crypto.des3_cbc.mb_per_s"] = stream_probe(
      "crypto.des3_cbc", rb, 192 * 1024, buf,
      [&](std::vector<std::uint8_t>& b) {
        for (std::size_t i = 0; i + 8 <= b.size(); i += 8) {
          chain = des::encrypt_block_3des(des::load_be64(b.data() + i) ^ chain, ks3);
          des::store_be64(chain, b.data() + i);
        }
      },
      all);
  const auto aks = aes::key_schedule(random_bytes(16, rng));
  std::array<std::uint8_t, 16> iv{};
  v["crypto.aes128_cbc.mb_per_s"] = stream_probe(
      "crypto.aes128_cbc", rb, 4 << 20, buf,
      [&](std::vector<std::uint8_t>& b) { b = aes::encrypt_cbc(b, aks, iv); },
      all);
  Rc4 rc4(random_bytes(16, rng));
  v["crypto.rc4.mb_per_s"] = stream_probe(
      "crypto.rc4", rb, 8 << 20, buf,
      [&](std::vector<std::uint8_t>& b) { rc4.process(b.data(), b.size()); },
      all);
  const auto mac_key = random_bytes(20, rng);
  std::vector<std::uint8_t> tag;
  v["crypto.hmac_sha1.mb_per_s"] = stream_probe(
      "crypto.hmac_sha1", rb, 4 << 20, buf,
      [&](std::vector<std::uint8_t>& b) { tag = hmac_sha1(mac_key, b); }, all);

  // ssl: seal on one channel, open on its peer, for every record cipher.
  for (ssl::Cipher c : {ssl::Cipher::kTripleDesCbc, ssl::Cipher::kAes128Cbc,
                        ssl::Cipher::kRc4}) {
    const ssl::CipherProfile prof = ssl::cipher_profile(c);
    const auto key = random_bytes(prof.key_len, rng);
    const auto mac = random_bytes(20, rng);
    const auto civ = random_bytes(prof.iv_len, rng);
    ssl::SecureChannel tx(c, key, mac, civ), rx(c, key, mac, civ);
    const std::string name = cipher_tag(c);
    const std::size_t budget =
        c == ssl::Cipher::kTripleDesCbc ? 128 * 1024 : 2 << 20;
    rec.clear();
    bool ok = true;
    for (std::size_t done = 0; done < budget; done += rb) {
      std::vector<std::uint8_t> wire;
      {
        ScopedSpan s("ssl.seal");
        wire = tx.seal(buf);
      }
      std::vector<std::uint8_t> back;
      {
        ScopedSpan s("ssl.open");
        back = rx.open(wire);
      }
      ok = ok && back == buf;
      ++result.attempted;
    }
    std::vector<SpanRecord> batch;
    rec.collect(batch);
    append_spans(all, batch);
    const auto stats = SpanRecorder::aggregate(batch);
    const double kib = static_cast<double>(stats.at("ssl.seal").count * rb) / 1024.0;
    v["ssl.seal_us_per_kb." + name] = stats.at("ssl.seal").total_s * 1e6 / kib;
    v["ssl.open_us_per_kb." + name] = stats.at("ssl.open").total_s * 1e6 / kib;
    if (!result.check(ok, "ssl record did not round-trip")) ++result.failed;
  }

  // ssl.kdf at the key-block size of the workload's first cipher.
  {
    const ssl::CipherProfile prof = ssl::cipher_profile(in.ciphers.front());
    const std::size_t block = 2 * (20 + prof.key_len + prof.iv_len);
    const auto secret = random_bytes(48, rng);
    const auto r1 = random_bytes(32, rng), r2 = random_bytes(32, rng);
    rec.clear();
    for (int i = 0; i < 4000; ++i) {
      ScopedSpan s("ssl.kdf");
      tag = ssl::kdf_ssl3(secret, r1, r2, block);
    }
    std::vector<SpanRecord> batch;
    rec.collect(batch);
    append_spans(all, batch);
    v["ssl.kdf_us"] = mean_span(SpanRecorder::aggregate(batch), "ssl.kdf", 1e6);
  }

  // crypto.rsa_keygen and mp.powm_crt at the workload's key size, with the
  // server's exponentiation configuration.
  {
    rec.clear();
    std::vector<rsa::PrivateKey> keys;
    for (int i = 0; i < 3; ++i) {
      Rng krng(mix_seed(in.seed, 410 + i));
      ScopedSpan s("crypto.rsa_generate_key");
      keys.push_back(rsa::generate_key(in.rsa_bits, krng));
    }
    ModexpEngine engine(server_modexp_config());
    const int ops = in.rsa_bits > 512 ? 20 : 60;
    bool ok = true;
    for (int i = 0; i < ops; ++i) {
      const rsa::PrivateKey& k = keys[static_cast<std::size_t>(i) % keys.size()];
      const Mpz c = random_below(k.n, rng);
      Mpz m;
      {
        ScopedSpan s("mp.powm_crt");
        m = engine.powm_crt(c, k.d, k.crt);
      }
      ok = ok && m == Mpz::powm(c, k.d, k.n);
      ++result.attempted;
    }
    if (!result.check(ok, "powm_crt result differs from Mpz::powm")) ++result.failed;
    std::vector<SpanRecord> batch;
    rec.collect(batch);
    append_spans(all, batch);
    const auto stats = SpanRecorder::aggregate(batch);
    v["crypto.rsa_keygen_ms"] = mean_span(stats, "crypto.rsa_generate_key", 1e3);
    v["mp.powm_crt_us"] = mean_span(stats, "mp.powm_crt", 1e6);
  }
  rec.set_enabled(false);
  rec.clear();
}

/// Method-layer values from one traced flow; sets trace.overhead_frac only
/// when `own_overhead` (the design_flow workload).
void flow_values(const FlowLayers& L, const std::map<std::string, SpanStats>& s,
                 unsigned threads, bool own_overhead,
                 std::map<std::string, double>& v) {
  const FlowOutput& f = L.traced;
  const SpanStats& est = s.at("explore.estimate_config");
  v["mp.hook_events"] = static_cast<double>(L.hook_events);
  v["mp.hook_events_per_s"] = static_cast<double>(L.hook_events) / est.total_s;
  v["kernels.machine_build_ms"] = mean_span(s, "kernels.machine_build", 1e3);
  v["sim.cycles"] = static_cast<double>(f.iss_cycles);
  v["sim.mcycles_per_s"] = static_cast<double>(f.iss_cycles) / f.iss_s * 1e-6;
  v["sim.minstr_per_s"] = static_cast<double>(f.iss_instrs) / f.iss_s * 1e-6;
  v["macromodel.characterize_s"] = mean_span(s, "macromodel.characterize", 1.0);
  v["tie.adcurves_s"] = mean_span(s, "tie.adcurves", 1.0);
  v["select.select_ms"] = mean_span(s, "select.select", 1e3);
  v["explore.configs_per_s"] =
      static_cast<double>(f.exploration.ranked.size()) / f.explore_s;
  v["explore.estimate_ms.p50"] = percentile(est.durations, 0.50) * 1e3;
  v["explore.estimate_ms.p99"] = percentile(est.durations, 0.99) * 1e3;
  v["explore.parallel_eff"] = est.total_s / (f.explore_s * threads);
  if (own_overhead) {
    v["trace.overhead_frac"] = L.flow_traced_s / L.flow_untraced_s - 1.0;
  }
}

/// Set-up (spans on) plus the traced method-layer flow.
void method_layers(const FlowParams& params, const Options& opt,
                   bool own_overhead, std::map<std::string, double>& v,
                   RunResult& result, std::vector<SpanRecord>& all) {
  SpanRecorder& rec = SpanRecorder::instance();
  rec.clear();
  rec.set_enabled(true);
  FlowSetup setup = make_flow_setup(params, opt.seed);
  const FlowLayers L = trace_flow_layers(setup, params, opt.threads, result);
  rec.set_enabled(false);
  std::vector<SpanRecord> batch;
  result.check(rec.collect(batch), "method layers left a span open");
  append_spans(all, batch);
  flow_values(L, SpanRecorder::aggregate(batch), opt.threads, own_overhead, v);
  rec.clear();
}

/// The server layers on `spec`'s first repetition.
/// Returns the replay's session-time split for the report.
std::string server_layers(const ServerSpec& spec, const Options& opt,
                          std::map<std::string, double>& v, RunResult& result,
                          std::vector<SpanRecord>& all) {
  server::TrafficScenario sc = spec.scenario;
  sc.seed = mix_seed(opt.seed, 0);
  const PlaneLayers d = drive_server_layers(sc, spec.config, result, all);
  const auto probe =
      session_probe(sc, spec.config.rsa_bits, opt.seed, result, all);
  server::EngineConfig cfg = spec.config;
  if (cfg.checkpoint_every <= 0.0) cfg.checkpoint_every = checkpoint_interval(spec, 12);
  const CodecLayers c = probe_codec(sc, cfg, result, all);
  server_layer_values(d, probe, c, opt.threads, v);
  return session_time_split(d);
}

RunResult finish_trace(const Options& opt, std::map<std::string, double>& v,
                       RunResult& result, const std::vector<SpanRecord>& all,
                       const std::string& summary) {
  if (!opt.spans_out.empty()) {
    result.check(SpanRecorder::write_tsv(all, opt.spans_out),
                 "cannot write spans to " + opt.spans_out);
  }
  emit_layers(opt.workload, v, result);
  if (!summary.empty()) std::printf("%s\n", summary.c_str());
  return result;
}

RunResult trace_server_workload(const ServerSpec& spec, const Options& opt) {
  RunResult result;
  std::vector<SpanRecord> all;
  std::map<std::string, double> v;
  KernelInputs in;
  in.record_bytes = spec.scenario.record_bytes;
  in.ciphers = spec.scenario.ciphers;
  in.rsa_bits = spec.config.rsa_bits;
  in.seed = opt.seed;
  kernel_probes(in, v, result, all);
  const std::string split = server_layers(spec, opt, v, result, all);
  method_layers(probe_flow_params(), opt, false, v, result, all);
  return finish_trace(opt, v, result, all, split);
}

}  // namespace

RunResult trace_fig8_mix(const Options& opt) {
  return trace_server_workload(fig8_spec(opt.threads), opt);
}

RunResult trace_resume_scale(const Options& opt) {
  return trace_server_workload(resume_spec(opt.threads), opt);
}

RunResult trace_chaos_recover(const Options& opt) {
  return trace_server_workload(chaos_spec(opt.threads), opt);
}

RunResult trace_design_flow(const Options& opt) {
  RunResult result;
  std::vector<SpanRecord> all;
  std::map<std::string, double> v;
  const FlowParams params = full_flow_params();
  KernelInputs in;
  in.ciphers = fig8_spec(opt.threads).scenario.ciphers;
  in.rsa_bits = params.rsa_bits;
  in.seed = opt.seed;
  kernel_probes(in, v, result, all);
  // No server code runs in this workload: the server layers are probed on
  // a small Fig. 8 scenario so the table stays complete.
  ServerSpec probe = fig8_spec(opt.threads);
  probe.scenario.sessions = 96;
  std::map<std::string, double> server;
  server_layers(probe, opt, server, result, all);
  server.erase("trace.overhead_frac");
  v.insert(server.begin(), server.end());
  method_layers(params, opt, true, v, result, all);
  return finish_trace(opt, v, result, all, "");
}

}  // namespace perfbench
