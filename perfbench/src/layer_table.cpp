#include "layer_table.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> list = {
      {"crypto", "crypto.des3_cbc.mb_per_s", "MB/s", "throughput_per_cpu_s fig8_mix"},
      {"crypto", "crypto.aes128_cbc.mb_per_s", "MB/s", "throughput_per_cpu_s fig8_mix chaos_recover"},
      {"crypto", "crypto.rc4.mb_per_s", "MB/s", "throughput_per_cpu_s fig8_mix resume_scale"},
      {"crypto", "crypto.hmac_sha1.mb_per_s", "MB/s", "throughput_per_cpu_s fig8_mix resume_scale"},
      {"crypto", "crypto.rsa_keygen_ms", "ms", "setup_s design_flow; throughput_per_cpu_s fig8_mix"},
      {"ssl", "ssl.seal_us_per_kb.3des", "us/KiB", "throughput_per_cpu_s fig8_mix"},
      {"ssl", "ssl.seal_us_per_kb.aes", "us/KiB", "throughput_per_cpu_s fig8_mix"},
      {"ssl", "ssl.seal_us_per_kb.rc4", "us/KiB", "throughput_per_cpu_s fig8_mix"},
      {"ssl", "ssl.open_us_per_kb.3des", "us/KiB", "throughput_per_cpu_s fig8_mix"},
      {"ssl", "ssl.open_us_per_kb.aes", "us/KiB", "throughput_per_cpu_s fig8_mix"},
      {"ssl", "ssl.open_us_per_kb.rc4", "us/KiB", "throughput_per_cpu_s fig8_mix"},
      {"ssl", "ssl.kdf_us", "us", "throughput_per_cpu_s resume_scale"},
      {"mp", "mp.powm_crt_us", "us", "throughput_per_cpu_s fig8_mix chaos_recover"},
      {"mp", "mp.hook_events_per_s", "1/s", "op_cpu_s design_flow"},
      {"mp", "mp.hook_events", "count", "op_cpu_s design_flow"},
      {"kernels", "kernels.machine_build_ms", "ms", "setup_s design_flow"},
      {"sim", "sim.mcycles_per_s", "Mcycle/s", "op_cpu_s design_flow"},
      {"sim", "sim.minstr_per_s", "Minstr/s", "op_cpu_s design_flow"},
      {"sim", "sim.cycles", "count", "op_cpu_s design_flow"},
      {"macromodel", "macromodel.characterize_s", "s", "op_cpu_s design_flow"},
      {"explore", "explore.configs_per_s", "1/s", "throughput_per_cpu_s design_flow"},
      {"explore", "explore.estimate_ms.p50", "ms", "throughput_per_cpu_s design_flow"},
      {"explore", "explore.estimate_ms.p99", "ms", "throughput_per_cpu_s design_flow"},
      {"explore", "explore.parallel_eff", "frac", "throughput_per_cpu_s design_flow"},
      {"tie", "tie.adcurves_s", "s", "op_cpu_s design_flow"},
      {"select", "select.select_ms", "ms", "op_cpu_s design_flow"},
      {"server.traffic", "server.traffic.ns_per_arrival", "ns", "throughput_per_cpu_s resume_scale"},
      {"server.session_table", "server.session_table.insert_ns", "ns", "throughput_per_cpu_s resume_scale"},
      {"server.session_table", "server.session_table.erase_ns", "ns", "throughput_per_cpu_s resume_scale"},
      {"server.session_table", "server.session_table.bytes_per_session", "count", "peak_rss_mib resume_scale"},
      {"server.scheduler", "server.scheduler.push_ns", "ns", "throughput_per_cpu_s resume_scale"},
      {"server.scheduler", "server.scheduler.backpressure_waits", "count", "throughput_per_cpu_s resume_scale fig8_mix"},
      {"server.scheduler", "server.scheduler.failed_tasks", "count", "correct (must be 0)"},
      {"server.session", "server.session.handshake_us", "us", "throughput_per_cpu_s fig8_mix"},
      {"server.session", "server.session.resume_us", "us", "throughput_per_cpu_s resume_scale"},
      {"server.session", "server.session.pump_us_per_record", "us", "throughput_per_cpu_s fig8_mix"},
      {"server.session", "server.session.useful_ratio", "frac", "throughput_per_cpu_s chaos_recover"},
      {"server.session", "server.session.record_useful_ratio", "frac", "throughput_per_cpu_s chaos_recover"},
      {"server.session", "server.session.retries", "count", "throughput_per_cpu_s chaos_recover"},
      {"server.session", "server.session.repairs", "count", "throughput_per_cpu_s chaos_recover"},
      {"server.engine", "server.engine.unattributed_frac", "frac", "throughput_per_cpu_s resume_scale"},
      {"server.checkpoint", "server.checkpoint.encode_us", "us", "op_cpu_s chaos_recover"},
      {"server.checkpoint", "server.checkpoint.decode_us", "us", "op_cpu_s chaos_recover"},
      {"server.checkpoint", "server.checkpoint.validate_us", "us", "op_cpu_s chaos_recover"},
      {"server.checkpoint", "server.checkpoint.bytes", "count", "op_cpu_s chaos_recover"},
      {"server.checkpoint", "server.checkpoint.barrier_s", "s", "throughput_per_cpu_s chaos_recover"},
      {"server.record", "server.record.encode_mb_per_s", "MB/s", "op_cpu_s chaos_recover"},
      {"server.record", "server.record.decode_mb_per_s", "MB/s", "op_cpu_s chaos_recover"},
      {"server.record", "server.record.scan_ms", "ms", "op_cpu_s chaos_recover"},
      {"server.record", "server.record.resume_run_s", "s", "op_cpu_s chaos_recover"},
      {"trace", "trace.overhead_frac", "frac", "none (must stay small)"},
  };
  return list;
}

void emit_layers(const std::string& workload,
                 const std::map<std::string, double>& values,
                 RunResult& result) {
  std::printf("\nwhere host time goes: %s (traced run)\n", workload.c_str());
  std::printf("%-40s %14s %-9s %s\n", "metric", "value", "unit",
              "should move");
  const char* module = "";
  for (const LayerMetric& m : layer_metrics()) {
    if (std::strcmp(module, m.module) != 0) {
      module = m.module;
      std::printf("[%s]\n", module);
    }
    const auto it = values.find(m.name);
    if (!result.check(it != values.end() && std::isfinite(it->second),
                      std::string("per-layer metric not measured: ") + m.name)) {
      continue;
    }
    std::printf("  %-38s %14.6g %-9s %s\n", m.name, it->second, m.unit,
                m.feeds);
    result.put(m.name, it->second, m.unit);
  }
}

}  // namespace perfbench
