// Tier-1 stage tests for the engine's virtual-time admission model
// (server/admission.h): driven alone — no thread pool, no sessions, no
// RSA — it must reproduce every virtual-timeline field of Engine::run
// exactly, for a flat Fig. 8 run, an overload run in degrade mode and the
// golden two-phase chaos program.
#include <gtest/gtest.h>

#include <cstddef>

#include "golden_chaos_trace.h"
#include "server/admission.h"
#include "server/engine.h"
#include "server/record.h"
#include "server_section.h"

namespace wsp {
namespace {

/// Every arrival offered to the model alone; its report.
server::RunReport admit_only(const server::EngineConfig& config,
                             const server::TrafficScenario& scenario) {
  server::AdmissionModel model(config, scenario);
  while (const auto arrival = model.next()) (void)model.offer(*arrival);
  return model.report();
}

/// The model's report against the full engine's, on every field the
/// virtual timeline owns (bit-exact doubles).
void expect_same_timeline(const server::EngineConfig& config,
                          const server::TrafficScenario& scenario) {
  server::Engine engine(config);
  const server::RunReport want = engine.run(scenario);
  const server::RunReport got = admit_only(engine.config(), scenario);
  EXPECT_EQ(got.offered, want.offered);
  EXPECT_EQ(got.admitted, want.admitted);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.shed, want.shed);
  EXPECT_EQ(got.degrade_enters, want.degrade_enters);
  EXPECT_EQ(got.latency.p50, want.latency.p50);
  EXPECT_EQ(got.latency.p90, want.latency.p90);
  EXPECT_EQ(got.latency.p99, want.latency.p99);
  EXPECT_EQ(got.latency.max, want.latency.max);
  EXPECT_EQ(got.makespan_cycles, want.makespan_cycles);
  EXPECT_EQ(got.peak_virtual_depth, want.peak_virtual_depth);
  EXPECT_EQ(got.peak_sessions, want.peak_sessions);
  EXPECT_EQ(got.mean_service_cycles, want.mean_service_cycles);
  EXPECT_EQ(got.platform_cycles_base, want.platform_cycles_base);
  EXPECT_EQ(got.platform_cycles_optimized, want.platform_cycles_optimized);
  EXPECT_EQ(got.equivalent_speedup, want.equivalent_speedup);
  ASSERT_EQ(got.shards.size(), want.shards.size());
  for (std::size_t s = 0; s < got.shards.size(); ++s) {
    EXPECT_EQ(got.shards[s].admitted, want.shards[s].admitted) << s;
    EXPECT_EQ(got.shards[s].dropped, want.shards[s].dropped) << s;
    EXPECT_EQ(got.shards[s].peak_virtual_depth,
              want.shards[s].peak_virtual_depth)
        << s;
  }
  // The model never runs a session: the outcome side stays empty.
  EXPECT_EQ(got.completed + got.aborted, 0u);
  EXPECT_EQ(got.wire_bytes, 0u);
}

TEST(AdmissionStage, Fig8FlatRunMatchesEngine) {
  server::EngineConfig cfg;
  cfg.threads = 2;
  cfg.shards = 4;
  expect_same_timeline(cfg, bench::steady_scenario(71, 64));
}

TEST(AdmissionStage, OverloadDegradeRunMatchesEngine) {
  server::EngineConfig cfg;
  cfg.threads = 2;
  cfg.shards = 2;
  cfg.queue_capacity = 6;
  cfg.degrade_depth = 8;
  const auto scenario = bench::overload_scenario(72, 96);
  const auto rep = admit_only(cfg, scenario);
  EXPECT_GT(rep.dropped, 0u);
  EXPECT_GT(rep.shed, 0u);
  EXPECT_GT(rep.degrade_enters, 0u);
  expect_same_timeline(cfg, scenario);
}

TEST(AdmissionStage, GoldenChaosProgramMatchesEngine) {
  const auto record = server::decode_run_record(testdata::kGoldenChaosTrace);
  ASSERT_EQ(record.scenario.phases.size(), 2u);
  expect_same_timeline(testdata::golden_chaos_config(), record.scenario);
  // The model alone also reproduces the recorded run's virtual timeline.
  const auto rep =
      admit_only(testdata::golden_chaos_config(), record.scenario);
  EXPECT_EQ(rep.offered, record.report.offered);
  EXPECT_EQ(rep.admitted, record.report.admitted);
  EXPECT_EQ(rep.latency.p99, record.report.latency.p99);
  EXPECT_EQ(rep.makespan_cycles, record.report.makespan_cycles);
}

}  // namespace
}  // namespace wsp
