#!/usr/bin/env sh
# Sanitizer gate.
#   1. ASan/UBSan over the tier-1 correctness core (cipher kernels against
#      their bit-level oracles and the KAT vectors, plus the server
#      lifecycle + fault/recovery tests), the observability tests, and the
#      server determinism + overload/chaos-soak suites (bounded queue memory
#      under over-admission, no session leaks under fault injection).
#   2. A short TSan pass over the record scheduler: the determinism and
#      chaos tests drive the sharded session table, batched scheduler and
#      fault-containment path from multiple worker threads, which is
#      exactly the surface a data race would hit.  The same pass runs the
#      parallel Sec. 4.3 sweep (ParallelExplore): its workers share the
#      macro-model cost table and each use the per-thread mp workspaces.
#   3. A 100k-session `scale` smoke under both sanitizer builds: the slab
#      arena, lock-free MPSC rings and pump handoff at real volume.
#   4. Chaos smokes: the full fault mix through the repair ladder under
#      both builds (under ASan/UBSan also recorded and replayed).
#   5. Scenario-compiler smokes: `wspc check` over every example .wsp file
#      under ASan/UBSan, and the flash-crowd program executed end to end
#      under both sanitizer builds (docs/scenarios.md).
#   6. Crash -> restore smokes (docs/recovery.md): the crash-storm scenario
#      recorded with checkpoints at 1 thread until its scheduled kill
#      (wspc exit 3), then resumed at 8 threads from the torn trace, under
#      both sanitizer builds; plus the CheckpointDeterminism suites and the
#      Sec. 4.3 explore-sweep regression gate.
#
# Usage: tools/ci/sanitize.sh [build-dir]   (default: build-asan; the TSan
# build lands next to it with a -tsan suffix)
set -eu

BUILD_DIR="${1:-build-asan}"
SRC_DIR="$(cd "$(dirname "$0")/../.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "$BUILD_DIR" -S "$SRC_DIR" -DWSP_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j "$JOBS"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"

(
  cd "$BUILD_DIR"
  ctest -L tier1 --output-on-failure
  # Table-driven cipher kernels against their bit-level oracles and the
  # FIPS / SP 800-67 vectors (also in tier1; named here so the list of
  # UBSan-gated suites is explicit): table indices come from shifted 6- and
  # 8-bit fields, exactly where UBSan catches a bad shift.  Likewise the
  # unrolled SHA-1/MD5 compression functions and the keyed HMAC midstates
  # against the round-loop references in tests/hash_reference.h: every
  # padding edge and update() split, where the block-boundary copies and
  # the 32-bit rotates would trip ASan or UBSan.
  ctest -R 'DesDiff|AesDiff|KatDes|KatAes|Sha1Diff|Md5Diff|HmacDiff' \
        --output-on-failure
  # The legacy and golden checkpoint fixtures (also in tier1): untrusted
  # bytes through the checkpoint decoder, parked entries (lanes 8)
  # re-admitted, the former flat generator state (flat closed loop) and an
  # entered closed-loop phase with pending arrivals (golden) restored on
  # resume, and crafted checkpoints that overflow a u32 field or break a
  # validate_checkpoint rule (NaN times, dead Rng, descending arrivals,
  # shard counts).
  ctest -R 'CheckpointLegacy|CheckpointCrafted|CheckpointGolden' \
        --output-on-failure
  # The engine's admission stage driven alone (no pool, no sessions)
  # against the virtual timeline of full engine runs (also in tier1).
  ctest -R 'AdmissionStage' --output-on-failure
  # The golden chaos trace (also in tier1): byte-exact re-encoding, replay,
  # per-field compare coverage, crafted out-of-range payloads (kScenario's
  # u32 fields included) and the payload-level fuzzer.
  ctest -R 'ReplayGolden|ReplayCompare|ReplayCrafted|FuzzRecordPayload' \
        --output-on-failure
  ctest -R 'Trace|TraceJson|Json\.|BenchFlags|BenchJson|BenchServerSchema|BenchGate' \
        --output-on-failure
  ctest -R 'ServerDeterminism|ServerSoak|ServerChaos|ServerBatch|TamperRecovery' \
        --output-on-failure
  # Crash-fault tolerance: the crash -> restore -> continue determinism
  # sweep across thread counts, benign and chaos (docs/recovery.md).
  ctest -R 'Checkpoint' --output-on-failure
  # Million-session data-plane primitives (slab arena, MPSC ring, sharded
  # table) plus the concurrent churn/ring soaks.
  ctest -R 'Slab\.|MpscRing|ServerTable|ServerScaleSoak' --output-on-failure
)

# Chaos soak under ASan/UBSan: the full fault mix through the real repair
# ladder, gated on the session-leak invariant (bench_server exits nonzero
# if completed + aborted != admitted).  --record-dir leaves wsp-replay-v1
# traces behind; replaying the chaos one at a different thread count drives
# the whole record -> decode -> re-run -> verify path under the sanitizers.
"$BUILD_DIR"/bench/bench_server --scenario chaos --threads 4 \
    --record-dir "$BUILD_DIR" --outdir "$BUILD_DIR" > /dev/null
"$BUILD_DIR"/tools/replay "$BUILD_DIR"/REPLAY_server_chaos.wspr --threads 2 \
    > /dev/null
echo "sanitize.sh: chaos run replayed bit-exactly at a different --threads"

# Scale smoke under ASan/UBSan: 100k resumed sessions through the slab
# table and MPSC rings, gated on the same leak invariant.  This is the
# million-session data plane at enough volume for heap bugs to surface.
"$BUILD_DIR"/bench/bench_server --scenario scale --threads 4 \
    --outdir "$BUILD_DIR" > /dev/null
echo "sanitize.sh: 100k-session scale run clean under ASan/UBSan"

# Scenario-compiler smoke under ASan/UBSan: every example program must
# compile cleanly, and the flash-crowd program runs end to end (multi-phase
# generator + resumption surge + per-phase fault overlay) gated on the same
# leak invariant via wspc's nonzero exit on failure.
"$BUILD_DIR"/tools/wspc check "$SRC_DIR"/examples/scenarios/*.wsp > /dev/null
"$BUILD_DIR"/tools/wspc run "$SRC_DIR"/examples/scenarios/flash_crowd.wsp \
    --threads 4 > /dev/null
echo "sanitize.sh: example scenarios compile; flash crowd clean under ASan/UBSan"

# Crash -> restore smoke under ASan/UBSan: record the crash-storm scenario
# with checkpoints at 1 thread until the scheduled kill fires (wspc exits 3
# on a CrashFault, anything else is a failure), then resume the torn trace
# at 8 threads — the quiesce/restore machinery with the leak invariant
# gated by wspc's exit code (docs/recovery.md).
rc=0
"$BUILD_DIR"/tools/wspc run "$SRC_DIR"/examples/scenarios/crash_storm.wsp \
    --threads 1 --record "$BUILD_DIR"/crash_storm.wspr \
    --checkpoint-every 2000000 > /dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "crash_storm: expected exit 3, got $rc"; exit 1; }
"$BUILD_DIR"/tools/wspc run "$SRC_DIR"/examples/scenarios/crash_storm.wsp \
    --threads 8 --resume-from "$BUILD_DIR"/crash_storm.wspr > /dev/null
echo "sanitize.sh: crash-storm checkpoint/resume clean under ASan/UBSan"

# Bench regression gate (docs/benchmarks.md): the server section against
# the committed baselines.  Sanitizers change wall time, never the cycles
# metrics, so the gate must pass here too.
"$BUILD_DIR"/bench/bench_report --check --only server > /dev/null
echo "sanitize.sh: bench_report --check (server) passed against baselines"

# Sec. 4.3 explore sweep gate: the enumerated candidate space and the
# winning configuration's modeled cycles against the committed baseline
# (BENCH_sec43_explore.json) — a selection-logic regression changes
# `configs` or `best_avg_cycles` and fails here.
"$BUILD_DIR"/bench/bench_report --check --with-explore --only sec43_explore \
    > /dev/null
echo "sanitize.sh: bench_report --check --with-explore passed against baselines"

echo "sanitize.sh: tier1 + observability + server/chaos tests clean under ASan/UBSan"

TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S "$SRC_DIR" -DWSP_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$JOBS" \
      --target test_server test_server_faults test_server_determinism \
               test_scenario_determinism test_threadpool test_ring_arena \
               test_checkpoint_determinism test_parallel_explore test_admission \
               bench_server wspc replay
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

(
  cd "$TSAN_DIR"
  # ServerScheduler includes the fault-containment tests (a poisoned task
  # racing the pump's failure accounting is the interesting interleaving);
  # ServerChaos runs the whole engine under fault injection.
  ctest -R 'ServerScheduler|ServerEngine|ServerDeterminism|ServerSoak|ServerChaos|ServerBatch|ServerSessionFaults|ServerTable|MpscRing|ServerScaleSoak|ThreadPool|ScenarioDeterminism|CheckpointDeterminism|ParallelExplore|AdmissionStage' \
        --output-on-failure
)

# Scale smoke under TSan: the lock-free ring push/pop path, the Dekker
# pump-handoff fence and the table's shard locks at 100k-session volume.
"$TSAN_DIR"/bench/bench_server --scenario scale --threads 4 \
    --outdir "$TSAN_DIR" > /dev/null
echo "sanitize.sh: 100k-session scale run clean under TSan"

# Chaos smoke under TSan: the repair ladder (retransmit, rekey, abort) on
# 4 concurrent workers, gated on the session-leak invariant.
"$TSAN_DIR"/bench/bench_server --scenario chaos --threads 4 \
    --outdir "$TSAN_DIR" > /dev/null
echo "sanitize.sh: chaos run clean under TSan"

# Flash-crowd scenario smoke under TSan: three phases' worth of arrivals —
# including the resumption surge — pushed through the sharded table and
# scheduler from 4 worker threads.
"$TSAN_DIR"/tools/wspc run "$SRC_DIR"/examples/scenarios/flash_crowd.wsp \
    --threads 4 > /dev/null
echo "sanitize.sh: flash-crowd scenario clean under TSan"

# Crash -> restore smoke under TSan: checkpoint at 1 thread, resume at 8 —
# the quiesce barrier is a full scheduler drain racing the worker pool, and
# the resumed run continues on 8 workers; then replay the
# torn trace's resume path through the standalone replay tool too.
rc=0
"$TSAN_DIR"/tools/wspc run "$SRC_DIR"/examples/scenarios/crash_storm.wsp \
    --threads 1 --record "$TSAN_DIR"/crash_storm.wspr \
    --checkpoint-every 2000000 > /dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "crash_storm: expected exit 3, got $rc"; exit 1; }
"$TSAN_DIR"/tools/wspc run "$SRC_DIR"/examples/scenarios/crash_storm.wsp \
    --threads 8 --resume-from "$TSAN_DIR"/crash_storm.wspr > /dev/null
"$TSAN_DIR"/tools/replay "$TSAN_DIR"/crash_storm.wspr --resume --threads 8 \
    > /dev/null
echo "sanitize.sh: crash-storm checkpoint/resume clean under TSan"

echo "sanitize.sh: scheduler/threadpool/chaos tests clean under TSan"
