#!/usr/bin/env bash
# Full gate: warnings-clean Release build, entire test suite, a quick perf smoke, and an
# ASan+UBSan test pass (CMakePresets.json `asan-ubsan`).
# Usage: scripts/check.sh [build-dir]   (default: build-check, kept separate from ./build)
# Set JENGA_SKIP_SANITIZERS=1 to skip the sanitizer stage (it roughly doubles the runtime).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-check}"

cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-Wall -Wextra"
cmake --build "$build" -j "$(nproc)"

# Tier-1 gate (the fuzz-labeled tests run in the dedicated smoke stage below).
ctest --test-dir "$build" -L tier1 --output-on-failure -j "$(nproc)"

# Fuzz smoke: deterministic seeds, ~10 s. Covers Engine and SpecDecodeEngine with the
# offload tier on and off; see TESTING.md for reproducing a failure from its seed.
# JENGA_CHECK_ADMISSION cross-checks the fused admission hit scan against the
# materialized-bitmap reference on every admission.
JENGA_CHECK_ADMISSION=1 \
JENGA_FUZZ_SCHEDULES="${JENGA_FUZZ_SCHEDULES:-3000}" "$build/tests/engine_fuzz_test"

# Chaos smoke: the same schedule model with the fault-injection layer armed (PCIe errors and
# timeouts, host-pool failures and shrinks, GPU step faults, deadlines, cancels, load shed).
# Deterministic seeds; see TESTING.md for replaying a failure.
JENGA_CHECK_ADMISSION=1 \
JENGA_CHAOS_SCHEDULES="${JENGA_CHAOS_SCHEDULES:-3000}" "$build/tests/engine_chaos_test"

# Pressure-chaos smoke (DESIGN.md §11): the same chaos model with the elastic arm forced on —
# every schedule gets transient pool grow/shrink, a driver-driven mid-trace repartition, the
# governor's park/shed ladder, and/or adaptive split shifts, with the pool_grow /
# pool_shrink_drain / repartition_commit fault sites armed. Oracles: the AllocatorAuditor is
# green after every step and after every repartition commit/rollback, the resize ledger
# balances per epoch, the cancellation ledger covers governor sheds, and no request is lost
# across a repartition.
JENGA_CHECK_ADMISSION=1 JENGA_CHAOS_ELASTIC=1 \
JENGA_CHAOS_SCHEDULES="${JENGA_CHAOS_SCHEDULES:-3000}" "$build/tests/engine_chaos_test"

# Disabled-injector overhead must be noise-level (the table's "armed tax" column).
"$build/bench/bench_chaos" --quick

# Fleet-chaos smoke (ctest label `chaos-fleet`): randomized fleet schedules with replica
# deaths/stalls — scheduled and injector-driven — through both fleet drivers, against the
# recovery-ledger oracle (DESIGN.md §10). Deterministic seeds; TESTING.md documents replay
# (JENGA_FUZZ_SEED / JENGA_FAULT_PLAN / JENGA_FAULT_SEED).
JENGA_FLEET_CHAOS_SCHEDULES="${JENGA_FLEET_CHAOS_SCHEDULES:-3000}" "$build/tests/fleet_chaos_test"

# Fleet stage: the cluster suite by label (prefix index, router policy, cluster metrics,
# the 1-replica byte-identical differential, and the threaded fleet stress harness), then
# the fleet routing showcase, which self-checks the acceptance criteria (affinity >= 1.3x
# round-robin hit rate at 4 replicas without regressing p99 TTFT) and exits non-zero on
# violation.
ctest --test-dir "$build" -L fleet --output-on-failure -j "$(nproc)"
"$build/bench/bench_fleet" --quick

# Outcome-digest stage: servebench's three offline workloads (BENCHMARK.json) at the default
# seed and the held-out seed, with short runs. run.py compares every pass's outcome digest
# with the one recorded in servebench/workloads.json and reports "correct": false on a
# mismatch, so any change that moves a serving outcome fails here.
for workload in arxiv-prefix mmmu-vision spec-swap; do
  for seed in 1 97; do
    result="$(CARGO_TARGET_DIR="$build" python3 "$repo/servebench/run.py" \
      --workload "$workload" --seed "$seed" --seconds 1 | tail -n 1)"
    if ! python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1])["correct"] else 1)' \
        "$result"; then
      echo "check.sh: servebench $workload seed $seed failed its digest or outcome checks" >&2
      exit 1
    fi
  done
done

# Elastic governor acceptance (DESIGN.md §11): self-checks that a mid-trace hot swap commits
# without aborting in-flight requests (clean and under an injected commit rollback), the
# pressure ladder engages with a balanced cancellation ledger, and the adaptive draft/target
# split is never below the best static split. Exits non-zero on violation.
"$build/bench/bench_elastic" --quick

# Perf gate: quick mode against the committed quick baseline; every micro.* and frontend.*
# metric must stay within 10% of BENCH_perf_quick.json. Best-of-3 damps scheduler noise —
# one passing run is enough. (The tracked BENCH_perf.json full-mode trajectory is only
# regenerated deliberately via a full --baseline run.)
#
# Fail fast — with an actionable message — when the committed baseline is missing or
# predates the current metric schema, instead of burning three bench runs to find out (or
# worse, gating against nothing). bench_perf itself also rejects stale schemas.
if [[ ! -r "$repo/BENCH_perf_quick.json" ]]; then
  echo "check.sh: BENCH_perf_quick.json is missing — the perf gate has no baseline." >&2
  echo "check.sh: regenerate it with: $build/bench/bench_perf --quick --out $repo/BENCH_perf_quick.json  (then commit it)" >&2
  exit 1
fi
for gated_key in micro.alloc_release.ops_per_s micro.deadline_sweep.steps_per_s \
                 micro.cache_churn.ops_per_s micro.admission_readmit.ops_per_s \
                 elastic.resize_cycle.ops_per_s \
                 frontend.admit_4p.req_per_s fleet.route_4r.ops_per_s \
                 e2e.jamba-52b-fp8.mmlu.steps_per_s \
                 profiler.gemma-2-9b.mmlu.commit.share_pct; do
  if ! grep -q "\"$gated_key\"" "$repo/BENCH_perf_quick.json"; then
    echo "check.sh: BENCH_perf_quick.json is stale — gated metric $gated_key is absent." >&2
    echo "check.sh: regenerate it with: $build/bench/bench_perf --quick --out $repo/BENCH_perf_quick.json  (then commit it)" >&2
    exit 1
  fi
done
perf_gate_ok=0
for attempt in 1 2 3; do
  if "$build/bench/bench_perf" --quick --gate --baseline "$repo/BENCH_perf_quick.json" \
      --out "$build/BENCH_perf_quick.json"; then
    perf_gate_ok=1
    break
  fi
  echo "check.sh: perf gate attempt $attempt failed, retrying"
done
if [[ "$perf_gate_ok" != "1" ]]; then
  echo "check.sh: perf gate failed (3 attempts)" >&2
  exit 1
fi

# Profile smoke (DESIGN.md §12): the profiled e2e pass with its share gate — any phase
# whose exclusive-time share grows past max(3x, +2pp) of the committed snapshot fails.
# This catches a hot-path regression hiding inside an unchanged steps/s total (e.g. work
# migrating into a phase the micros don't cover). Shares are ratios of small wall-times,
# so best-of-3 damps scheduler noise exactly like the perf gate above.
profile_smoke_ok=0
for attempt in 1 2 3; do
  if "$build/bench/bench_perf" --profile-only --quick --gate \
      --baseline "$repo/BENCH_perf_quick.json" --out "$build/BENCH_profile_quick.json"; then
    profile_smoke_ok=1
    break
  fi
  echo "check.sh: profile smoke attempt $attempt failed, retrying"
done
if [[ "$profile_smoke_ok" != "1" ]]; then
  echo "check.sh: profile smoke failed (3 attempts)" >&2
  exit 1
fi

if [[ "${JENGA_SKIP_SANITIZERS:-0}" != "1" ]]; then
  # TSan pass over the concurrency suite (CMakePresets.json `tsan`): the MPSC queue, the
  # serving frontend, the multi-producer stress harness, the
  # multi-replica fleet frontend stress harness, and the heterogeneous-fleet elastic suite
  # (threaded FleetFrontend with per-replica pool sizes). Only these binaries run threads;
  # the rest of the suite would waste the (slow) TSan build.
  tsan_build="${build}-tsan"
  cmake -B "$tsan_build" -S "$repo" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all -fno-omit-frame-pointer -O1 -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  # step_profiler_test and deadline_heap_test ride along: single-threaded, but they pin the
  # profiler attach contract and deadline-heap audit under the TSan build's different
  # optimization/timing profile for almost no extra build cost.
  cmake --build "$tsan_build" -j "$(nproc)" \
    --target mpsc_queue_test frontend_test frontend_stress_test \
             fleet_stress_test fleet_shutdown_test fleet_chaos_test fleet_elastic_test \
             step_profiler_test deadline_heap_test
  for tsan_test in mpsc_queue_test frontend_test frontend_stress_test \
                   fleet_stress_test fleet_shutdown_test fleet_chaos_test fleet_elastic_test \
                   step_profiler_test deadline_heap_test; do
    TSAN_OPTIONS="halt_on_error=1" "$tsan_build/tests/$tsan_test"
  done

  sanitizer_build="${build}-asan"
  cmake -B "$sanitizer_build" -S "$repo" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -O1 -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  # Build only the test executables (benches under sanitizers are prohibitively slow).
  test_targets="$(sed -n 's/^jenga_add_test(\([a-z_]*\).*/\1/p' "$repo/tests/CMakeLists.txt")"
  # shellcheck disable=SC2086
  cmake --build "$sanitizer_build" -j "$(nproc)" --target $test_targets
  ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1" \
  UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --test-dir "$sanitizer_build" --output-on-failure -j "$(nproc)"
fi

echo "check.sh: all gates passed"
