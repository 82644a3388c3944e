#!/usr/bin/env bash
# Local CI: configure, build, and run the full test suite under both presets (default and
# asan-ubsan), mirroring .github/workflows/ci.yml. Every build treats compiler warnings as
# errors (CMake >= 3.24's CMAKE_COMPILE_WARNING_AS_ERROR). Usage: scripts/check.sh [preset ...]
# Presets: default, asan-ubsan, tsan (thread sanitizer; CI runs only the sharded-sweep tests
# under it: ctest --preset tsan -R ParallelSweepTest).
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan-ubsan)
fi

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
for preset in "${presets[@]}"; do
  echo "=== preset: ${preset} ==="
  cmake --preset "${preset}" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
  cmake --build --preset "${preset}" -j"${jobs}"
  ctest --preset "${preset}" -j"${jobs}"
done

# Bench smoke: a short queue-depth sweep whose acceptance gates (depth-1 == sync, monotone
# IOPS, >= 2x at depth 16, breakdown sums to latency, the open-loop leg's timeline gates:
# >= 1 closed window, an SLO breach with recovery, exact window-merge, byte-identical rerun,
# and the long-haul governed-compaction gates: steady-state fires, free-space floor holds,
# breaches contained to the declared burst, governor-off control spirals) act as an
# end-to-end regression check, emitting the unified vlog-bench/1 JSON alongside plus the
# windowed vlog-timeline/1 artifacts (BENCH_queue_depth.timeline.json and the long-haul
# pair BENCH_queue_depth.longhaul{,_off}.timeline.json).
if [ -x build/bench/bench_queue_depth ]; then
  echo "=== bench smoke: queue_depth ==="
  ./build/bench/bench_queue_depth --smoke --json=BENCH_queue_depth.json
fi

# The same gates at the full horizon: the long-haul leg drives 1,000,000 diurnal arrivals through
# the governed compactor instead of smoke's 1,400 (about 20-30 s). Its own JSON name keeps the
# smoke artifacts above.
if [ -x build/bench/bench_queue_depth ]; then
  echo "=== bench full: queue_depth ==="
  ./build/bench/bench_queue_depth --json=BENCH_queue_depth_full.json
fi

# NVM staging smoke: the three-way sync-write comparison (eager-only vs NVM-over-naive vs
# NVM-over-eager) whose gates require the staged sync p99 far below the unstaged eager p99,
# every small write absorbed by the stage, no overflow drains under the duty cycle, and the
# exact breakdown identity with the nvm component attributed only on the staged legs.
if [ -x build/bench/bench_queue_depth ]; then
  echo "=== bench smoke: queue_depth --nvm ==="
  ./build/bench/bench_queue_depth --nvm --smoke --json=BENCH_queue_depth_nvm.json
fi

# Staged crash sweep: the kNvmStagedWrites scenario through the NVM-staged VldCrashSim, which
# replays the crash-state matrix {NVM intact, NVM torn-tail} x every disk crash point. Zero
# violations required; the ctest suite already sweeps all other scenarios staged.
if [ -x build/tests/crashsim_test ]; then
  echo "=== staged crash sweep ==="
  ./build/tests/crashsim_test --gtest_filter='NvmStagedSweepTest.*'
fi

# Crash sweep: every standing VLD, VLFS and array scenario, write-through and behind the
# write-back cache; exits nonzero on any invariant violation and writes the
# vlog-crash-sweep/1 summary CI uploads.
if [ -x build/bench/bench_crashsim ]; then
  echo "=== bench smoke: crash sweep ==="
  ./build/bench/bench_crashsim --smoke --json=BENCH_crash_sweep.json
fi

# Array smoke: striped N=1..8 scaling with the N=1-equals-bare-VLD identity, monotone-IOPS,
# and mirrored degraded-read payload gates.
if [ -x build/bench/bench_array ]; then
  echo "=== bench smoke: array ==="
  ./build/bench/bench_array --smoke --json=BENCH_array.json
fi

# Engine smoke: end-to-end wall-clock throughput over the four hot legs (deep-queue mixed
# R/W, striped array, crash sweep, governed open-loop compaction) with ops/wall-second
# floors. A gate failure means an engine
# performance regression; the bench prints the offending vlog-bench/1 leg and its measured
# rate before exiting nonzero, and we stop the whole check right there.
if [ -x build/bench/bench_engine ]; then
  echo "=== bench smoke: engine ==="
  if ! ./build/bench/bench_engine --smoke --json=BENCH_engine.json; then
    echo "FAIL: engine throughput gate regressed." >&2
    echo "The offending vlog-bench/1 metric (leg + measured ops/wall-s + floor) is printed" >&2
    echo "in the FATAL line above; full rates are in BENCH_engine.json (rows[].label," >&2
    echo "rows[].extra.ops_per_wall_s). Profile the named leg before re-running." >&2
    exit 1
  fi
fi

# Benchmark self-check: builds perfbench/ on its own into .bench_build/, runs each of its four
# workloads twice with one seed, once traced and once with the next seed, and fails unless every
# run is correct and the three same-seed runs print one digest (about two minutes).
echo "=== benchmark selfcheck ==="
python3 perfbench/run.py --selfcheck
