#!/usr/bin/env bash
# Full verification sweep: builds and tests the release, asan, and tsan
# presets (see CMakePresets.json). The sanitizer presets compile with
# KJOIN_FAULT_INJECTION=1, so the resilience and serving suites'
# fault-point tests run for real there instead of skipping; their ctest
# filters keep the sanitizer passes to the threading/memory-sensitive
# suites plus resilience_test, serve_test, wal_test, shard_test and
# chaos_test (docs/robustness.md, docs/serving.md — snapshot byte
# surgery under asan; the concurrent epoch-swap, single-shard and
# multi-shard router tests under tsan; the sharded chaos case
# with one degraded shard, ShardChaosTest.DegradedShardKeepsServingReads,
# runs under both).
#
#   scripts/check.sh                 # release + asan + tsan
#   scripts/check.sh default         # just one preset
#   scripts/check.sh --bench [...]   # additionally run bench_regression
#                                    # and diff it against the last
#                                    # committed BENCH_PR*.json
#                                    # (scripts/compare_bench.py, fails on
#                                    # >10% regression in tracked metrics)
#   scripts/check.sh --recovery      # additionally run the WAL
#                                    # kill-and-replay harness: a writer
#                                    # process is hard-killed mid-stream,
#                                    # the log tail is torn, and recovery
#                                    # must reproduce every acked batch
#                                    # byte-identically
#                                    # (examples/wal_kill_replay.cc)
#   scripts/check.sh --net           # additionally run the two-process
#                                    # network smoke under every preset: a
#                                    # --listen kjoin_server is started on
#                                    # an ephemeral loopback port, a
#                                    # --connect process replays queries
#                                    # and exits non-zero unless every
#                                    # response is bit-identical to its
#                                    # own in-process router, then SIGTERM
#                                    # must drain cleanly (every accepted
#                                    # request answered, zero connections
#                                    # left)
#   scripts/check.sh --chaos         # additionally run the chaos harness
#                                    # (tests/chaos_test.cc) at full
#                                    # strength: KJOIN_CHAOS_TRIALS=300
#                                    # randomized kill-and-recover trials
#                                    # under both sanitizer presets, with
#                                    # seeded fault storms over the WAL,
#                                    # snapshot and directory-fsync paths
#   scripts/check.sh --perfbench     # additionally run the benchmark
#                                    # self-test (perfbench/selftest.py):
#                                    # perfbench compiles src/ on its own,
#                                    # outside the preset builds, so a
#                                    # public-API break shows up here
#                                    # first; every workload must pass its
#                                    # oracle at tiny size and reject a
#                                    # planted wrong answer. Then 20 tiny
#                                    # serve_topk and 20 tiny serve_mixed
#                                    # runs, each under a 120 s timeout:
#                                    # a tiny run starts and shuts down
#                                    # servers in quick succession, where
#                                    # a lost event-loop stop once hung
#                                    # shutdown
#
# Any other argument names a preset; an unknown --flag prints the usage
# lines above and exits 2.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
run_bench=0
run_recovery=0
run_chaos=0
run_net=0
run_perfbench=0
chaos_trials="${KJOIN_CHAOS_TRIALS:-300}"
presets=()
for arg in "$@"; do
  if [[ "$arg" == "--bench" ]]; then
    run_bench=1
  elif [[ "$arg" == "--recovery" ]]; then
    run_recovery=1
  elif [[ "$arg" == "--chaos" ]]; then
    run_chaos=1
  elif [[ "$arg" == "--net" ]]; then
    run_net=1
  elif [[ "$arg" == "--perfbench" ]]; then
    run_perfbench=1
  elif [[ "$arg" == --* ]]; then
    echo "unknown flag: $arg" >&2
    sed -n 's/^#   \(scripts\/check\.sh.*\)/\1/p' "$0" >&2
    exit 2
  else
    presets+=("$arg")
  fi
done
if [[ ${#presets[@]} -eq 0 ]]; then
  presets=(default asan tsan)
fi

for preset in "${presets[@]}"; do
  echo "==> [$preset] configure"
  cmake --preset "$preset" -S "$repo" >/dev/null
  echo "==> [$preset] build"
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "==> [$preset] test"
  (cd "$repo" && ctest --preset "$preset")
done
echo "all presets green: ${presets[*]}"
if [[ $run_chaos -eq 0 ]]; then
  echo "(chaos harness ran at its quick in-suite default; scripts/check.sh --chaos runs the ${chaos_trials}-trial sweep)"
fi

if [[ $run_recovery -eq 1 ]]; then
  echo "==> [recovery] build wal_kill_replay"
  cmake -B "$repo/build" -S "$repo" >/dev/null
  cmake --build "$repo/build" --target wal_kill_replay -j "$(nproc)" >/dev/null
  harness="$repo/build/examples/wal_kill_replay"
  workdir="$(mktemp -d /tmp/kjoin_recovery.XXXXXX)"
  trap 'rm -rf "$workdir"' EXIT

  echo "==> [recovery] writer killed mid-stream after batch 17/30"
  "$harness" --dir "$workdir" --mode writer --batches 30 --kill-after 17 && status=0 || status=$?
  if [[ $status -ne 7 ]]; then
    echo "expected the writer to _exit(7), got $status" >&2
    exit 1
  fi
  echo "==> [recovery] tear the log tail (simulated crash mid-append)"
  "$harness" --dir "$workdir" --mode tear
  echo "==> [recovery] verify: every acked batch recovered byte-identically"
  "$harness" --dir "$workdir" --mode verify
  echo "==> [recovery] resume the writer to completion and re-verify"
  "$harness" --dir "$workdir" --mode writer --batches 30
  "$harness" --dir "$workdir" --mode verify
  echo "recovery harness passed"
fi

if [[ $run_net -eq 1 ]]; then
  # Two-process loopback smoke over the KJNP front end. The connect-side
  # process builds its own copy of the dataset and router and fails hard
  # on any response that is not bit-identical to the in-process answer,
  # so this covers the full wire path: framing, CRC, request decode,
  # router dispatch, response encode, and the SIGTERM drain contract.
  for preset in default asan tsan; do
    echo "==> [net/$preset] build kjoin_server"
    cmake --preset "$preset" -S "$repo" >/dev/null
    cmake --build --preset "$preset" --target kjoin_server -j "$(nproc)" >/dev/null
    if [[ "$preset" == "default" ]]; then
      bin="$repo/build/examples/kjoin_server"
    else
      bin="$repo/build-$preset/examples/kjoin_server"
    fi
    log="$(mktemp /tmp/kjoin_net.XXXXXX.log)"
    "$bin" --n 400 --listen 0 --loops 2 >"$log" 2>&1 &
    server_pid=$!
    port=""
    for _ in $(seq 1 200); do
      port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$log" | head -n 1)"
      [[ -n "$port" ]] && break
      kill -0 "$server_pid" 2>/dev/null || break
      sleep 0.1
    done
    if [[ -z "$port" ]]; then
      echo "[net/$preset] server never reported a listen port:" >&2
      cat "$log" >&2
      kill "$server_pid" 2>/dev/null || true
      exit 1
    fi
    echo "==> [net/$preset] loopback queries + write path on port $port"
    if ! "$bin" --n 400 --connect "127.0.0.1:$port" --clients 4 --queries 25; then
      echo "[net/$preset] connect-side run failed" >&2
      kill "$server_pid" 2>/dev/null || true
      exit 1
    fi
    echo "==> [net/$preset] SIGTERM drain"
    kill -TERM "$server_pid"
    wait "$server_pid"
    if ! grep -q "drained cleanly" "$log"; then
      echo "[net/$preset] server did not drain cleanly:" >&2
      cat "$log" >&2
      exit 1
    fi
    rm -f "$log"
  done
  echo "net smoke passed (default + asan + tsan)"
fi

if [[ $run_chaos -eq 1 ]]; then
  # Full-strength chaos: the default ctest passes above already run the
  # suite at its quick 25-trial default; this pass re-runs the randomized
  # kill-and-recover harness at $chaos_trials trials under both
  # sanitizers, where fault points are compiled in and the seeded storms
  # actually fire.
  for preset in asan tsan; do
    echo "==> [chaos/$preset] build chaos_test"
    cmake --preset "$preset" -S "$repo" >/dev/null
    cmake --build --preset "$preset" --target chaos_test -j "$(nproc)" >/dev/null
    echo "==> [chaos/$preset] $chaos_trials randomized kill-and-recover trials"
    KJOIN_CHAOS_TRIALS="$chaos_trials" \
      "$repo/build-$preset/tests/chaos_test" \
      --gtest_filter='ChaosTest.RandomizedKillAndRecoverTrials'
    echo "==> [chaos/$preset] sharded serving with one degraded shard"
    cmake --build --preset "$preset" --target shard_test -j "$(nproc)" >/dev/null
    "$repo/build-$preset/tests/shard_test" \
      --gtest_filter='ShardChaosTest.DegradedShardKeepsServingReads'
  done
  echo "chaos harness passed ($chaos_trials trials per sanitizer)"
fi

if [[ $run_perfbench -eq 1 ]]; then
  echo "==> [perfbench] benchmark self-test"
  (cd "$repo" && python3 perfbench/selftest.py)
  echo "perfbench self-test passed"
  for workload in serve_topk serve_mixed; do
    echo "==> [perfbench] 20 tiny $workload runs"
    for seed in $(seq 1 20); do
      if ! (cd "$repo" && timeout 120 python3 perfbench/run.py --workload "$workload" \
              --seed "$seed" --seconds 1 --tiny >/dev/null); then
        echo "[perfbench] tiny $workload run failed or hung (seed $seed)" >&2
        exit 1
      fi
    done
  done
  echo "perfbench tiny serve runs passed"
fi

if [[ $run_bench -eq 1 ]]; then
  echo "==> [bench] fresh bench_regression run"
  fresh="$(mktemp /tmp/bench_fresh.XXXXXX.json)"
  "$repo/scripts/run_bench.sh" "$fresh"
  echo "==> [bench] compare against last committed BENCH_PR*.json"
  python3 "$repo/scripts/compare_bench.py" "$fresh"
  echo "bench comparison passed"
fi
