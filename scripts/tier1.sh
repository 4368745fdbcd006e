#!/usr/bin/env bash
# Tier-1 verification: the full test suite on the default build, plus the
# concurrency-sensitive suites (engine / query cache / serve) rebuilt and
# re-run under ThreadSanitizer so every PR race-checks the worker pool and the
# solver cancellation paths.
#
# Usage: scripts/tier1.sh [--skip-tsan]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
[[ "${1:-}" == "--skip-tsan" ]] && SKIP_TSAN=1

echo "== tier-1: default build + full ctest =="
cmake --preset default
cmake --build --preset default -j "$(nproc)"
ctest --preset default -j "$(nproc)"

echo "== tier-1: incremental-solving ablation (verdict agreement + speedup) =="
# Fails when incremental and fresh-per-query modes disagree on any verdict;
# also emits BENCH_incremental.json with the measured speedups.
(cd build && ./bench/ablate_incremental)

echo "== tier-1: prefilter ablation (verdict agreement + tier-0 rate) =="
# Fails when the tiered prefilter changes any verdict (corpus + injected-bug
# mutants); also emits BENCH_prefilter.json with discharge rates and speedups.
(cd build && ./bench/ablate_prefilter)

echo "== tier-1: IR ablation (PIR passes vs golden verdicts, tier-0 floor, time) =="
# Fails when PIR (with or without its pass pipeline) returns a verdict on
# the corpus + injected-bug mutants that differs from the committed golden
# table, when the Tier-0 discharge rate falls below the fixed floor of
# 29/59 queries, or when the passes make solving slower: the median
# ir-opt / ir-noopt solve-time ratio over 5 alternating rounds must stay
# at or below 1.25. Emits BENCH_ir.json.
(cd build && ./bench/ablate_ir)

echo "== tier-1: MiniSMT ablation (technique agreement, reduced widths) =="
# Fails when any raw-speed technique (LBD / chrono / inprocess / rewrite)
# changes a verdict on the corpus or the injected-bug mutants;
# PUGPARA_MINI_FAST keeps the equivalence stage at CI-sized widths.
# Also emits BENCH_minismt.json with the ablation timings.
(cd build && PUGPARA_MINI_FAST=1 ./bench/ablate_minismt)

echo "== tier-1: serve bench (verdict equality + 10x warm-cache gates) =="
# Fails when serve-mode verdicts differ from the one-shot baseline or when
# warm / disk-warm re-submission is not >=10x faster than cold single-shot;
# also emits BENCH_serve.json with latency percentiles and hit rates.
(cd build && ./bench/bench_serve)

echo "== tier-1: robustness bench (containment overhead + chaos matrix) =="
# Fails when the fault-containment layer costs >5% with injection disarmed,
# when bare/armored verdicts differ, or when any injected-fault scenario
# (transient timeouts, resource squeezes, sporadic/persistent crashes)
# changes a verdict (a failed-over check must match an unfaulted Z3 run,
# every other check the unfaulted MiniSMT run); also emits BENCH_robust.json.
(cd build && ./bench/bench_robust)

echo "== tier-1: serve smoke (daemon round-trip over the Unix socket) =="
# Boots `pugpara serve`, submits the corpus twice, restarts the daemon on
# the same cache dir, and asserts verdict equality with the batch CLI plus
# non-zero warm and disk-warm cache hit rates.
scripts/serve_smoke.sh

echo "== tier-1: chaos smoke (daemon survival under injected faults) =="
# Boots the daemon under each fault scenario (--inject) and asserts it never
# exits, answers every affected request with a FailureInfo-tagged event, and
# keeps verdicts equal to the no-fault run (retry/failover absorption).
scripts/chaos_smoke.sh

# Keep the benchmark artifacts visible at the repo root (committed copies
# are refreshed by PRs that change the measured numbers).
cp build/BENCH_*.json .

if [[ "$SKIP_TSAN" == 1 ]]; then
  echo "== tier-1: TSan stage skipped (--skip-tsan) =="
  exit 0
fi

echo "== tier-1: TSan build + engine/serve concurrency suites =="
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target pugpara_tests
# Only the suites that exercise cross-thread machinery; the sequential
# checker/solver suites add nothing under TSan and triple the runtime.
# EngineTest cancels a solve in flight from another thread; ServeTest drives
# the daemon's accept loop, reader threads, worker pool and streaming
# writer; CacheStoreTest covers the write-behind journal thread.
# Z3 ships uninstrumented, so suppress reports that originate inside it.
TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp ${TSAN_OPTIONS:-}" \
  ./build-tsan/tests/pugpara_tests \
  --gtest_filter='EngineTest.*:QueryCacheTest.*:StructuralHashTest.*:ServeTest.*:CacheStoreTest.*:FaultInjectTest.*:IrTest.*'

echo "== tier-1: all stages passed =="
