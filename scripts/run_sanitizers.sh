#!/usr/bin/env bash
# Builds and runs the test suite under AddressSanitizer and UBSan.
#
# Usage: scripts/run_sanitizers.sh [repo_root]
#
# Each sanitizer gets its own build tree (build-asan/, build-ubsan/) configured with
# -DDEMI_SANITIZE=<name>; the chaos soak is shortened via DEMI_CHAOS_SEEDS so a full
# sanitized sweep stays CI-friendly. The simulation itself is single-threaded by design, so
# ThreadSanitizer runs a targeted job (build-tsan/) over just the tests that actually spawn
# threads — the apps_test client/server echo pairs, the two-thread NIC ping-pong and the
# multi-worker ShardGroup suite (real shard threads busy-polling a shared multi-queue NIC) —
# instead of the whole suite.
# A final targeted DemiSan tree (build-demisan/, -DDEMI_OWNERSHIP_CHECKS=ON) runs the
# cross-tenant ownership death tests that skip themselves in every other build, and the TCP
# and libOS suites under its buffer generation checks.

set -euo pipefail

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
JOBS="$(nproc 2>/dev/null || echo 4)"
# Sanitized runs are ~5x slower; a handful of seeds still exercises every fault path.
export DEMI_CHAOS_SEEDS="${DEMI_CHAOS_SEEDS:-5}"

for san in address undefined; do
  bdir="$ROOT/build-${san}"
  [ "$san" = address ] && bdir="$ROOT/build-asan"
  [ "$san" = undefined ] && bdir="$ROOT/build-ubsan"
  echo "=== DEMI_SANITIZE=$san -> $bdir ==="
  cmake -B "$bdir" -S "$ROOT" -DDEMI_SANITIZE="$san" > /dev/null
  cmake --build "$bdir" -j "$JOBS" > /dev/null
  # The wall-clock rate gates (ctest label `wallclock`) time instrumented code; the default
  # tree runs them.
  (cd "$bdir" && ctest --output-on-failure -j "$JOBS" -LE wallclock)
done

echo "=== DEMI_SANITIZE=thread (targeted: threaded apps_test echo pairs + ShardGroup) ==="
bdir="$ROOT/build-tsan"
cmake -B "$bdir" -S "$ROOT" -DDEMI_SANITIZE=thread > /dev/null
cmake --build "$bdir" -j "$JOBS" --target apps_test shard_test timer_wheel_test netsim_test \
  splice_chaos_test tenant_chaos_test > /dev/null
"$bdir/tests/apps_test" --gtest_filter='*Threaded*'
# One sender thread delivers into the rx queue another thread polls: the queue's published
# earliest delivery time (stored under the queue lock, loaded without it so an idle poll skips
# the lock) is the seam this run checks.
"$bdir/tests/netsim_test" --gtest_filter='SimNetworkTest.CrossThreadPingPong'
# The 2-worker shard runs: every cross-core seam (per-queue delivery locks, SPSC descriptor
# rings, shared fabric stats) executes under TSan here. This filter includes the sharded
# tenant suite (ShardGroupTest.ShardedEchoUnderTenantAccountsEveryShard: per-shard tenant
# registration + TX scheduling while client threads hammer the shared NIC), the
# shutdown-drain regression (StopWithInflightPopsDrainsTokensAndBuffers), and the
# partitioned-storage cases (MultiWorkerStoragePartitioned*: per-shard log partitions
# appending to one device whose only cross-core word is the shared allocation epoch —
# docs/STORAGE.md).
"$bdir/tests/shard_test" --gtest_filter='ShardGroup*'
# The timer wheel is shard-local by design (one wheel per scheduler, no locks). Running its
# suite under TSan documents and enforces that contract: any future cross-thread sharing of
# a wheel must surface here, not as corruption in a shard soak.
"$bdir/tests/timer_wheel_test"
# Full multi-threaded chaos under TSan: the sharded splice pipeline (network->storage handoff
# over per-shard log partitions) and the multi-tenant overload scenario, both with faults
# injected. These run their full suites — the memory-ordering audit in docs/STORAGE.md leans
# on these passing.
"$bdir/tests/splice_chaos_test"
"$bdir/tests/tenant_chaos_test"

echo "=== DEMI_OWNERSHIP_CHECKS=ON (DemiSan: ownership + thread-affinity + qtoken lifecycle) ==="
# The DemiSan death tests (tests/tenant_test.cc TenantDemiSanDeathTest.* and
# tests/affinity_test.cc AffinityDeathTest.*) GTEST_SKIP or compile themselves out in normal
# builds; this tree is where they actually abort. The shard/chaos suites then run end to end
# under the affinity tags as the zero-false-positive soak: any wrong-thread touch of a bound
# heap, flow table, TCB slab, or qtoken table aborts the run. The TCP and libOS suites run
# whole: TCP pins every pushed buffer through its send queue until the peer acks it, and the
# generation check on each Buffer access catches a view read after its buffer recycled.
bdir="$ROOT/build-demisan"
cmake -B "$bdir" -S "$ROOT" -DDEMI_OWNERSHIP_CHECKS=ON > /dev/null
cmake --build "$bdir" -j "$JOBS" --target tenant_test affinity_test shard_test \
  tenant_chaos_test splice_chaos_test net_test tcp_batching_test tcp_advanced_test \
  libos_test > /dev/null
"$bdir/tests/tenant_test" --gtest_filter='TenantDemiSan*'
"$bdir/tests/affinity_test"
"$bdir/tests/shard_test" --gtest_filter='ShardGroup*'
"$bdir/tests/tenant_chaos_test"
"$bdir/tests/splice_chaos_test"
"$bdir/tests/net_test"
"$bdir/tests/tcp_batching_test"
"$bdir/tests/tcp_advanced_test"
"$bdir/tests/libos_test"

echo "All sanitizer sweeps passed."
