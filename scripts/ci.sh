#!/usr/bin/env bash
# The full CI gate, in the order a reviewer wants failures surfaced:
#
#   1. configure + build with -Werror (DEMI_WERROR=ON) — warnings fail first, fast;
#   2. the unit/integration test suite, including the perf smoke gates (perf_smoke_tcp,
#      perf_smoke_multicore — self-skips on hosts with < 4 hardware threads —
#      perf_smoke_c1m, the 100k-flow scaling gate from docs/SCALING.md, which self-skips
#      on memory-starved hosts, perf_smoke_tenant, the deterministic noisy-neighbor
#      isolation gate from docs/TENANCY.md, and perf_smoke_splice, the zero-copy
#      network×storage splice goodput gate from docs/STORAGE.md) plus the tenant and
#      splice chaos suites (tenant_test, tenant_chaos_test, splice_test,
#      splice_chaos_test);
#   3. the lint label (demilint over the tree — including the concurrency rules:
#      shard-local reachability, shared mutable statics, atomic-ordering justification,
#      lock-free fastpath regions — the metric and doc-link checks against the docs, and
#      its fixture selftest);
#   4. clang-tidy, when installed (skips gracefully otherwise; concurrency-* findings are
#      errors);
#   5. the sanitizer sweep (ASan, UBSan, TSan over the threaded suites incl. the splice and
#      tenant chaos soaks, and the DemiSan tree: cross-tenant ownership, thread-affinity and
#      qtoken-lifecycle death tests plus the shard/chaos suites as zero-false-positive
#      soaks — scripts/run_sanitizers.sh).
#
# Usage: scripts/ci.sh [repo_root]
# Set DEMI_CI_SKIP_SANITIZERS=1 to stop after the lint stage (useful while iterating).

set -euo pipefail

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
JOBS="$(nproc 2>/dev/null || echo 4)"
BDIR="$ROOT/build-ci"

echo "=== [1/5] configure + build (DEMI_WERROR=ON) ==="
cmake -B "$BDIR" -S "$ROOT" -DDEMI_WERROR=ON
cmake --build "$BDIR" -j "$JOBS"

echo "=== [2/5] test suite ==="
(cd "$BDIR" && ctest -LE lint --output-on-failure -j "$JOBS")

echo "=== [3/5] lint (demilint + fixtures) ==="
(cd "$BDIR" && ctest -L lint --output-on-failure)

echo "=== [4/5] clang-tidy ==="
"$ROOT/scripts/run_clang_tidy.sh" "$ROOT" "$BDIR"

if [ "${DEMI_CI_SKIP_SANITIZERS:-0}" = "1" ]; then
  echo "=== [5/5] sanitizers: skipped (DEMI_CI_SKIP_SANITIZERS=1) ==="
else
  echo "=== [5/5] sanitizers ==="
  "$ROOT/scripts/run_sanitizers.sh" "$ROOT"
fi

echo "ci.sh: all stages passed."
