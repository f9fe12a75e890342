#!/usr/bin/env bash
# Full verification: plain build + tests, then the same suite under
# ASan+UBSan (STRUCTURA_SANITIZE=address,undefined), then the
# concurrency-sensitive tests under TSan (STRUCTURA_SANITIZE=thread).
# Run from anywhere; builds land in build/, build-asan/, and
# build-tsan/ at the repo root.
#
# Usage: scripts/check.sh [ctest-args...]
#   e.g. scripts/check.sh -R RecoverySweep
# Explicit ctest args apply to every leg, including the TSan one.
# -E so the ERR trap below fires for failures inside run_suite too.
set -Eeuo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S "$repo_root" "$@"
  cmake --build "$build_dir" -j "$jobs"
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" "${CTEST_ARGS[@]}"
}

CTEST_ARGS=("$@")

# On test failure the chaos/degradation suites dump a Prometheus metrics
# snapshot and the health-model JSON here (see DumpArtifactsOnFailure in
# tests/serve_chaos_test.cc) so a red run is debuggable after the fact.
export STRUCTURA_ARTIFACT_DIR="${STRUCTURA_ARTIFACT_DIR:-$repo_root/build-artifacts}"
mkdir -p "$STRUCTURA_ARTIFACT_DIR"

# On any red leg, point straight at the forensics: failure dumps from
# the test suites plus any flight-recorder incident bundles
# (incident_*_<trigger>/ directories with MANIFEST.json, metrics,
# health, the event journal tail, and expensive-request span trees).
on_failure() {
  echo "==> FAILED — diagnostics in $STRUCTURA_ARTIFACT_DIR" >&2
  find "$STRUCTURA_ARTIFACT_DIR" -mindepth 1 -maxdepth 1 2>/dev/null \
    | sed 's/^/    /' >&2 || true
}
trap on_failure ERR

echo "==> plain build + tests"
run_suite "$repo_root/build"

echo "==> randomized crash-simulation sweep (time-seeded)"
# The deterministic boundary sweep (power-cut at every sync boundary)
# already ran above as part of tier-1; this leg is the long randomized
# sweep, labelled `sim` so it can scale independently. Seeding from the
# wall clock makes every invocation explore fresh cut points; a failure
# prints the exact STRUCTURA_SIM_SEED/STRUCTURA_SIM_CUT pair and drops
# the repro line into STRUCTURA_ARTIFACT_DIR, so any red run replays
# verbatim with no other state.
STRUCTURA_SIM_SEED="${STRUCTURA_SIM_SEED:-$(date +%s)}" \
STRUCTURA_SIM_ROUNDS="${STRUCTURA_SIM_ROUNDS:-100}" \
  ctest --test-dir "$repo_root/build" --output-on-failure -L sim

echo "==> morsel-parallel differential + cache-coherence sweeps"
# Seeded random-plan differential (parallel == serial, byte-for-byte)
# and the result-cache coherence property sweep, labelled `parallel`.
# Failures print the exact STRUCTURA_PARALLEL_SEED / STRUCTURA_CACHE_SEED
# to replay.
STRUCTURA_PARALLEL_ITERS="${STRUCTURA_PARALLEL_ITERS:-1000}" \
STRUCTURA_CACHE_ITERS="${STRUCTURA_CACHE_ITERS:-1000}" \
  ctest --test-dir "$repo_root/build" --output-on-failure -L parallel

echo "==> entity-resolution oracle sweep"
# Seeded sweep: the exact Levenshtein candidate generator against the
# exhaustive path (same merges, score bits, clusters), labelled
# `oracle`. Failures print the STRUCTURA_ORACLE_SEED to replay.
STRUCTURA_ORACLE_ITERS="${STRUCTURA_ORACLE_ITERS:-2000}" \
  ctest --test-dir "$repo_root/build" --output-on-failure -L oracle

echo "==> end-to-end benchmark answer checks (dgebench)"
# One short seed of each workload. run.py builds the benchmark from
# src/ (into .bench_build/ at the repo root) and exits non-zero on any
# wrong answer, so a change that breaks the DGE loop fails here.
for workload in generate collab; do
  python3 "$repo_root/dgebench/run.py" --workload "$workload" --seed 7 \
    --seconds 1
done

echo "==> address+undefined sanitizer build + tests"
run_suite "$repo_root/build-asan" -DSTRUCTURA_SANITIZE=address,undefined

echo "==> storage-integrity byte-flip sweep under ASan/UBSan"
# Explicit leg so the corruption sweep always runs sanitized even when
# the caller narrowed CTEST_ARGS above.
ctest --test-dir "$repo_root/build-asan" --output-on-failure -j "$jobs" \
  -R 'IntegritySweep'

echo "==> durability fault-injection sweep under ASan/UBSan"
# Explicit leg for the env-level fault sweep (ENOSPC/EIO/short
# writes/failed fsync at every syscall site, injected through
# SimulatedEnv) and the env-site unit tests: acked-then-lost bugs and
# the sticky-failure rule are exactly what ASan-visible lifetime bugs
# hide behind.
ctest --test-dir "$repo_root/build-asan" --output-on-failure -j "$jobs" \
  -R 'DurabilitySweep|SimEnvFault'

echo "==> thread sanitizer build + concurrency tests"
if [[ ${#CTEST_ARGS[@]} -eq 0 ]]; then
  # Default to the suites that exercise real concurrency: the serving
  # chaos harness, thread pool, the parallel EXTRACT reference check,
  # the locking/txn layer, and the metrics/tracing hot paths (sharded
  # atomics + lock-free rings).
  CTEST_ARGS=(-R 'ServeChaos|CircuitBreaker|Frontend|ThreadPool|ExecutorExtract|Concurren|Lock|Metrics|Trace|Exposition|Logging|ParallelExec|ResultCache')
fi
run_suite "$repo_root/build-tsan" -DSTRUCTURA_SANITIZE=thread

echo "==> morsel-parallel + cache sweeps under TSan"
# The differential and coherence sweeps are where executor/cache races
# would actually surface; run them sanitized every time, even when the
# caller narrowed CTEST_ARGS above.
STRUCTURA_PARALLEL_ITERS="${STRUCTURA_PARALLEL_TSAN_ITERS:-200}" \
STRUCTURA_CACHE_ITERS="${STRUCTURA_CACHE_TSAN_ITERS:-200}" \
  ctest --test-dir "$repo_root/build-tsan" --output-on-failure -L parallel

echo "==> degraded-mode chaos leg under TSan"
# Explicit leg so the graceful-degradation machinery (health model,
# brownout, fallback ladder, watchdog self-heal) always runs sanitized
# even when the caller narrowed CTEST_ARGS above: the failure modes here
# are races between the watchdog's Evaluate and frontend teardown.
ctest --test-dir "$repo_root/build-tsan" --output-on-failure -j "$jobs" \
  -R 'ServeChaos|Health|Brownout|Watchdog|Degrad|Fallback|Priority|HybridSearch'

echo "==> all checks passed"
