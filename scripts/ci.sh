#!/usr/bin/env bash
# CI entry point: format, build, test, lint.  Mirrors .github/workflows/ci.yml
# so the same gate can be run locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q  (workspace, incl. sia-runtime scheduler suite)"
cargo test -q

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== cargo doc --no-deps (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

# Runs a filtered test command and fails when the filter selected no test,
# so a renamed test cannot pass vacuously.
run_selected() {
    local out
    out=$("$@" 2>&1) || { echo "$out"; return 1; }
    echo "$out"
    grep -Eq "test result: ok\. [1-9][0-9]* passed" <<<"$out" \
        || { echo "no test matched: $*" >&2; return 1; }
}

echo "== lane-equivalence property tests, default target"
run_selected cargo test -q --release --test properties lane_parallel

echo "== lane-equivalence property tests, -C target-cpu=native"
# The lane inner loops are written to auto-vectorize; prove bit-identity
# holds under the host's widest SIMD codegen too.  A separate target dir
# keeps the native rebuild from thrashing the default-target cache.
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
    run_selected cargo test -q --release --test properties lane_parallel

echo "== farmbench: build and unit tests"
# The end-to-end benchmark is its own cargo package; building it here
# catches a deleted or renamed entry point it calls.  Its build output
# goes under target/, so nothing is written inside farmbench/.
FARMBENCH=(--offline --release --quiet --manifest-path farmbench/Cargo.toml)
CARGO_TARGET_DIR=target/farmbench cargo build "${FARMBENCH[@]}"
CARGO_TARGET_DIR=target/farmbench cargo test "${FARMBENCH[@]}"

echo "== farmbench end to end (fails unless every receipt is bit-identical and exactly predicted)"
# Shorter runs abort with "no round completed a block of 1024 jobs".
CARGO_TARGET_DIR=target/farmbench cargo run "${FARMBENCH[@]}" -- \
    --workload fresh_mixed --seconds 12 --trace 0
CARGO_TARGET_DIR=target/farmbench cargo run "${FARMBENCH[@]}" -- \
    --workload hot_lanes --seconds 20 --trace 0

echo "== paper_experiments (measured-vs-paper agreement, incl. E10 throughput + E11 fairness + E12 lanes + E13 observability + E14 residency)"
# The E12 gate inside also asserts every lane-parallel receipt is exactly
# predicted (exact_prediction_fraction == 1.0 at every lane width); the
# E13 gate asserts the observability layer (trace rings + live metrics)
# costs < 2% steady jobs/s against the same farm served dark; the E14 gate
# asserts the warm cache-aware farm beats cache-disabled backlog-only
# serving by >= 1.5x steady jobs/s with predictions still cycle-exact.
cargo run -p sia-bench --release --bin paper_experiments > /dev/null

echo "== paper_experiments --json (perf trajectory: BENCH_mm/mv/throughput.json, incl. E11 fairness + E12 lane + E13 observability + E14 residency records)"
cargo run -p sia-bench --release --bin paper_experiments -- --json .

echo "== BENCH_throughput.json schema check (all five experiment arrays present)"
for key in e10_policies e11_fairness e12_lanes e13_observability e14_residency; do
    grep -q "\"$key\": \[" BENCH_throughput.json \
        || { echo "BENCH_throughput.json is missing the $key array" >&2; exit 1; }
done

echo "== allocs-per-job gate for fresh-operand lane passes (E12 rows must stay below 32)"
# E12 stages fresh operands on every job, so its allocs_per_job counts MM
# band staging: the two bands plus the farm's per-job payloads (about 9).
# Copying operand blocks during staging pushes it far past 32.  A count, so
# it cannot flake.
awk '/"e12_lanes": \[/ { rows = 0; in_e12 = 1; next }
     in_e12 && /^\]/ { exit }
     in_e12 {
         rows++
         if (!match($0, /"allocs_per_job": [0-9.]+/)) { bad = 1; next }
         allocs = substr($0, RSTART + 18, RLENGTH - 18) + 0
         if (allocs >= 32) { print "e12_lanes row allocates " allocs " per job: " $0 > "/dev/stderr"; bad = 1 }
     }
     END { exit (rows == 0 || bad) }' BENCH_throughput.json \
    || { echo "fresh-operand lane passes allocate too much (e12_lanes allocs_per_job >= 32)" >&2; exit 1; }

echo "== allocs-per-job regression gate (warm repeat-operand serving must stay allocation-free)"
# Each e14_residency record renders on one line; the warm arm's
# allocs_per_job is measured over a repeat-operand dense-MM window with
# outputs recycled, and must be exactly 0.0 — any regression on the
# zero-allocation serve path shows up here before it shows up in perf.
grep '"arm": "warm"' BENCH_throughput.json | grep -q '"allocs_per_job": 0.0,' \
    || { echo "warm repeat-operand serving allocated (allocs_per_job > 0)" >&2; exit 1; }

echo "CI gate passed."
