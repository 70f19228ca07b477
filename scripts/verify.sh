#!/usr/bin/env bash
# Tier-1 verification, run exactly as CI does: build and test the whole
# workspace offline. The workspace has zero external dependencies, so
# this must pass with an empty registry cache and no network.
set -euo pipefail
cd "$(dirname "$0")/.."

# --bench additionally runs a full-sample benchmark pass and fails on
# a >25% best-case (min_ns-derived) cycles/sec regression against the
# committed BENCH_sweep.json (see scripts/bench_compare.sh).
run_bench=0
for arg in "$@"; do
    case "$arg" in
        --bench) run_bench=1 ;;
        *) echo "verify: unknown flag '$arg' (supported: --bench)" >&2; exit 2 ;;
    esac
done

# Warnings are defects in CI: fail the build on any of them.
export RUSTFLAGS="-D warnings"

cargo build --release --offline --workspace

# Static analysis: determinism, hermeticity, unsafe, global-state,
# panic- and trace-discipline rules over every source file (DESIGN.md §9). Any
# finding fails verification.
lint_json="$(mktemp)"
if ! ./target/release/cr-lint --json > "$lint_json"; then
    echo "verify: FAIL — cr-lint found violations:" >&2
    cat "$lint_json" >&2
    rm -f "$lint_json"
    exit 1
fi
rm -f "$lint_json"
echo "verify: cr-lint clean"

# Exhaustive protocol checking (DESIGN.md §14): the cr-check battery
# must close its state spaces violation-free within a fixed budget,
# every mutation must yield a counterexample, the --json report must
# be byte-stable across runs, and an emitted counterexample must
# replay.
check_dir="$(mktemp -d)"
./target/release/cr-check --all --budget 200000 --json > "$check_dir/check1.json"
./target/release/cr-check --all --budget 200000 --json > "$check_dir/check2.json"
if ! diff -q "$check_dir/check1.json" "$check_dir/check2.json" > /dev/null; then
    echo "verify: FAIL — cr-check --json output is not byte-stable" >&2
    diff "$check_dir/check1.json" "$check_dir/check2.json" | head -40 >&2
    rm -rf "$check_dir"
    exit 1
fi
# Its closed state spaces are pinned as well: the `cksum` of the --json
# report sits in scripts/check_digest.txt. Like the digests below, a
# change that moves it re-records it on purpose (and says so in
# CHANGES.md), never silently.
if ! cksum < "$check_dir/check1.json" | diff scripts/check_digest.txt - >&2; then
    echo "verify: FAIL — cksum of 'cr-check --all --budget 200000 --json' differs from scripts/check_digest.txt" >&2
    rm -rf "$check_dir"
    exit 1
fi
if ! ./target/release/cr-check --mutate all --budget 200000 \
        --emit-cex "$check_dir/cex.json" > /dev/null
then
    # Mutations are *expected* to find violations, so a passing run
    # exits 0; any nonzero status means one failed to falsify.
    echo "verify: FAIL — a cr-check mutation did not produce its counterexample" >&2
    rm -rf "$check_dir"
    exit 1
fi
./target/release/cr-check --replay "$check_dir/cex.json" > /dev/null
rm -rf "$check_dir"
echo "verify: cr-check battery closed and matches scripts/check_digest.txt, mutations falsified, counterexample replayed"

cargo test -q --offline --workspace

# The benchmark is a package of its own (cr-perf/, outside this
# workspace): its tests and its verify pass — every workload's report
# byte-identical across the reference and active drivers (its
# `shards2` arm now builds the same serial network through inert
# shims), every scheduled message delivered exactly once — gate here
# too.
cargo test -q --offline --manifest-path cr-perf/Cargo.toml
# Its six seed-1 report digests are pinned in scripts/perf_digests.txt:
# a change that moves any simulated result must re-record them on
# purpose (and say so in CHANGES.md), never drift silently.
perf_digests="$(mktemp)"
cargo run --release --offline --quiet --manifest-path cr-perf/Cargo.toml -- verify \
    | tee /dev/stderr | awk '/^verify .* digest / { print $2, $NF }' > "$perf_digests"
if ! diff scripts/perf_digests.txt "$perf_digests" >&2; then
    echo "verify: FAIL — cr-perf verify digests differ from scripts/perf_digests.txt" >&2
    rm -f "$perf_digests"
    exit 1
fi
rm -f "$perf_digests"
echo "verify: cr-perf tests green, cr-perf verify passed, digests match scripts/perf_digests.txt"

# Documentation is part of tier-1: broken intra-doc links or missing
# rustdoc (cr-topology and cr-router deny missing_docs) fail verify.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace > /dev/null
echo "verify: rustdoc clean under -D warnings"

# Parallel sweeps must be bit-identical to serial: diff the full
# --tiny experiment battery between --jobs 1 and the default
# (all-cores) executor.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
./target/release/all --tiny --jobs 1 > "$tmpdir/tiny_serial.txt"
./target/release/all --tiny > "$tmpdir/tiny_parallel.txt"
if ! diff -q "$tmpdir/tiny_serial.txt" "$tmpdir/tiny_parallel.txt" > /dev/null; then
    echo "verify: FAIL — parallel --tiny output differs from serial" >&2
    diff "$tmpdir/tiny_serial.txt" "$tmpdir/tiny_parallel.txt" | head -40 >&2
    exit 1
fi
echo "verify: parallel --tiny output identical to serial"

# ... and identical across commits: the battery covers every routing
# function, protocol and ablation (eighteen experiment modules), is
# deterministic and carries no wall-clock field, so its `cksum` is
# pinned in scripts/tiny_digest.txt. Like scripts/perf_digests.txt, a
# change that moves any simulated result re-records it on purpose (and
# says so in CHANGES.md), never silently.
if ! cksum < "$tmpdir/tiny_serial.txt" | diff scripts/tiny_digest.txt - >&2; then
    echo "verify: FAIL — cksum of 'all --tiny --jobs 1' differs from scripts/tiny_digest.txt" >&2
    exit 1
fi
echo "verify: --tiny battery digest matches scripts/tiny_digest.txt"

# The digest above pins each run's results, not the order its events
# happened in: a phase body that applies an effect a step early or late
# can leave every printed figure alone. Both drivers run the same phase
# bodies, so the --dense diff below cannot see it either. The event
# trace can: four traced runs that between them cover every kill cause
# (about a quarter second) are pinned by `cksum` in
# scripts/trace_digest.txt, one "runner cksum bytes" line each. Same
# re-record rule as the digests above.
for runner in fig09 fig12 fig15 churn; do
    ./target/release/$runner --tiny --jobs 1 --trace "$tmpdir/$runner.jsonl" > /dev/null
    echo "$runner $(cksum < "$tmpdir/$runner.jsonl")"
done > "$tmpdir/trace_digest.txt"
if ! diff scripts/trace_digest.txt "$tmpdir/trace_digest.txt" >&2; then
    echo "verify: FAIL — cksum of a traced --tiny run differs from scripts/trace_digest.txt" >&2
    exit 1
fi
echo "verify: traced --tiny event streams match scripts/trace_digest.txt"

# And on the reference driver (DESIGN.md §10), which visits every
# component every cycle, never fast-forwards and never forms a worm
# train: the whole battery must match the default driver byte for byte
# (about a second on a 2-vCPU VM). Worm trains form beside Bernoulli
# sources too, so this diff puts them under all eighteen modules, most
# of which are source-driven.
./target/release/all --tiny --jobs 1 --dense > "$tmpdir/tiny_dense.txt"
if ! diff -q "$tmpdir/tiny_serial.txt" "$tmpdir/tiny_dense.txt" > /dev/null; then
    echo "verify: FAIL — --dense --tiny output differs from the default driver" >&2
    diff "$tmpdir/tiny_serial.txt" "$tmpdir/tiny_dense.txt" | head -40 >&2
    exit 1
fi
echo "verify: reference-driver (--dense) --tiny output identical to serial"

# Live churn is driver-independent (DESIGN.md §13), and the battery
# above already diffed the churn storm runner on both drivers. A
# replayed --churn plan must be driver-independent on an unrelated
# runner too: feed the storm plan the churn runner emits to fig09 and
# diff the default driver against the reference driver.
./target/release/churn --tiny --jobs 1 \
    --emit-plan "$tmpdir/storm_plan.json" > /dev/null
./target/release/fig09 --tiny --jobs 1 \
    --churn "$tmpdir/storm_plan.json" > "$tmpdir/fig09_churn_serial.txt"
./target/release/fig09 --tiny --jobs 1 --dense \
    --churn "$tmpdir/storm_plan.json" > "$tmpdir/fig09_churn_dense.txt"
if ! diff -q "$tmpdir/fig09_churn_serial.txt" "$tmpdir/fig09_churn_dense.txt" > /dev/null; then
    echo "verify: FAIL — fig09 --churn output differs between the default driver and --dense" >&2
    diff "$tmpdir/fig09_churn_serial.txt" "$tmpdir/fig09_churn_dense.txt" | head -40 >&2
    exit 1
fi
echo "verify: fig09 under a replayed --churn plan identical on both drivers"

# Tracing must be record-only: a runner's measured output is
# byte-identical with and without --trace, and the dumped JSON-lines
# trace parses with the full protocol lifecycle present
# (kill / retransmit_scheduled / deliver).
./target/release/fig11 --tiny --jobs 1 > "$tmpdir/fig11_plain.txt"
./target/release/fig11 --tiny --jobs 1 --trace "$tmpdir/fig11_trace.jsonl" \
    > "$tmpdir/fig11_traced.txt"
if ! diff -q "$tmpdir/fig11_plain.txt" "$tmpdir/fig11_traced.txt" > /dev/null; then
    echo "verify: FAIL — --trace changed fig11 output" >&2
    diff "$tmpdir/fig11_plain.txt" "$tmpdir/fig11_traced.txt" | head -40 >&2
    exit 1
fi
./target/release/trace_check "$tmpdir/fig11_trace.jsonl"
echo "verify: fig11 output unchanged by --trace; trace dump validated"

# Bench smoke: regenerate BENCH_sweep.json cheaply and check its
# schema (group/meta/benchmarks with the documented fields).
CR_BENCH_SAMPLES=3 cargo bench --offline -p cr-bench --bench sweep > /dev/null
sweep_json="target/bench/BENCH_sweep.json"
for field in '"group"' '"meta"' '"elapsed_ns"' '"jobs"' '"benchmarks"' \
             '"median_ns"' '"sim_cycles"' '"cycles_per_sec"'; do
    if ! grep -q "$field" "$sweep_json"; then
        echo "verify: FAIL — $sweep_json missing $field" >&2
        exit 1
    fi
done
echo "verify: $sweep_json regenerated and schema-checked"

# Performance gate (opt-in: slow). First prove the job count is
# result-invariant on the tiny battery at every count the bench entries
# use, then re-measure at full sample counts and demand no benchmark
# lost more than 25% of its baseline cycles_per_sec.
if [ "$run_bench" -eq 1 ]; then
    for jobs in 1 2 4; do
        ./target/release/all --tiny --jobs "$jobs" > "$tmpdir/tiny_j${jobs}.txt"
        if ! diff -q "$tmpdir/tiny_serial.txt" "$tmpdir/tiny_j${jobs}.txt" > /dev/null; then
            echo "verify: FAIL — --jobs $jobs --tiny output differs from serial" >&2
            diff "$tmpdir/tiny_serial.txt" "$tmpdir/tiny_j${jobs}.txt" | head -40 >&2
            exit 1
        fi
    done
    echo "verify: --jobs 1,2,4 --tiny output identical to serial"
    cargo bench --offline -p cr-bench --bench sweep > /dev/null
    ./scripts/bench_compare.sh
fi

echo "verify: OK"
