#!/usr/bin/env bash
# Compare a freshly measured BENCH_sweep.json against the committed
# baseline and fail on any benchmark whose best-case throughput
# (sim_cycles / min_ns) regressed by more than 25%.
#
# Usage: scripts/bench_compare.sh [candidate_json] [baseline_json]
#
# Defaults: candidate = target/bench/BENCH_sweep.json (the last bench
# run), baseline = BENCH_sweep.json (the committed repo-root
# snapshot). Candidate-only benchmarks are additions: reported, never
# a failure. Baseline benchmarks missing from the candidate mean the
# bench silently stopped measuring something — that fails, the same
# way a vanished test would.
#
# The gate compares *min*-derived throughput rather than the JSON's
# median-derived `cycles_per_sec` headline: on a shared host timing
# noise is strictly additive (interference only ever slows a sample
# down), so best-of-N is stable across runs where medians of
# millisecond-scale benches jitter 15-30% and would trip the gate
# stochastically. A real code regression slows every sample including
# the best one, which is exactly what the gate should catch.
set -euo pipefail
cd "$(dirname "$0")/.."

candidate="${1:-target/bench/BENCH_sweep.json}"
baseline="${2:-BENCH_sweep.json}"
threshold_pct=25

for f in "$candidate" "$baseline"; do
    if [ ! -f "$f" ]; then
        echo "bench_compare: FAIL — missing $f" >&2
        exit 1
    fi
done

# The bench harness writes one key per line, so benchmark fields can
# be extracted without a JSON parser (cycles_per_sec only ever
# appears inside a benchmark object). Benchmarks are compared per
# (name, jobs) configuration — the same benchmark measured at a
# different worker count is a different data point, not a regression
# of the old one. The per-benchmark `jobs` field follows `name` inside
# each object; the group-level `meta.jobs` line appears while no name
# is open and is ignored. Old snapshots without the per-benchmark
# field fall back to jobs=1. The printed
# figure is best-case throughput, sim_cycles * 1e9 / min_ns (falling
# back to the median-derived cycles_per_sec field if min_ns is ever
# absent).
extract() {
    awk '
        /"name":/ { gsub(/[",]/, "", $2); name = $2; jobs = 1; min = 0; cyc = 0 }
        /"jobs":/ { if (name != "") { gsub(/,/, "", $2); jobs = $2 } }
        /"min_ns":/ { if (name != "") { gsub(/,/, "", $2); min = $2 } }
        /"sim_cycles":/ { if (name != "") { gsub(/,/, "", $2); cyc = $2 } }
        /"cycles_per_sec":/ {
            gsub(/,/, "", $2)
            cps = $2
            if (min > 0 && cyc > 0) cps = int(cyc * 1e9 / min)
            print name "[j" jobs "]", cps
            name = ""
        }
    ' "$1"
}

extract "$baseline" > /tmp/bench_baseline.$$
extract "$candidate" > /tmp/bench_candidate.$$
trap 'rm -f /tmp/bench_baseline.$$ /tmp/bench_candidate.$$' EXIT

fail=0
while read -r name base_cps; do
    new_cps="$(awk -v n="$name" '$1 == n { print $2 }' /tmp/bench_candidate.$$)"
    if [ -z "$new_cps" ]; then
        echo "bench_compare: FAIL — '$name' disappeared from candidate" \
             "(retire it from the baseline explicitly if intended)" >&2
        fail=1
        continue
    fi
    if [ "$base_cps" -eq 0 ]; then
        continue
    fi
    # Integer arithmetic: regress iff new < base * (100 - threshold) / 100.
    floor=$(( base_cps * (100 - threshold_pct) / 100 ))
    if [ "$new_cps" -lt "$floor" ]; then
        echo "bench_compare: FAIL — '$name' best-case cycles/sec regressed" \
             "${base_cps} -> ${new_cps} (floor ${floor})" >&2
        fail=1
    else
        echo "bench_compare: ok — '$name' ${base_cps} -> ${new_cps}"
    fi
done < /tmp/bench_baseline.$$

while read -r name _; do
    if ! awk -v n="$name" '$1 == n { found = 1 } END { exit !found }' /tmp/bench_baseline.$$; then
        echo "bench_compare: note — '$name' is new (no baseline)"
    fi
done < /tmp/bench_candidate.$$

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "bench_compare: OK (no >${threshold_pct}% best-case cycles/sec regression)"
