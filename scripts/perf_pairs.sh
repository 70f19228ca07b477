#!/usr/bin/env bash
# Alternating parent/change benchmark pairs, judged by the
# choosing-metrics rule (section 8): a gain needs the change to win at
# least nine tenths of the pairs (ties count for neither side) AND the
# medians to differ by more than the parent's own quartile spread —
# and, because this kind of host drifts (one VM swung `sat_torus8`
# `wall_s` between 0.28 and 0.44 s within minutes), by more than two
# back-to-back runs of the *same* tree differ: three parent-vs-parent
# (A/A) pairs run first and the largest gap inside one is the floor.
#
# Usage: scripts/perf_pairs.sh <parent-tree> <change-tree> <workload>|all [pairs=10] [seed=1]
#
# Each tree is a checkout of this repository (e.g. a `git clone` of the
# parent commit next to the working copy). Its benchmark is built once
# if `cr-perf/target/release/cr-perf` is missing, then every pair runs
# `cr-perf measure --workload W --seed S --seconds 20 --trace 0` once
# per side, flipping which side goes first each pair (an A/A pair runs
# the parent twice). Metric names, directions and regression bounds are
# read from the change tree's BENCHMARK.json. Every run's values are
# printed, then the table: what each tree is (commit, uncommitted or
# not, path), and one row per end-to-end metric with both medians and
# quartiles, the win count, the change/parent ratio of medians, the A/A
# spread and the verdict. The workload `all` does that for every name
# `cr-perf list` prints, one table each — a perf change needs the
# no-regression rows as well as its claim row.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    sed -n '2,25p' "$0" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
seed="${5:-1}"

bin() { echo "$1/cr-perf/target/release/cr-perf"; }
for tree in "$parent" "$change"; do
    if [ ! -x "$(bin "$tree")" ]; then
        cargo build --release --offline --quiet --manifest-path "$tree/cr-perf/Cargo.toml"
    fi
done

if [ "$workload" = all ]; then
    # The indented rows between `workloads:` and the next section.
    names="$("$(bin "$change")" list | awk '
        /^workloads:/ { on = 1; next }
        /^[^ ]/ { on = 0 }
        on { print $1 }')"
    for name in $names; do
        "$0" "$parent" "$change" "$name" "$pairs" "$seed"
        echo
    done
    exit 0
fi

# "name better bound" per end-to-end metric, from BENCHMARK.json (one
# key per line, as `cr-perf list --benchmark-json` writes it).
metrics="$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name":/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better":/ { gsub(/[",]/, "", $2); better = $2 }
    on && /"bound":/ { gsub(/[",]/, "", $2); print name, better, $2 }
' "$change/BENCHMARK.json")"
if [ -z "$metrics" ]; then
    echo "perf_pairs: no end_to_end metrics found in $change/BENCHMARK.json" >&2
    exit 1
fi

runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT

# One measure run; appends "side pair metric value" rows to $runs.
run_side() {
    local side="$1" tree="$2" pair="$3" line
    line="$("$(bin "$tree")" measure --workload "$workload" --seed "$seed" \
        --seconds 20 --trace 0 | tail -n 1)"
    case "$line" in
        *'"correct":true'*'"failed":0'*) ;;
        *) echo "perf_pairs: $side run $pair failed or was incorrect: $line" >&2; exit 1 ;;
    esac
    while read -r name _; do
        value="$(printf '%s' "$line" | sed -n "s/.*\"$name\":{\"value\":\([^,}]*\).*/\1/p")"
        echo "$side $pair $name $value" >> "$runs"
        printf '  %s pair %2d %-36s %s\n' "$side" "$pair" "$name" "$value"
    done <<< "$metrics"
}

echo "perf_pairs: $workload seed $seed, 3 A/A + $pairs pairs, parent=$parent change=$change"
for pair in 1 2 3; do
    run_side aa1 "$parent" "$pair"
    run_side aa2 "$parent" "$pair"
done
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$parent" "$pair"
        run_side change "$change" "$pair"
    else
        run_side change "$change" "$pair"
        run_side parent "$parent" "$pair"
    fi
done

# What each tree is, so a pasted table describes itself.
describe() {
    local at
    at="$(git -C "$1" log -1 --format='%h %s' 2>/dev/null | cut -c1-60)" || true
    if [ -n "$at" ] && [ -n "$(git -C "$1" status --porcelain 2>/dev/null | head -n 1)" ]; then
        at="$at + uncommitted changes"
    fi
    echo "${at:-not a git checkout} ($1)"
}

echo
echo "parent: $(describe "$parent")"
echo "change: $(describe "$change")"
printf '%-36s %-38s %-38s %-7s %-8s %-11s %s\n' \
    "metric ($workload, seed $seed)" "parent median [q1, q3]" "change median [q1, q3]" \
    "wins" "chg/par" "A/A spread" "verdict"
while read -r name better bound; do
    awk -v name="$name" -v better="$better" -v bound="$bound" '
        # Linear-interpolated quantile of sorted v[1..n].
        function quantile(v, n, p,    h, lo) {
            h = (n - 1) * p + 1; lo = int(h)
            if (lo >= n) return v[n]
            return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        function sorted(src, n, dst,    i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++) {
                t = dst[i]
                for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
                dst[j + 1] = t
            }
        }
        $3 == name && $1 == "aa1" { a1[$2] = $4 + 0; next }
        $3 == name && $1 == "aa2" { a2[$2] = $4 + 0; next }
        $3 == name { if ($1 == "parent") p[$2] = $4 + 0; else c[$2] = $4 + 0; if ($2 > n) n = $2 }
        END {
            # Largest gap between two back-to-back runs of the parent.
            aa = 0
            for (i in a1) { d = a1[i] - a2[i]; if (d < 0) d = -d; if (d > aa) aa = d }
            sign = (better == "lower") ? -1 : 1      # +1: larger is better
            wins = 0; losses = 0
            for (i = 1; i <= n; i++) {
                if (sign * (c[i] - p[i]) > 0) wins++
                else if (sign * (c[i] - p[i]) < 0) losses++
            }
            sorted(p, n, ps); sorted(c, n, cs)
            pm = quantile(ps, n, 0.5); pq1 = quantile(ps, n, 0.25); pq3 = quantile(ps, n, 0.75)
            cm = quantile(cs, n, 0.5); cq1 = quantile(cs, n, 0.25); cq3 = quantile(cs, n, 0.75)
            spread = pq3 - pq1
            gain = sign * (cm - pm)                   # > 0: change better
            # Every change run better than every parent run?
            clean = (sign > 0) ? (cs[1] > ps[n]) : (cs[n] < ps[1])
            if (wins * 10 >= n * 9 && gain > spread && gain <= aa) verdict = "better (inside the A/A spread)"
            else if (wins * 10 >= n * 9 && gain > spread) verdict = (n >= 10) ? "GAIN" : "better (a claim needs >= 10 pairs)"
            else if (pm != 0 && -gain > bound * (pm < 0 ? -pm : pm)) verdict = "WORSE beyond bound"
            else if (pm != 0 && spread > bound * (pm < 0 ? -pm : pm) && !clean) verdict = "unresolved (spread > bound)"
            else if (wins == 0 && losses == 0) verdict = "equal"
            else verdict = "within bound"
            printf "%-36s %-38s %-38s %-7s %-8s %-11s %s\n", name,
                sprintf("%.6g [%.6g, %.6g]", pm, pq1, pq3),
                sprintf("%.6g [%.6g, %.6g]", cm, cq1, cq3),
                wins "/" n, (pm != 0 ? sprintf("%.4f", cm / pm) : "-"), sprintf("%.4g", aa), verdict
        }
    ' "$runs"
done <<< "$metrics"
