#!/usr/bin/env bash
# Interleaved same-host A/B of bench_e2e: a parent revision against the
# working tree (ROADMAP ledger item a).
#
#   scripts/ab_e2e.sh [--history] <parent-rev> [pairs] [workloads…]
#
# Builds <parent-rev> from `git archive` into the git-ignored
# /.bench_build/ and the working tree in place, then for every workload
# runs `pairs` (default 10) parent/change pairs of
# `bench_e2e --workload W --seed <pair> --seconds 20 --trace 0`, alternating
# which side goes first so drift on the host cancels instead of biasing
# one side. Both sides of a pair share the seed; the seed changes from
# pair to pair, so a claim has to hold across traffic it was not tuned on.
#
# Prints, per workload × end-to-end metric: the two medians, the parent's
# inter-quartile range, and wins/pairs for the change (ties count for
# neither; direction per BENCHMARK.json). A gain is a claim only at
# ≥ 9/10 wins *and* a median difference beyond the parent's own IQR.
#
# --history appends one line per side and workload to BENCH_history.jsonl
# ("bench": "e2e", git_rev, workload, pairs, the eight medians). The file
# is append-only — same contract as `bench_query --history`.
set -euo pipefail

history=0
if [[ "${1:-}" == "--history" ]]; then
    history=1
    shift
fi
if [[ $# -lt 1 ]]; then
    sed -n '2,22p' "$0" >&2
    exit 2
fi
parent_rev=$1
shift
pairs=10
if [[ "${1:-}" =~ ^[0-9]+$ ]]; then
    pairs=$1
    shift
fi
workloads=("$@")
[[ ${#workloads[@]} -eq 0 ]] && workloads=(serve-uniform serve-hot serve-churn route-uniform)

root=$(git rev-parse --show-toplevel)
cd "$root"
parent_sha=$(git rev-parse --short "$parent_rev")
change_sha=$(git rev-parse --short HEAD)
git diff --quiet HEAD -- . ':!BENCH_history.jsonl' || change_sha="$change_sha-dirty"

parent_dir="$root/.bench_build/parent-$parent_sha"
if [[ ! -d "$parent_dir" ]]; then
    mkdir -p "$parent_dir"
    git archive "$parent_rev" | tar -x -C "$parent_dir"
fi
echo "building parent $parent_sha and change $change_sha …" >&2
cargo build --release --offline --quiet --manifest-path "$parent_dir/bench_e2e/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$root/bench_e2e/Cargo.toml"
parent_bin="$parent_dir/bench_e2e/target/release/bench_e2e"
change_bin="$root/bench_e2e/target/release/bench_e2e"

metrics=(setup_s build_s index_bytes_per_vertex resident_mb qps_closed rtt_p50_us reload_ms update_ms)
out="$root/.bench_build/ab-$parent_sha-$$"
mkdir -p "$out"

# One run: the benchmark's last stdout line is the JSON the driver reads;
# keep "<metric> <value>" per line. (Each binary writes its artefacts
# under its own tree's bench_e2e/out, so the two sides never cross.)
run() { # binary workload seed
    local line
    line=$("$1" --workload "$2" --seed "$3" --seconds 20 --trace 0 2>/dev/null | tail -n 1)
    if [[ "$line" != *'"correct": true'* || "$line" != *'"failed": 0,'* ]]; then
        echo "run failed or answered wrongly: $1 $2 seed $3: $line" >&2
        exit 1
    fi
    for m in "${metrics[@]}"; do
        echo "$m $(grep -o "\"$m\": {\"value\": [0-9.eE+-]*" <<<"$line" | awk '{print $NF}')"
    done
}

# Quartile q (1..3) of the numbers on stdin, linear interpolation.
quartile() {
    sort -g | awk -v q="$1" '{ v[NR] = $1 } END {
        if (NR == 0) { print "nan"; exit }
        pos = 1 + (NR - 1) * q / 4; lo = int(pos); hi = (lo < NR) ? lo + 1 : lo;
        printf "%.6g\n", v[lo] + (v[hi] - v[lo]) * (pos - lo)
    }'
}

for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            if [[ $side == parent ]]; then bin=$parent_bin; else bin=$change_bin; fi
            run "$bin" "$w" "$i" >"$out/$w.$side.$i"
            echo "$w pair $i/$pairs $side: $(grep -E '^(qps_closed|rtt_p50_us) ' "$out/$w.$side.$i" | tr '\n' ' ')" >&2
        done
    done

    printf '\n%s — %d pairs, parent %s vs change %s\n' "$w" "$pairs" "$parent_sha" "$change_sha"
    printf '%-24s %14s %14s %8s %27s %6s\n' metric parent_median change_median change parent_q1..q3 wins
    json_parent="" json_change=""
    for m in "${metrics[@]}"; do
        col() { for ((k = 1; k <= pairs; k++)); do awk -v m="$m" '$1 == m { print $2 }' "$out/$w.$1.$k"; done; }
        pm=$(col parent | quartile 2) cm=$(col change | quartile 2)
        q1=$(col parent | quartile 1) q3=$(col parent | quartile 3)
        # higher is better only for qps_closed (BENCHMARK.json)
        wins=$(paste <(col parent) <(col change) | awk -v hi="$([[ $m == qps_closed ]] && echo 1 || echo 0)" \
            '{ if (hi ? $2 > $1 : $2 < $1) n++ } END { print n + 0 }')
        delta=$(awk -v p="$pm" -v c="$cm" 'BEGIN { if (p == 0) print "n/a"; else printf "%+.1f%%", (c / p - 1) * 100 }')
        printf '%-24s %14s %14s %8s %27s %6s\n' "$m" "$pm" "$cm" "$delta" "$q1..$q3" "$wins/$pairs"
        json_parent+=", \"$m\": $pm" json_change+=", \"$m\": $cm"
    done
    if ((history)); then
        for side in parent change; do
            if [[ $side == parent ]]; then rev=$parent_sha body=$json_parent; else rev=$change_sha body=$json_change; fi
            echo "{\"bench\": \"e2e\", \"git_rev\": \"$rev\", \"nproc\": $(nproc), \"workload\": \"$w\", \"pairs\": $pairs$body}" \
                >>"$root/BENCH_history.jsonl"
        done
        echo "appended 2 lines for $w to BENCH_history.jsonl" >&2
    fi
done
