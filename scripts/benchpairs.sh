#!/usr/bin/env bash
# Paired A/B runs of the end-to-end benchmark: a base revision against the
# working tree, alternating which side runs first in each pair so drift
# over the session (thermal, other tenants, cache state) lands on both.
#
#   scripts/benchpairs.sh BASE PAIRS [run.sh args...]
#   scripts/benchpairs.sh HEAD~1 10 --workload cold-mix --seconds 12
#
# BASE is any git revision; its committed files are extracted with
# `git archive` into a temporary directory (under TMPDIR), which is
# removed on exit. Pair i runs
# `bash cmd/bench/run.sh --seed <SEED0+i-1> [run.sh args...]` in both trees
# (SEED0 defaults to 1; a --seed among the arguments pins every pair to
# that seed). Each tree builds its own benchmark under its .bench_build/
# with GOPROXY=off. The per-run JSON lines are kept in OUT (default: a
# fresh temporary directory). For every metric the summary prints each
# side's median and quartiles and, for the metrics BENCHMARK.json names,
# how many pairs the change won, with the direction BENCHMARK.json gives
# (ties count for neither side). For its end-to-end metrics it also prints
# the verdict the benchmark's rules give:
#   claim  met when at least ten pairs ran, the change won at least 9/10
#          of them and the medians differ, in the change's favour, by more
#          than the base's interquartile range; "no" otherwise.
#   bound  "worse" when the change's median is worse than the base's by
#          more than the metric's bound (a fraction of the base median);
#          "unresolved" when the base's own interquartile range is wider
#          than that bound, unless every change run beat every base run;
#          "ok" otherwise.
# The exit status is 1 when any run failed or failed a check.
set -euo pipefail

if [[ $# -lt 2 || ! "$2" =~ ^[1-9][0-9]*$ ]]; then
	echo "usage: scripts/benchpairs.sh BASE PAIRS [run.sh args...]" >&2
	exit 2
fi
base_rev=$1 pairs=$2
shift 2
root=$(git rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify "$base_rev^{commit}")
seed0=${SEED0:-1}
out=${OUT:-$(mktemp -d)}
mkdir -p "$out"
export GOPROXY=off

tree=$(mktemp -d)/base
trap 'rm -rf "$(dirname "$tree")"' EXIT
mkdir "$tree"
git archive "$base_sha" | tar -x -C "$tree"

# run SIDE DIR PAIR: one benchmark run; its last output line is the JSON.
status=0
run() {
	local log="$out/$1-$3.log"
	if ! (cd "$2" && bash cmd/bench/run.sh --seed $((seed0 + $3 - 1)) "${@:4}") >"$log" 2>&1; then
		echo "benchpairs: $1 run of pair $3 failed; see $log" >&2
		status=1
	fi
	tail -n 1 "$log" >"$out/$1-$3.json"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run base "$tree" "$i" "$@"
		run change "$root" "$i" "$@"
	else
		run change "$root" "$i" "$@"
		run base "$tree" "$i" "$@"
	fi
	echo "benchpairs: pair $i/$pairs done" >&2
done

python3 - "$out" "$pairs" "$root/BENCHMARK.json" <<'PY'
import json, statistics, sys

out, pairs, spec = sys.argv[1], int(sys.argv[2]), sys.argv[3]
better, bound = {}, {}
try:
    with open(spec) as f:
        bench = json.load(f)
    for m in bench.get("end_to_end", []) + bench.get("per_layer", []):
        better[m["name"]] = m["better"]
    for m in bench.get("end_to_end", []):
        bound[m["name"]] = m["bound"]
except (OSError, ValueError):
    pass

def load(side, i):
    try:
        with open(f"{out}/{side}-{i}.json") as f:
            return json.loads(f.read())
    except (OSError, ValueError):
        return None

runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("base", "change")}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

for side in ("base", "change"):
    ok = [r for r in runs[side] if r]
    failed = sum(r.get("failed", 0) for r in ok)
    attempted = sum(r.get("attempted", 0) for r in ok)
    wrong = sum(1 for r in ok if not r.get("correct"))
    print(f"{side}: {len(ok)}/{pairs} runs parsed, {wrong} not correct, "
          f"{failed}/{attempted} operations failed")

names = sorted({n for r in runs["base"] + runs["change"] if r for n in r.get("metrics", {})})
print(f"{'metric':34} {'base median [Q1, Q3]':>34} {'change median [Q1, Q3]':>34} "
      f"{'change/base':>11} {'wins':>6} {'claim':>5} {'bound':>10}")
for name in names:
    vals = {s: [r["metrics"][name]["value"] if r and name in r.get("metrics", {}) else None
                for r in runs[s]] for s in runs}
    xs = {s: [v for v in vals[s] if v is not None] for s in runs}
    q = {s: quartiles(xs[s]) if xs[s] else None for s in runs}
    def fmt(q):
        return "-" if q is None else f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    ratio = "-"
    if q["base"] and q["change"] and q["base"][1]:
        ratio = f"{q['change'][1] / q['base'][1]:.3f}"
    # A metric of "all" workloads is named workload/metric.
    metric = name.rsplit("/", 1)[-1]
    wins = claim = verdict = "-"
    if metric in better and q["base"] and q["change"]:
        sign = -1 if better[metric] == "lower" else 1  # sign * value: higher is better
        both = [(b, c) for b, c in zip(vals["base"], vals["change"]) if b is not None and c is not None]
        won = sum(1 for b, c in both if sign * c > sign * b)
        wins = f"{won}/{len(both)}"
        (bq1, bmed, bq3), cmed = q["base"], q["change"][1]
        if metric in bound:
            gain = sign * (cmed - bmed)
            claim = "met" if len(both) >= 10 and won >= 0.9 * len(both) and gain > bq3 - bq1 else "no"
            limit = bound[metric] * abs(bmed)
            if -gain > limit:
                verdict = "worse"
            elif bq3 - bq1 > limit and min(sign * c for c in xs["change"]) <= max(sign * b for b in xs["base"]):
                verdict = "unresolved"
            else:
                verdict = "ok"
    print(f"{name:34} {fmt(q['base']):>34} {fmt(q['change']):>34} {ratio:>11} {wins:>6} {claim:>5} {verdict:>10}")
print(f"runs: {out}")
PY
exit $status
