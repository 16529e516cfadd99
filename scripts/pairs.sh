#!/usr/bin/env bash
# The house rule's alternating pairs as one command (ROADMAP item 22).
#
#   scripts/pairs.sh PARENT CHANGE WORKLOAD [N=10] [--seed S] [--seconds S] [--dry-run]
#
# Exports both commits with `git archive` into their own directories under
# $TMPDIR (default /tmp), builds each offline into its own target dir (kept
# between calls, so a second call rebuilds nothing), then runs
# `bench/run.sh --workload WORKLOAD` N times per side, the parent first in odd
# pairs and the change first in even ones. It never edits bench/ or the
# checkout it runs from: each side's run records land in its own export.
#
# Standard output is one JSON row: a hardware stamp, both commits, the seed,
# every run's end-to-end metrics, and per metric the medians, the parent's
# interquartile range, change / parent and the pairs the change wins
# (direction from BENCHMARK.json). `rule_met` is the house rule on
# items_per_s: wins >= 0.9 N and a median gap wider than the parent's IQR,
# with every run correct and exiting 0; `sign_p` is the exact one-sided sign
# test of the wins. A run that fails its checks is kept in the row, counted
# under `correct` / `nonzero_exits`, and makes the script exit 1 after the
# row. Progress goes to standard error. --dry-run builds both sides, times
# nothing and prints the row with no runs.
set -euo pipefail
{ # Parsed whole before it runs, so editing this file mid-run cannot shift it.
repo="$(cd "$(dirname "$0")/.." && pwd)"

dry=0 seed="" seconds="" pos=()
while [ "$#" -gt 0 ]; do
  case "$1" in
    --dry-run) dry=1; shift ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    -*) echo "pairs.sh: unknown flag '$1'" >&2; exit 2 ;;
    *) pos+=("$1"); shift ;;
  esac
done
if [ "${#pos[@]}" -lt 3 ] || [ "${#pos[@]}" -gt 4 ]; then
  sed -n '4p' "$0" >&2
  exit 2
fi
workload="${pos[2]}" n="${pos[3]:-10}"
[[ "$n" =~ ^[1-9][0-9]*$ ]] || { echo "pairs.sh: N must be a positive count, not '$n'" >&2; exit 2; }
parent="$(git -C "$repo" rev-parse --verify "${pos[0]}^{commit}")"
change="$(git -C "$repo" rev-parse --verify "${pos[1]}^{commit}")"
base="${TMPDIR:-/tmp}/fae-pairs"
args=(--workload "$workload")
[ -n "$seed" ] && args+=(--seed "$seed")
[ -n "$seconds" ] && args+=(--seconds "$seconds")

# Exports a commit once and builds it: `--list` makes bench/run.sh build
# the fae binary and the harness, then print the workload table.
prepare() {
  local dir="$base/$1"
  if [ ! -f "$dir/src/bench/run.sh" ]; then
    rm -rf "$dir" && mkdir -p "$dir/src"
    git -C "$repo" archive "$1" | tar -x -C "$dir/src"
  fi
  echo "pairs.sh: building ${1:0:12} in $dir" >&2
  CARGO_TARGET_DIR="$dir/target" bash "$dir/src/bench/run.sh" --list > /dev/null
}
prepare "$parent"
prepare "$change"

runs="$base/runs-$$.jsonl"
trap 'rm -f "$runs"' EXIT
: > "$runs"
one() { # side commit pair -> appends {"side","pair","status","result"} to $runs
  local dir="$base/$2" out status=0
  # A run that fails its checks prints its result line, then exits non-zero:
  # keep it, and its status. One that prints no result object records null.
  out="$(CARGO_TARGET_DIR="$dir/target" bash "$dir/src/bench/run.sh" "${args[@]}" | tail -n 1)" || status=$?
  [[ "$out" == "{"* ]] || out=null
  echo "pairs.sh: pair $3 $1 $(echo "$out" | grep -o '"items_per_s":{"value":[0-9.]*' | cut -d: -f3) (exit $status)" >&2
  echo "{\"side\":\"$1\",\"pair\":$3,\"status\":$status,\"result\":$out}" >> "$runs"
}
if [ "$dry" = 0 ]; then
  for i in $(seq 1 "$n"); do
    if [ $((i % 2)) = 1 ]; then
      one parent "$parent" "$i"; one change "$change" "$i"
    else
      one change "$change" "$i"; one parent "$parent" "$i"
    fi
  done
fi

lscpu_field() { lscpu | sed -n "s/^$1:[[:space:]]*//p" | head -n 1; }
export P_CPU="$(lscpu_field 'Model name')" P_CORES="$(nproc)" P_L2="$(lscpu_field 'L2 cache')" \
  P_L3="$(lscpu_field 'L3 cache')" P_RAM_KB="$(awk '/^MemTotal/{print $2}' /proc/meminfo)" \
  P_KERNEL="$(uname -r)" P_RUSTC="$(rustc -V)" P_PARENT="$parent" P_CHANGE="$change" \
  P_WORKLOAD="$workload" P_N="$n" P_SEED="${seed:-11}" P_SECONDS="$seconds" P_DRY="$dry" \
  P_RUNS="$runs" P_CATALOGUE="$base/$change/src/BENCHMARK.json"
python3 - <<'EOF'
import json, math, os, statistics as st, sys

e = os.environ
runs = [json.loads(line) for line in open(e["P_RUNS"])]
higher = {m["name"]: m["better"] == "higher" for m in json.load(open(e["P_CATALOGUE"]))["end_to_end"]}
side = lambda s: sorted((r for r in runs if r["side"] == s), key=lambda r: r["pair"])
value = lambda r, m: r["result"]["metrics"][m]["value"]
row = {
    "host": {"cpu": e["P_CPU"], "cores": int(e["P_CORES"]), "l2": e["P_L2"], "l3": e["P_L3"],
             "ram_gib": round(int(e["P_RAM_KB"]) / 2**20, 1), "kernel": e["P_KERNEL"], "rustc": e["P_RUSTC"]},
    "parent": e["P_PARENT"], "change": e["P_CHANGE"], "workload": e["P_WORKLOAD"],
    "seed": int(e["P_SEED"]), "seconds": e["P_SECONDS"] or "run_seconds", "pairs": int(e["P_N"]),
    "dry_run": e["P_DRY"] == "1",
    "failed": {s: sum(r["result"]["failed"] for r in side(s) if r["result"]) for s in ("parent", "change")},
    "correct": {s: sum(bool(r["result"] and r["result"]["correct"]) for r in side(s)) for s in ("parent", "change")},
    "nonzero_exits": {s: sum(r["status"] != 0 for r in side(s)) for s in ("parent", "change")},
    "runs": {s: [r["result"] and r["result"]["metrics"] for r in side(s)] for s in ("parent", "change")},
    "metrics": {},
}
parent, change = side("parent"), side("change")
# Only pairs in which both runs printed a result are compared.
both = [(p, c) for p, c in zip(parent, change) if p["result"] and c["result"]]
for m in (higher if both else []):
    p, c = [value(r, m) for r, _ in both], [value(r, m) for _, r in both]
    q1, _, q3 = st.quantiles(p, n=4, method="inclusive") if len(p) > 1 else (p[0], 0, p[0])
    wins = sum((cv > pv) == higher[m] and cv != pv for pv, cv in zip(p, c))
    gap = st.median(c) - st.median(p)
    # Exact one-sided sign test: P(at least `wins` of the untied pairs) at 1/2.
    untied = sum(cv != pv for pv, cv in zip(p, c))
    sign_p = sum(math.comb(untied, k) for k in range(wins, untied + 1)) / 2**untied
    row["metrics"][m] = {"parent_median": st.median(p), "change_median": st.median(c),
                         "ratio": st.median(c) / st.median(p), "parent_iqr": q3 - q1,
                         "wins": wins, "sign_p": sign_p, "gap_beats_parent_iqr": abs(gap) > q3 - q1}
ips = row["metrics"].get("items_per_s")
sound = all(r["status"] == 0 and r["result"] and r["result"]["correct"] for r in runs)
row["rule_met"] = bool(sound and ips and ips["wins"] >= 0.9 * len(parent)
                       and ips["gap_beats_parent_iqr"] and ips["ratio"] > 1)
print(json.dumps(row))
sys.exit(0 if sound else 1)  # after the row: a failed or incorrect run fails the script
EOF
exit
}
