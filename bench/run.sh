#!/usr/bin/env bash
# The benchmark's one command. From the repository root:
#
#   bench/run.sh                      every workload: end-to-end rounds, then the
#                                     traced replay; prints every metric and writes
#                                     bench/out/<run-id>/result.json + trace-*.json
#   bench/run.sh --repeat 2           end-to-end suite twice, both values held against bounds
#   bench/run.sh --smoke              tiny inputs, one round, no bounds (< 20 s)
#   bench/run.sh --seed 12            the same on another seed
#   bench/run.sh --list               the workload table with its exact CLI lines
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one measured run; the last line of standard
#                                     output is the result object (what the driver runs)
#
# Builds the release `fae` binary from the repository's own workspace and the
# two harness binaries from bench/ (its own workspace and lock file), offline.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$PWD"

# With CARGO_TARGET_DIR set (the driver sets it) everything builds there;
# otherwise the repository builds into target/ and the harness into bench/target/.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
  case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$ROOT/$CARGO_TARGET_DIR" ;; esac
  export CARGO_TARGET_DIR
  FAE_BIN="$CARGO_TARGET_DIR/release/fae"
  BENCH_BIN="$CARGO_TARGET_DIR/release"
else
  FAE_BIN="$ROOT/target/release/fae"
  BENCH_BIN="$ROOT/bench/target/release"
fi
# Build output goes to stderr: standard output carries only the results.
cargo build --release --offline --locked -q --manifest-path "$ROOT/Cargo.toml" --bin fae 1>&2
cargo build --release --offline --locked -q --manifest-path "$ROOT/bench/Cargo.toml" 1>&2

# --seed and --seconds pass straight through (defaults: 11, run_seconds).
WORKLOAD="" TRACE=0 PASS=()
while [ "$#" -gt 0 ]; do
  case "$1" in
    --workload) WORKLOAD="$2"; shift 2 ;;
    --trace) TRACE="$2"; shift 2 ;;
    --smoke) PASS+=(--smoke 1); shift ;;
    --list) exec "$BENCH_BIN/perf-e2e" list ;;
    --seed|--seconds|--repeat) PASS+=("$1" "$2"); shift 2 ;;
    *) echo "bench/run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

OUT="$ROOT/bench/out"
if [ -z "$WORKLOAD" ]; then
  exec "$BENCH_BIN/perf-e2e" suite --fae "$FAE_BIN" --layers "$BENCH_BIN/perf-layers" \
    --out-dir "$OUT" "${PASS[@]}"
fi
RUN="$OUT/run-$$-$WORKLOAD"
if [ "$TRACE" = 1 ]; then
  exec "$BENCH_BIN/perf-layers" --workload "$WORKLOAD" --out-dir "$RUN" "${PASS[@]}"
fi
exec "$BENCH_BIN/perf-e2e" run --workload "$WORKLOAD" --fae "$FAE_BIN" \
  --layers "$BENCH_BIN/perf-layers" --work-dir "$RUN" "${PASS[@]}"
