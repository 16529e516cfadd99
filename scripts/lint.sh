#!/usr/bin/env bash
# The one lint entry point (the CI `lint` job runs it): fae-lint, then
# clippy with warnings denied.
#
# Before linting the workspace it runs the must-fail self-test: the
# fae-lint binary is pointed at each seeded-violation fixture tree and
# MUST exit non-zero, and at each clean twin and MUST exit zero. A lint
# pass that has silently stopped finding anything would otherwise report
# the workspace "clean" forever.
set -uo pipefail
cd "$(dirname "$0")/.."

cargo build --release --locked -p fae-lint || exit 1
BIN=target/release/fae-lint
FIX=crates/fae-lint/fixtures
fail=0
n_fail=0
n_pass=0

# must_fail LABEL ARGS... — the lint run must find violations (exit 1).
must_fail() {
  local label=$1; shift
  n_fail=$((n_fail + 1))
  "$BIN" "$@" >/dev/null 2>&1
  local code=$?
  if [ "$code" -ne 1 ]; then
    echo "lint.sh: SELF-TEST FAILED: $label expected exit 1, got $code" >&2
    fail=1
  fi
}

# must_pass LABEL ARGS... — the lint run must come back clean (exit 0).
must_pass() {
  local label=$1; shift
  n_pass=$((n_pass + 1))
  if ! "$BIN" "$@" >/dev/null 2>&1; then
    echo "lint.sh: SELF-TEST FAILED: $label expected exit 0" >&2
    fail=1
  fi
}

must_fail "determinism fixtures" --tree "$FIX/violations" --det --lib
must_fail "taint fixtures" --tree "$FIX/taint" --det --lib
must_fail "scanner fixtures" --tree "$FIX/scanner/bad" --det --lib
must_pass "clean det fixtures" --tree "$FIX/clean" --det --lib
must_pass "clean scanner fixtures" --tree "$FIX/scanner/clean" --det --lib

if [ "$fail" -ne 0 ]; then
  echo "lint.sh: the linter itself is broken; not linting the workspace" >&2
  exit 1
fi
echo "lint.sh: self-test passed ($n_fail must-fail trees, $n_pass clean trees)"

# The real run. JSON artifact lands next to the text output for CI upload.
mkdir -p target/lint
"$BIN" --root . --format json > target/lint/report.json
status=$?
t0=$(date +%s%N)
"$BIN" --root .
t1=$(date +%s%N)
echo "lint.sh: workspace lint took $(( (t1 - t0) / 1000000 )) ms"

# What rustc and clippy check (DESIGN.md §11): no panics in library
# code, no blocking socket call in fae-net outside its deadline helpers,
# no lock but the telemetry handle's, no `allow` without a reason, no
# expectation that stopped firing.
cargo clippy --workspace --all-targets --locked -- -D warnings || status=1
exit $status
