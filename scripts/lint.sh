#!/usr/bin/env bash
# Local fae-lint runner (mirrors the CI `lint` job).
#
# Before linting the workspace it runs the must-fail self-test: the
# binary is pointed at each seeded-violation fixture tree and MUST exit
# non-zero, and at each clean twin and MUST exit zero. A lint pass that
# has silently stopped finding anything would otherwise report the
# workspace "clean" forever.
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
must_fail "phase-balance fixtures" --tree "$FIX/phases/bad" --lib
must_fail "lock-order fixtures" --tree "$FIX/locks/bad" --lib
must_fail "taint fixtures" --tree "$FIX/taint" --det --lib
must_fail "wire-compat fixtures" --wire "$FIX/wire/bad"
must_fail "net-deadline fixtures" --tree "$FIX/net" --lib --net
must_fail "metric-name fixtures" --tree "$FIX/metrics" --lib --metrics
must_fail "scanner fixtures" --tree "$FIX/scanner/bad" --det --lib --net --metrics
must_pass "clean det fixtures" --tree "$FIX/clean" --det --lib
must_pass "clean phase fixtures" --tree "$FIX/phases/clean" --lib
must_pass "clean lock fixtures" --tree "$FIX/locks/clean" --lib
must_pass "clean wire fixtures" --wire "$FIX/wire/clean"
must_pass "clean scanner fixtures" --tree "$FIX/scanner/clean" --det --lib --net --metrics

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
exit $status
