#!/usr/bin/env bash
# Local ThreadSanitizer run over the parallel-engine tests and fae-nn's
# unit tests, the fan-out's among them (mirrors the CI `tsan` nightly job). TSan needs a nightly toolchain with rust-src
# (for -Z build-std); this environment may be offline and unable to
# install one, so the script skips gracefully (exit 0 with a notice)
# instead of failing — the scheduled CI job is where the check runs.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! rustup +nightly component list --installed 2>/dev/null | grep -q rust-src; then
  echo "tsan.sh: no nightly toolchain with rust-src available;"
  echo "tsan.sh: skipping (run 'rustup +nightly component add rust-src' when online)."
  exit 0
fi

target="$(rustc -vV | sed -n 's/^host: //p')"
export RUSTFLAGS="${RUSTFLAGS:--Z sanitizer=thread}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
cargo +nightly test --locked -Z build-std --target "$target" --test parallel "$@"
exec cargo +nightly test --locked -Z build-std --target "$target" -p fae-nn --lib "$@"
