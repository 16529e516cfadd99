#!/usr/bin/env bash
# Cross-ISA identity. The workspace builds for the host CPU
# (.cargo/config.toml: -C target-cpu=native), and DESIGN.md §14 ("Target
# ISA") says that moves no bit. This script holds it to that: it builds
# `fae` a second time for baseline x86-64 in its own target dir, and
# fails unless
#   - both binaries write the same stream bytes and print the same model
#     digest on the benchmark's seed-11 Kaggle, Kaggle --workers 2, Taobao
#     and Taobao-modes lines (bench/run.sh --list), and
#   - fae-nn's unit tests (the product pins) and tests/model_golden.rs
#     pass under the baseline flags too.
#
#   scripts/isa_identity.sh            # ~2 min on 2 cores, most of it the second build
set -euo pipefail
cd "$(dirname "$0")/.."

native="${CARGO_TARGET_DIR:-target}/release/fae"
base_dir="${CARGO_TARGET_DIR:-target}/isa-x86-64"
baseline="$base_dir/release/fae"
cargo build --release --locked -q --bin fae
RUSTFLAGS="-C target-cpu=x86-64" cargo build --release --locked -q --bin fae --target-dir "$base_dir"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
stream() { # workload inputs sample-rate -> writes $work/<workload>.<binary>.fae with both binaries
  for bin in native baseline; do
    "${!bin}" preprocess --workload "$1" --inputs "$2" --batch 256 --sample-rate "$3" --seed 11 \
      --out "$work/$1.$bin.fae" > /dev/null
  done
  cmp "$work/$1.native.fae" "$work/$1.baseline.fae"
}
stream kaggle 10000 0.2
stream taobao 150000 0.05

failed=0
check() { # name workload lr [extra flags...]
  local name="$1" workload="$2" lr="$3"
  shift 3
  local digests=()
  for bin in native baseline; do
    digests+=("$("${!bin}" train --workload "$workload" --stream "$work/$workload.$bin.fae" \
      --batch 256 --gpus 2 --lr "$lr" --seed 11 "$@" | sed -n 's/^model digest[: ]*//p')")
  done
  if [ -n "${digests[0]}" ] && [ "${digests[0]}" = "${digests[1]}" ]; then
    echo "isa_identity: $name: model digest ${digests[0]} on both builds"
  else
    echo "isa_identity: $name: native '${digests[0]}' != x86-64 '${digests[1]}'" >&2
    failed=1
  fi
}
check kaggle kaggle 0.15
check "kaggle --workers 2" kaggle 0.15 --workers 2
check taobao taobao 0.05
check "taobao modes" taobao 0.05 --quantize-cold true --lookahead 32 --stale-skip 0.0001
[ "$failed" = 0 ]

RUSTFLAGS="-C target-cpu=x86-64" cargo test --locked -q --target-dir "$base_dir" -p fae-nn --lib
RUSTFLAGS="-C target-cpu=x86-64" cargo test --locked -q --target-dir "$base_dir" --test model_golden
echo "isa_identity: native and x86-64 builds agree"
