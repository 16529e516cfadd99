#!/usr/bin/env bash
# Regenerates every paper table/figure plus the ablations and extensions.
# Outputs print to stdout; JSON records land in results/.
set -euo pipefail
cd "$(dirname "$0")/.."

BINS=(
  fig02_table_sizes fig04_minibatch_prob fig06_threshold_sweep
  fig07_access_profile fig08_sampling_latency fig09_randem_accuracy
  fig10_randem_latency fig11_classify_latency fig12_accuracy
  fig13_speedup fig14_breakdown fig15_batchsize tab06_power
  nvopt_compare abl_sampling abl_randem abl_scheduler abl_budget
  abl_sensitivity abl_overlap abl_skip ext_multinode
)

cargo build --release --locked -p fae-bench
for b in "${BINS[@]}"; do
  echo "================================================================"
  echo ">> $b"
  cargo run --release --locked -q -p fae-bench --bin "$b"
done
echo "================================================================"
echo "all experiments complete; JSON in results/"
