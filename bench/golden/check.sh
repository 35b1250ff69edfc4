#!/usr/bin/env bash
# Reruns the paper-output benches and diffs their stdout against the
# goldens in this directory; exits non-zero on any difference.
#
#   bench/golden/check.sh BUILD_DIR          # check
#   bench/golden/check.sh BUILD_DIR --update # rewrite the goldens
#
# session_lengths' last column ("mine ms") is wall-clock time, so it is
# masked in both the golden and the fresh output.
set -euo pipefail

build_dir=$1
mode=${2:-check}
golden_dir=$(cd "$(dirname "$0")" && pwd)
benches=(table_examples fig8_accuracy_vs_stp fig9_accuracy_vs_lpp
         fig10_accuracy_vs_nip ablation_capture_relation ablation_topology
         ablation_proxy ablation_thresholds ablation_referrer
         ablation_pattern_quality ablation_prediction session_lengths)

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

for bench in "${benches[@]}"; do
  "$build_dir/bench/$bench" > "$out_dir/$bench.txt"
done
sed -i -E 's/\| [^|]*\|$/| (masked) |/' "$out_dir/session_lengths.txt"

status=0
for bench in "${benches[@]}"; do
  if [[ $mode == --update ]]; then
    cp "$out_dir/$bench.txt" "$golden_dir/$bench.txt"
  elif ! diff -u "$golden_dir/$bench.txt" "$out_dir/$bench.txt"; then
    echo "golden mismatch: $bench" >&2
    status=1
  fi
done
exit $status
