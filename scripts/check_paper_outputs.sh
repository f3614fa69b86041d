#!/usr/bin/env bash
# Golden-output gate for the paper's figures, tables, ablations and
# extensions.
#
# Runs each of the 23 fig*/table*/ablation*/ext*/roc* binaries at its
# default arguments with MONOHIDS_THREADS=2, once on the dispatched SIMD
# back-end and once under MONOHIDS_SIMD=scalar, and diffs its stdout
# against bench/golden/<binary>.txt. Every output is deterministic across
# thread counts, back-ends and build types, so any difference is a change
# of a paper number: the script prints the diff and exits non-zero, as it
# does when a binary itself fails.
#
# A change that moves an output on purpose regenerates the golden files in
# the same commit (run each binary as below and write its stdout to
# bench/golden/<binary>.txt) and says which numbers moved and why.
#
# Usage: scripts/check_paper_outputs.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
GOLDEN_DIR="$(cd "$(dirname "$0")/.." && pwd)/bench/golden"

BINARIES=(
  fig1_tail_diversity fig2_feature_scatter table2_best_users
  fig3a_utility_boxplots fig3b_weight_sweep table3_alarm_rates
  fig4a_naive_attacker fig4b_resourceful_attacker
  fig5a_storm_homog_vs_div fig5b_storm_div_vs_partial
  ablation_grouping ablation_group_count ablation_bin_width
  ablation_streaming ablation_threshold_drift ablation_heuristics
  ablation_multifeature ablation_fleet_grid
  ext_collaborative_detection ext_campaign_ttd ext_management_cost
  ext_conditional_thresholds roc_operating_points
)

OUT="$(mktemp -d)"
trap 'rm -rf "${OUT}"' EXIT

failed=0
for simd in native scalar; do
  for name in "${BINARIES[@]}"; do
    bin="${BUILD_DIR}/bench/${name}"
    golden="${GOLDEN_DIR}/${name}.txt"
    if [ ! -x "${bin}" ]; then
      echo "FAIL: ${bin} not built (cmake --build ${BUILD_DIR} --target ${name})" >&2
      failed=1
      continue
    fi
    if [ ! -f "${golden}" ]; then
      echo "FAIL: no golden output ${golden}" >&2
      failed=1
      continue
    fi
    actual="${OUT}/${name}.${simd}.txt"
    status=0
    if [ "${simd}" = scalar ]; then
      MONOHIDS_THREADS=2 MONOHIDS_SIMD=scalar "${bin}" > "${actual}" || status=$?
    else
      MONOHIDS_THREADS=2 "${bin}" > "${actual}" || status=$?
    fi
    if [ "${status}" -ne 0 ]; then
      echo "FAIL: ${name} (${simd}) exited with status ${status}" >&2
      failed=1
    fi
    if ! diff -u "${golden}" "${actual}"; then
      echo "FAIL: ${name} (${simd}) differs from ${golden}" >&2
      failed=1
    fi
  done
done

if [ "${failed}" -ne 0 ]; then
  exit 1
fi
echo "OK: all ${#BINARIES[@]} paper outputs match bench/golden, native and scalar"
