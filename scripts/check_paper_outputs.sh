#!/usr/bin/env bash
# Golden-output gate for the paper's figures, tables, ablations and
# extensions.
#
# Runs each of the 23 fig*/table*/ablation*/ext*/roc* binaries at its
# default arguments in three legs: with MONOHIDS_THREADS=2 on the
# dispatched SIMD back-end, with MONOHIDS_THREADS=2 under
# MONOHIDS_SIMD=scalar, and with MONOHIDS_THREADS=4 on the dispatched
# back-end; each stdout is diffed against bench/golden/<binary>.txt. Every
# output is deterministic across thread counts, back-ends and build types,
# so any difference is a change of a paper number (or a scheduling change
# that leaks into one, which the 4-thread leg is there to catch): the
# script prints the diff and exits non-zero, as it does when a binary
# itself fails.
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
# Each leg is "<simd>:<threads>"; simd "native" leaves MONOHIDS_SIMD unset.
for leg in native:2 scalar:2 native:4; do
  simd="${leg%%:*}"
  threads="${leg##*:}"
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
    actual="${OUT}/${name}.${simd}.${threads}.txt"
    status=0
    if [ "${simd}" = scalar ]; then
      MONOHIDS_THREADS="${threads}" MONOHIDS_SIMD=scalar "${bin}" > "${actual}" || status=$?
    else
      MONOHIDS_THREADS="${threads}" "${bin}" > "${actual}" || status=$?
    fi
    if [ "${status}" -ne 0 ]; then
      echo "FAIL: ${name} (${simd}, ${threads} threads) exited with status ${status}" >&2
      failed=1
    fi
    if ! diff -u "${golden}" "${actual}"; then
      echo "FAIL: ${name} (${simd}, ${threads} threads) differs from ${golden}" >&2
      failed=1
    fi
  done
done

if [ "${failed}" -ne 0 ]; then
  exit 1
fi
echo "OK: all ${#BINARIES[@]} paper outputs match bench/golden: native and scalar at 2 threads, native at 4"
