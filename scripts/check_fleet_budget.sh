#!/usr/bin/env bash
# Budget gate for fleet mode (sim::FleetScenario).
#
# Two micro_fleet runs and one grid sweep against an existing Release build:
#   1. Scale run at FLEET_USERS hosts with the peak-RSS ceiling enforced
#      (--max-rss-mib): the bounded-memory contract — RSS must not grow
#      with the population beyond the compact store + one resident wave.
#      micro_fleet also exits non-zero if the paper's policy ranking
#      (full > partial > homogeneous) breaks on the compact state.
#   2. Accuracy run at VERIFY_USERS hosts with --verify-exact (no RSS
#      ceiling; the exact pipeline's resident arenas are the memory hog the
#      fleet path exists to avoid): mean utility per policy must stay
#      within MAX_UTILITY_ERR (default: the config's documented 2/(m-1)
#      bound) of the exact pipeline.
#   3. ablation_fleet_grid at its defaults: every grid size m in
#      {8, 16, 24, 48} must keep its max |mean utility| error within 2/(m-1).
#
# Usage: scripts/check_fleet_budget.sh [build-dir]
# Env:   FLEET_USERS (default 10000), MAX_RSS_MIB (default 768),
#        VERIFY_USERS (default 2000), MAX_UTILITY_ERR (default 0 = the
#        documented bound), OUT_DIR (default .)
set -euo pipefail

BUILD_DIR="${1:-build}"
FLEET_USERS="${FLEET_USERS:-10000}"
MAX_RSS_MIB="${MAX_RSS_MIB:-768}"
VERIFY_USERS="${VERIFY_USERS:-2000}"
MAX_UTILITY_ERR="${MAX_UTILITY_ERR:-0}"
OUT_DIR="${OUT_DIR:-.}"

BIN="${BUILD_DIR}/bench/micro_fleet"
SWEEP="${BUILD_DIR}/bench/ablation_fleet_grid"
for bin in "${BIN}" "${SWEEP}"; do
  if [ ! -x "${bin}" ]; then
    echo "FAIL: ${bin} not built (cmake --build ${BUILD_DIR} --target $(basename "${bin}"))" >&2
    exit 1
  fi
done

echo "== fleet scale run: ${FLEET_USERS} hosts, RSS ceiling ${MAX_RSS_MIB} MiB =="
"${BIN}" --users "${FLEET_USERS}" --weeks 2 \
    --max-rss-mib "${MAX_RSS_MIB}" --json "${OUT_DIR}/BENCH_fleet_smoke.json"

echo "== fleet accuracy run: ${VERIFY_USERS} hosts vs the exact pipeline =="
"${BIN}" --users "${VERIFY_USERS}" --weeks 2 \
    --verify-exact --max-utility-err "${MAX_UTILITY_ERR}" \
    --json "${OUT_DIR}/BENCH_fleet_verify.json"

echo "== fleet grid sweep: utility error within 2/(m-1) at every m =="
"${SWEEP}"

echo "OK: RSS within ${MAX_RSS_MIB} MiB at ${FLEET_USERS} hosts;" \
     "compact-row utilities within the error bound at ${VERIFY_USERS} hosts" \
     "and at every swept grid size"
