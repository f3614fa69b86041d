#!/usr/bin/env bash
# Budget gate for fleet mode (sim::FleetScenario).
#
# Two micro_fleet runs against an existing Release build:
#   1. Scale run at FLEET_USERS hosts with the peak-RSS ceiling enforced
#      (--max-rss-mib): the bounded-memory contract — RSS must not grow
#      with the population beyond the compact store + one resident shard.
#      micro_fleet also exits non-zero if the paper's policy ranking
#      (full > partial > homogeneous) breaks on the compact state.
#   2. Accuracy run at VERIFY_USERS hosts with --verify-exact (no RSS
#      ceiling; the exact pipeline's resident arenas are the memory hog the
#      fleet path exists to avoid): mean utility per policy must stay
#      within MAX_UTILITY_ERR (default: the config's documented
#      2 * (eps + 1/(m-1)) bound) of the exact pipeline.
#
# Usage: scripts/check_fleet_budget.sh [build-dir]
# Env:   FLEET_USERS (default 10000), MAX_RSS_MIB (default 768),
#        VERIFY_USERS (default 2000), MAX_UTILITY_ERR (default 0 = the
#        documented bound), SHARD_SIZE (default 2048), OUT_DIR (default .)
set -euo pipefail

BUILD_DIR="${1:-build}"
FLEET_USERS="${FLEET_USERS:-10000}"
MAX_RSS_MIB="${MAX_RSS_MIB:-768}"
VERIFY_USERS="${VERIFY_USERS:-2000}"
MAX_UTILITY_ERR="${MAX_UTILITY_ERR:-0}"
SHARD_SIZE="${SHARD_SIZE:-2048}"
OUT_DIR="${OUT_DIR:-.}"

BIN="${BUILD_DIR}/bench/micro_fleet"
if [ ! -x "${BIN}" ]; then
  echo "FAIL: ${BIN} not built (cmake --build ${BUILD_DIR} --target micro_fleet)" >&2
  exit 1
fi

echo "== fleet scale run: ${FLEET_USERS} hosts, RSS ceiling ${MAX_RSS_MIB} MiB =="
"${BIN}" --users "${FLEET_USERS}" --weeks 2 --shard-size "${SHARD_SIZE}" \
    --max-rss-mib "${MAX_RSS_MIB}" --json "${OUT_DIR}/BENCH_fleet_smoke.json"

echo "== fleet accuracy run: ${VERIFY_USERS} hosts vs the exact pipeline =="
"${BIN}" --users "${VERIFY_USERS}" --weeks 2 --shard-size "${SHARD_SIZE}" \
    --verify-exact --max-utility-err "${MAX_UTILITY_ERR}" \
    --json "${OUT_DIR}/BENCH_fleet_verify.json"

echo "OK: RSS within ${MAX_RSS_MIB} MiB at ${FLEET_USERS} hosts;" \
     "sketch utilities within the error bound at ${VERIFY_USERS} hosts"
