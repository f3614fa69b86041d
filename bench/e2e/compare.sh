#!/usr/bin/env bash
# Compares two results files of run.sh: compare.sh base.json new.json
set -euo pipefail
exec python3 "$(dirname "$0")/e2e.py" compare "$@"
