#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it; see e2e.py for the options.
set -euo pipefail
exec python3 "$(dirname "$0")/e2e.py" run "$@"
