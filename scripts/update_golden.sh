#!/usr/bin/env bash
# Regenerates tests/golden/corpus_verdicts.json: every corpus contract's
# verdict signature and ledger capture digest, for buggy, patched and latest.
# golden_test compares the tree against that file; a change that means to
# move a verdict or a witness reruns this script, commits the file and says
# in CHANGES.md why each changed entry changed.
#
# Usage: scripts/update_golden.sh
#   BUILD_DIR=build   build tree to build golden_test in
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
cmake -B "$BUILD_DIR" -S . > /dev/null
cmake --build "$BUILD_DIR" --target golden_test -j "$(nproc)"
LISA_UPDATE_GOLDEN=1 "$BUILD_DIR"/tests/golden_test --gtest_filter='GoldenVerdicts.*'
