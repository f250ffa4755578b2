#!/usr/bin/env bash
# Race check: configure a ThreadSanitizer build (build-tsan/,
# CELLSCOPE_SANITIZE=thread), build everything, and run the full ctest
# suite in it. The intended targets are every shared structure: the
# sharded ingestor's lock striping and the fused bulk ingest, snapshot
# writes and restores under injected faults, the server's RCU model swap
# and admission queue under many clients, the pooled analytics stages
# (vectorize, z-score/fold, distance tiles, DBI sweep, spectra, POI
# counts), and the metrics registry and trace sampler every layer shares
# (DESIGN.md §7–§11). Any data race, deadlock or use-after-free fails
# its test.
#
# Usage:
#   scripts/check_tsan.sh
#   CELLSCOPE_TSAN_BUILD_DIR=... scripts/check_tsan.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
tsan_dir="${CELLSCOPE_TSAN_BUILD_DIR:-${repo_root}/build-tsan}"
jobs="$(nproc)"

cmake -B "${tsan_dir}" -S "${repo_root}" -DCELLSCOPE_SANITIZE=thread
cmake --build "${tsan_dir}" -j "${jobs}"

echo "check_tsan: full ctest suite under -fsanitize=thread"
ctest --test-dir "${tsan_dir}" --output-on-failure -j "${jobs}"

echo "check_tsan: full suite race-free under -fsanitize=thread"
