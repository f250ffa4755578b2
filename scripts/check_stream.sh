#!/usr/bin/env bash
# Streaming race + crash-safety check: configure a ThreadSanitizer build
# in build-tsan/, build the stream, fault, io and obs test suites, and
# run `ctest -L 'stream|fault|io|obs'` under it. The sharded ingestor's
# lock striping, the classify-all pass, the snapshot write/restore paths
# with injected faults, the HTTP, CSV-trace and JSON fuzz drivers, the
# columnar trace codecs feeding the bulk ingest path, and the metrics
# registry and trace sampler every layer shares are the intended targets
# (DESIGN.md §7, §9, and §10); any data race or crash-safety violation
# fails the run.
#
# Usage:
#   scripts/check_stream.sh            # configure (once), build, run
#   CELLSCOPE_TSAN_BUILD_DIR=... scripts/check_stream.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${CELLSCOPE_TSAN_BUILD_DIR:-${repo_root}/build-tsan}"

# Configure every run: a no-op on a warm cache, and it picks up new
# targets after CMakeLists changes.
cmake -B "${build_dir}" -S "${repo_root}" -DCELLSCOPE_SANITIZE=thread

cmake --build "${build_dir}" -j --target test_stream --target test_obs \
  --target test_fault --target snapshot_fuzz --target http_fuzz \
  --target csv_trace_fuzz --target json_fuzz --target test_io

echo "check_stream: running ctest -L 'stream|fault|io|obs' under ThreadSanitizer"
ctest --test-dir "${build_dir}" -L 'stream|fault|io|obs' --output-on-failure
