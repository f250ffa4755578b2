#!/usr/bin/env bash
# SIMD bit-identity check: build the kernel-oracle and equivalence
# suites, then run `ctest -L 'simd|par'` twice — once with dispatch
# forced to the scalar reference kernel (CELLSCOPE_SIMD=scalar) and
# once on the widest ISA the CPU reports (CELLSCOPE_SIMD=auto, the
# default). Both passes pin `dot_4x8` against its sequential-dot oracle
# and the distance matrix bit for bit across ISAs, NaN/±inf and ragged
# tile edges included (DESIGN.md §12), so a reassociated reduction or a
# fused multiply-add in a vector kernel fails the run; they also run the
# serial = pool suite under each dispatch mode. A third pass runs
# `ctest -L par` in a ThreadSanitizer build (build-tsan/, as
# scripts/check_stream.sh configures it): the pooled stages — vectorize,
# z-score/fold, distance tiles, DBI sweep, spectra, POI counts,
# representative search — must be race-free as well as
# order-independent (DESIGN.md §8).
#
# Usage:
#   scripts/check_simd.sh              # build (incremental), run all passes
#   CELLSCOPE_BUILD_DIR=... CELLSCOPE_TSAN_BUILD_DIR=... scripts/check_simd.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${CELLSCOPE_BUILD_DIR:-${repo_root}/build}"
tsan_dir="${CELLSCOPE_TSAN_BUILD_DIR:-${repo_root}/build-tsan}"

# Configure every run: a no-op on a warm cache, and it picks up new
# targets after CMakeLists changes.
cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j --target test_simd --target test_parallel

echo "check_simd: pass 1/3 — dispatch forced scalar (reference kernel)"
CELLSCOPE_SIMD=scalar \
  ctest --test-dir "${build_dir}" -L 'simd|par' --output-on-failure

echo "check_simd: pass 2/3 — widest detected ISA (auto dispatch)"
CELLSCOPE_SIMD=auto \
  ctest --test-dir "${build_dir}" -L 'simd|par' --output-on-failure

echo "check_simd: pass 3/3 — ctest -L par under ThreadSanitizer"
cmake -B "${tsan_dir}" -S "${repo_root}" -DCELLSCOPE_SANITIZE=thread
cmake --build "${tsan_dir}" -j --target test_parallel
ctest --test-dir "${tsan_dir}" -L par --output-on-failure

echo "check_simd: scalar and vector dispatch agree bit-for-bit, race-free"
