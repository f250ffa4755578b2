#!/usr/bin/env bash
# Memory and undefined-behavior check: configure a Debug build with
# AddressSanitizer and UndefinedBehaviorSanitizer (build-asan/,
# CELLSCOPE_SANITIZE=address,undefined), build everything, and run the
# full ctest suite in it. UBSan is built with -fno-sanitize-recover, so a
# finding aborts its test instead of printing a report under a passing
# result; ASan stops at the first error, LeakSanitizer fails a test that
# leaks, and _GLIBCXX_ASSERTIONS bounds-checks the standard containers.
# Debug also turns on the debug-only checks (for example
# DistanceMatrix.InvalidIndicesThrowInDebug).
#
# Usage:
#   scripts/check_asan.sh
#   CELLSCOPE_ASAN_BUILD_DIR=... scripts/check_asan.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
asan_dir="${CELLSCOPE_ASAN_BUILD_DIR:-${repo_root}/build-asan}"
sanitize="address,undefined"
jobs="$(nproc)"

cmake -B "${asan_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Debug \
  -DCELLSCOPE_SANITIZE="${sanitize}"
cmake --build "${asan_dir}" -j "${jobs}"

echo "check_asan: full ctest suite under -fsanitize=${sanitize}"
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1${UBSAN_OPTIONS:+:${UBSAN_OPTIONS}}" \
ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1${ASAN_OPTIONS:+:${ASAN_OPTIONS}}" \
  ctest --test-dir "${asan_dir}" --output-on-failure -j "${jobs}"

echo "check_asan: full suite clean under -fsanitize=${sanitize}"
