#!/usr/bin/env bash
# Perf-regression gate: run the perf_* benches in quick mode, emit
# fresh BENCH_*.json run reports, and diff them against the committed
# baselines in bench/baselines/ with build/bench/bench_compare. The
# summary ends with a per-bench speedup-vs-baseline table.
#
# Usage:
#   scripts/check_perf.sh             # gate: exit 1 on >15% wall-time regression
#   scripts/check_perf.sh --update    # refresh bench/baselines/ from this machine
#   CELLSCOPE_PERF_THRESHOLD=0.25 scripts/check_perf.sh   # loosen the gate
#
# Quick mode keeps the gate cheap (~seconds per bench): a small synthetic
# city (CELLSCOPE_TOWERS=200) and a short google-benchmark min time. The
# committed baselines are produced with the same settings so the ratio —
# not the absolute time — is what the gate measures. Baselines are
# machine-dependent; refresh them with --update when hardware changes.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${CELLSCOPE_BUILD_DIR:-${repo_root}/build}"
baseline_dir="${repo_root}/bench/baselines"
threshold="${CELLSCOPE_PERF_THRESHOLD:-0.15}"
benches=(perf_clustering perf_distance perf_mapred perf_qp perf_pipeline perf_stream perf_ingest_fullscale perf_server perf_simd)

update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
elif [[ $# -gt 0 ]]; then
  echo "usage: $0 [--update]" >&2
  exit 2
fi

for bench in "${benches[@]}"; do
  if [[ ! -x "${build_dir}/bench/${bench}" ]]; then
    echo "check_perf: ${build_dir}/bench/${bench} missing — build first" >&2
    echo "check_perf: cmake -B build -S . && cmake --build build -j" >&2
    exit 2
  fi
done

fresh_dir="$(mktemp -d "${TMPDIR:-/tmp}/cellscope-perf.XXXXXX")"
trap 'rm -rf "${fresh_dir}"' EXIT

for bench in "${benches[@]}"; do
  echo "check_perf: running ${bench} (quick mode)"
  CELLSCOPE_TOWERS=200 CELLSCOPE_BENCH_DIR="${fresh_dir}" \
    "${build_dir}/bench/${bench}" --benchmark_min_time=0.05 \
    >/dev/null
done

if [[ "${update}" == 1 ]]; then
  mkdir -p "${baseline_dir}"
  cp "${fresh_dir}"/BENCH_*.json "${baseline_dir}/"
  echo "check_perf: baselines refreshed in ${baseline_dir}"
  exit 0
fi

if [[ ! -d "${baseline_dir}" ]]; then
  echo "check_perf: no baselines at ${baseline_dir}; run $0 --update" >&2
  exit 2
fi

"${build_dir}/bench/bench_compare" "${baseline_dir}" "${fresh_dir}" \
  "${threshold}"
