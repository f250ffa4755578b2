#!/usr/bin/env bash
# Same-answers check between two build trees: runs every `smoke` ctest
# binary (the figure/table/ext_* benches and the deterministic examples)
# from BUILD_A and from BUILD_B and fails on any difference in what they
# print on stdout or in the files they write. BENCH_*.json reports are
# skipped (they carry timings); stderr is not compared (log lines carry
# timings too).
#
# Usage:
#   scripts/check_smoke_identity.sh BUILD_A BUILD_B
#
# Both trees must be built. Each run gets its own empty directory as
# CELLSCOPE_OUT, CELLSCOPE_BENCH_DIR and working directory; that path is
# replaced by OUT in the captured stdout before the comparison. The
# smoke tests that are not one binary (the cellscoped lifecycle scripts)
# are not run. Exits 0 when every binary printed and wrote the same
# bytes in both trees, 1 on any difference or failed run, 2 on bad
# arguments.
set -euo pipefail

if [[ $# -ne 2 || ! -d $1 || ! -d $2 ]]; then
  echo "usage: $0 BUILD_A BUILD_B (two build directories)" >&2
  exit 2
fi
tree_a="$(cd "$1" && pwd)"
tree_b="$(cd "$2" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

# One "<test name> <binary path relative to the tree>" line per smoke test
# whose command is a single binary inside the tree.
list_smoke() {
  ctest --test-dir "$1" -L smoke --show-only=json-v1 | python3 -c '
import json, sys
root = sys.argv[1] + "/"
for test in json.load(sys.stdin)["tests"]:
    command = test.get("command") or []
    if len(command) == 1 and command[0].startswith(root):
        print(test["name"], command[0][len(root):])
' "$1"
}

list_smoke "${tree_a}" >"${work}/a.list"
list_smoke "${tree_b}" >"${work}/b.list"
if ! diff -u "${work}/a.list" "${work}/b.list"; then
  echo "check_smoke_identity: the trees list different smoke binaries" >&2
  exit 1
fi
if [[ ! -s ${work}/a.list ]]; then
  echo "check_smoke_identity: no smoke binaries in ${tree_a}" >&2
  exit 1
fi

# Runs <tree>/<binary> in <dir> and leaves its normalised stdout there.
run_one() {
  local tree=$1 binary=$2 dir=$3
  mkdir -p "${dir}/files"
  if ! (cd "${dir}/files" &&
        CELLSCOPE_OUT="${dir}/files" CELLSCOPE_BENCH_DIR="${dir}/files" \
          "${tree}/${binary}" </dev/null >"${dir}/stdout.raw" \
            2>"${dir}/stderr"); then
    echo "  ${tree}/${binary} failed; stderr:" >&2
    tail -n 20 "${dir}/stderr" >&2
    return 1
  fi
  sed "s|${dir}/files|OUT|g" "${dir}/stdout.raw" >"${dir}/stdout"
  rm -f "${dir}/files"/BENCH_*.json
}

status=0
count=0
while read -r name binary; do
  count=$((count + 1))
  same=1
  run_one "${tree_a}" "${binary}" "${work}/a/${name}" || same=0
  run_one "${tree_b}" "${binary}" "${work}/b/${name}" || same=0
  if ! diff -q "${work}/a/${name}/stdout" "${work}/b/${name}/stdout" \
      >/dev/null 2>&1; then
    echo "DIFF ${name}: stdout" >&2
    diff "${work}/a/${name}/stdout" "${work}/b/${name}/stdout" 2>&1 |
      head -n 20 >&2 || true
    same=0
  fi
  if ! diff -r "${work}/a/${name}/files" "${work}/b/${name}/files" >&2; then
    echo "DIFF ${name}: written files" >&2
    same=0
  fi
  if [[ ${same} -eq 1 ]]; then
    echo "same  ${name}"
  else
    status=1
  fi
done <"${work}/a.list"

if [[ ${status} -ne 0 ]]; then
  echo "check_smoke_identity: differences found (see above)" >&2
  exit 1
fi
echo "check_smoke_identity: ${count} smoke binaries identical in stdout" \
     "and written files"
