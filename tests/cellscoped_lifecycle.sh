#!/bin/sh
# Drives cellscoped through its whole lifecycle: train, feed, classify,
# serve, SIGINT, then require exit 0 and a non-empty checkpoint.
#
#   cellscoped_lifecycle.sh rounds|trace <cellscoped> <trace_convert> <dir>
#
# "rounds" feeds two synthetic rounds of the calibrated trace and stops
# once the "round 2:" line is out; "trace" converts a small synthetic
# .ctb first and stops once cellscoped's --trace pass reports. Logs and
# the checkpoint land in <dir>, which is recreated.
set -eu
mode=$1 daemon=$2 convert=$3 dir=$4
rm -rf "$dir"
mkdir -p "$dir"
log=$dir/cellscoped.log
checkpoint=$dir/checkpoint.bin

case $mode in
  rounds)
    ready='^round 2:'
    set -- --records=20000 --rounds=2 --pause-ms=0 ;;
  trace)
    "$convert" synth "$dir/city.ctb" --records=20000 --towers=40 >/dev/null
    ready='serving until a signal'
    set -- --trace="$dir/city.ctb" ;;
  *)
    echo "unknown mode: $mode" >&2
    exit 2 ;;
esac

fail() {
  echo "cellscoped $mode: $1" >&2
  cat "$log" >&2
  exit 1
}

"$daemon" --port=0 --towers=40 --checkpoint="$checkpoint" "$@" >"$log" 2>&1 &
pid=$!
waited=0
until grep -q "$ready" "$log"; do
  kill -0 "$pid" 2>/dev/null || fail "exited before '$ready'"
  if [ "$waited" -ge 2400 ]; then
    kill -KILL "$pid"
    fail "no '$ready' line within 240 s"
  fi
  sleep 0.1
  waited=$((waited + 1))
done

kill -INT "$pid"
status=0
wait "$pid" || status=$?
[ "$status" -eq 0 ] || fail "exit status $status after SIGINT"
[ -s "$checkpoint" ] || fail "empty or missing checkpoint $checkpoint"
echo "cellscoped $mode: exit 0, checkpoint $(wc -c <"$checkpoint") bytes"
