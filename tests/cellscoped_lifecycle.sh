#!/bin/sh
# Drives cellscoped through its whole lifecycle: train, feed, classify,
# serve, SIGINT, then require exit 0 and a non-empty checkpoint.
#
#   cellscoped_lifecycle.sh rounds|sparse|trace <cellscoped> <trace_convert> \
#     <dir>
#
# "rounds" feeds two synthetic rounds of the calibrated trace, stops once
# the "round 2:" line is out, and fails when round 1 counts a quarter or
# more of its records late (the stream_late_ratio bound), or when round 2,
# the same feed one grid later, counts a different number late. "sparse"
# does the same on a feed a tenth as dense (2,000 records). "trace"
# writes the same city's month to a .ctb with trace_convert synth first,
# stops once cellscoped's --trace pass reports, and fails unless that
# pass read as many records as synth wrote. Logs and the checkpoint land
# in <dir>, which is recreated.
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
  sparse)
    ready='^round 2:'
    set -- --records=2000 --rounds=2 --pause-ms=0 ;;
  trace)
    "$convert" synth "$dir/city.ctb" --records=20000 --towers=40 \
      >"$dir/synth.log"
    # "<path>: <records> records (...)"
    written=$(sed -n 's/^[^ ]*: \([0-9]*\) records .*/\1/p' "$dir/synth.log")
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

case $mode in
  rounds|sparse)
    # "round 1: <records> records (...), watermark <m>, late <late>, ..."
    records=$(sed -n 's/^round 1: \([0-9]*\) records .*/\1/p' "$log")
    late=$(sed -n 's/^round 1: .*, late \([0-9]*\),.*/\1/p' "$log")
    [ -n "$records" ] && [ -n "$late" ] || fail "no round 1 counts"
    [ $((late * 4)) -lt "$records" ] ||
      fail "round 1: $late of $records records late (>= 25 %)"
    late2=$(sed -n 's/^round 2: .*, late \([0-9]*\),.*/\1/p' "$log")
    [ "$late2" = "$late" ] || fail "round 2 late '$late2', round 1 late $late"
    echo "cellscoped $mode: rounds 1 and 2 each $late of $records late" ;;
  trace)
    # "<path>: <records> records in <ms> ms, ..."
    read_back=$(sed -n 's/^[^ ]*: \([0-9]*\) records in .*/\1/p' "$log")
    [ -n "$written" ] && [ "$read_back" = "$written" ] ||
      fail "synth wrote '$written' records, --trace read '$read_back'"
    echo "cellscoped trace: $read_back records written and read" ;;
esac
echo "cellscoped $mode: exit 0, checkpoint $(wc -c <"$checkpoint") bytes"
