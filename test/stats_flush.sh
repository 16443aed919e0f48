#!/bin/sh
# Every subcommand that honours --timeout, stopped by --timeout 0, exits 3
# and still flushes exactly one --stats-json line.
# Usage: sh stats_flush.sh NOCLIQUES_EXE
exe=$1
status=0
check() {
  out=$("$exe" "$@" --timeout 0 --stats-json 2>/dev/null)
  rc=$?
  lines=$(printf '%s\n' "$out" | grep -c 'nocliques/stats/v6')
  if [ "$rc" -ne 3 ] || [ "$lines" -ne 1 ]; then
    echo "FAIL nocliques $*: exit $rc, $lines stats lines (want 3, 1)"
    status=1
  fi
}
check chase example1
check analyze example1_bdd
check properties example1
check surgery example1
check tournament example1
check rewrite example1_bdd -q '?() E(x,x)'
check finite example1 --engine sat --forbid-loop --fresh 9
exit $status
