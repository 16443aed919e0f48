#!/bin/sh
# Exit-code table: each row runs one nocliques command line under
# `timeout 20` and asserts its exit status and that nothing escaped as an
# uncaught exception. A row with a MENTION other than `-` also asserts
# that stderr names it (the path an unwritable artefact was bound for).
# Usage: sh exit_codes.sh NOCLIQUES_EXE
exe=$1
status=0
err=$(mktemp)
trap 'rm -f "$err"' EXIT
row() {
  want=$1
  mention=$2
  shift 2
  timeout 20 "$exe" "$@" >/dev/null 2>"$err"
  rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL nocliques $*: exit $rc (want $want)"
    status=1
  fi
  if grep -q uncaught "$err"; then
    echo "FAIL nocliques $*: uncaught exception"
    status=1
  fi
  if [ "$mention" != - ] && ! grep -q "$mention" "$err"; then
    echo "FAIL nocliques $*: stderr does not name $mention"
    status=1
  fi
}
# an unwritable artefact path: one diagnostic naming it, exit 2
row 2 /nonexistent/p.json chase example1 -d 2 --proof-json /nonexistent/p.json
row 2 /nonexistent/p.dot tournament example1 -d 2 --proof-dot /nonexistent/p.dot
row 2 /nonexistent/w.json finite succ_only --engine sat --witness-json /nonexistent/w.json
row 2 /nonexistent/x.dot dot example1 -d 2 -o /nonexistent/x.dot
row 2 /nonexistent/g.dot debug termination-graph example1 -o /nonexistent/g.dot
# unreadable or unknown input, and a query that does not parse: exit 2
row 2 . chase .
row 2 . lint .
row 2 - chase /nonexistent/p.nca
row 2 - rewrite example1 -q garbage
row 2 nosuch zoo nosuch
# negative counts are usage errors, never a hang or a silent depth 0
row 2 - finite example1 --fresh=-1
row 2 - analyze example1_bdd --depth=-2
row 2 - chase example1 --max-atoms=-5
row 2 - rewrite example1 --rounds=-1
row 2 - surgery example1 --rounds=-1
row 2 - lint example1 --max-warnings=-1
row 2 - chase example1 --jobs 0
row 2 - chase example1 --timeout=-1
# a FACT at the wrong arity is a usage error; a fact not derived fails
row 2 - explain example1 E
row 1 - explain example1 'E(a,z)'
# sat is the only finite-model engine
row 2 - finite example1 --engine dfs
# cmdliner's own usage errors exit 2, not 124
row 2 - chase example1 -d -1
row 2 - nosuch-subcommand
row 2 - chase
# help and version exit 0
row 0 - --help=plain
row 0 - --version
exit $status
