#!/bin/sh
# Keeps lib/ to what the nocliques binary runs. Two checks, both by a
# word-level scan of the sources:
#
#   1. every lib/ module is reachable from bin/nocliques.ml: its name
#      occurs in bin/nocliques.ml or in a module reached from there;
#   2. every `val` of a lib/**/*.mli is named in some .ml of lib/, bin/,
#      bench/, examples/, test/ or perfbench/ outside its own module.
#
# A word in a comment counts as a use, so the scan can miss a dead name
# but never reports a live one. Experiment-only modules belong in
# bench/experiments, test-only ones in test/oracle.
#
# Usage: sh test/exports.sh [ROOT]    (ROOT defaults to .)
set -eu
cd "${1:-.}"

files=$(find lib bin bench examples test perfbench \
  -name '*.ml' -o -name '*.mli' | grep -v '/\.' | sort)

# "W FILE WORD" for each distinct word of each source file, then
# "V MLI NAME" for each val of a lib/ interface.
{
  for f in $files; do
    grep -o '[A-Za-z0-9_][A-Za-z0-9_]*' "$f" | sort -u | sed "s|^|W $f |"
  done
  for f in $(printf '%s\n' $files | grep '^lib/.*\.mli$'); do
    sed -n "s|^ *val \([a-z_][A-Za-z0-9_]*\).*|V $f \1|p" "$f"
  done
} | awk '
  function capital(f,   b) {
    b = f; sub(/.*\//, "", b); sub(/\.mli?$/, "", b)
    return toupper(substr(b, 1, 1)) substr(b, 2)
  }
  $1 == "W" {
    words[$2] = words[$2] " " $3
    if ($2 ~ /\.ml$/) { has[$2, $3] = 1; users[$3]++ }
    if ($2 ~ /^lib\/.*\.ml$/) lib[capital($2)] = $2
    next
  }
  {
    own = $2; sub(/\.mli$/, ".ml", own)
    if (users[$3] - ((own, $3) in has) == 0) {
      print "exports: " $2 ": val " $3 " is named by no other module"
      bad = 1
    }
  }
  END {
    reached["bin/nocliques.ml"] = 1
    todo[1] = "bin/nocliques.ml"; n = 1
    while (n > 0) {
      f = todo[n--]
      m = split(words[f] words[f "i"], ws, " ")
      for (i = 1; i <= m; i++)
        if ((ws[i] in lib) && !(lib[ws[i]] in reached)) {
          reached[lib[ws[i]]] = 1; todo[++n] = lib[ws[i]]
        }
    }
    for (mod in lib)
      if (!(lib[mod] in reached)) {
        print "exports: " lib[mod] " is not reachable from bin/nocliques.ml"
        bad = 1
      }
    exit bad
  }
'
