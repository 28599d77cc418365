#!/usr/bin/env bash
# Prints DOC with every block between `<!-- bench:NAME -->` and
# `<!-- /bench:NAME -->` replaced by the block of the same name in
# REPORT (the paper report's stdout). Fails when either side names a
# block the other lacks.
#   splice_blocks.sh REPORT DOC > DOC.out
set -eu
awk '
  function block_name(line) {
    sub(/^<!-- bench:/, "", line); sub(/ -->$/, "", line); return line
  }
  FNR == NR {
    if ($0 ~ /^<!-- bench:[a-z0-9]+ -->$/) { name = block_name($0); body[name] = ""; inside = 1 }
    else if ($0 ~ /^<!-- \/bench:/) inside = 0
    else if (inside) body[name] = body[name] $0 "\n"
    next
  }
  $0 ~ /^<!-- bench:[a-z0-9]+ -->$/ {
    name = block_name($0)
    if (!(name in body)) { print "the report prints no block " name > "/dev/stderr"; bad = 1 }
    print; printf "%s", body[name]; used[name] = 1; skip = 1; next
  }
  $0 ~ /^<!-- \/bench:/ { skip = 0 }
  !skip { print }
  END {
    for (name in body)
      if (!(name in used)) { print "the document has no block " name > "/dev/stderr"; bad = 1 }
    exit bad
  }
' "$1" "$2"
