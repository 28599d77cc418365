#!/usr/bin/env bash
# Writes stats.out, lint.out and classify.out: the Section 4 statistics,
# the linter and the policy-style classifier on the CLI smoke world
# (gen --seed 5 --tier1 3 --mid 15 --stub 40). Every report is
# deterministic; lint exits 1 on this world because it reports errors.
set -eu
CLI="$1"
OUT="$2"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
"$CLI" gen --seed 5 --tier1 3 --mid 15 --stub 40 -o "$DIR/world" > /dev/null
"$CLI" stats -d "$DIR/world" > "$OUT/stats.out"
status=0
"$CLI" lint -d "$DIR/world" > "$OUT/lint.out" || status=$?
[ "$status" -eq 1 ] || { echo "lint exited $status, expected 1" >&2; exit 1; }
"$CLI" classify -d "$DIR/world" > "$OUT/classify.out"
