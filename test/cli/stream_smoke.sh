#!/usr/bin/env bash
# End-to-end contract for the stream subcommand: the anchor run's text
# summary is clean and windowed, a journal replay must reproduce the
# generated run, corrupt journal lines must degrade the run (exit 2,
# stream.journal_rejected lit) without crashing, and --metrics output
# must re-parse with the library's own JSON parser. The anchor run's
# --json summary is pinned byte for byte by test/golden
# (stream_json.expected).
set -eu
CLI="$1"
JSON_CHECK="$2"
case "$JSON_CHECK" in /*|./*) ;; *) JSON_CHECK="./$JSON_CHECK" ;; esac
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
fail() { echo "STREAM SMOKE TEST FAILED: $1" >&2; exit 1; }

ANCHOR="--seed 7 --events 192 --window 48"

# the text summary of the anchor run
"$CLI" stream $ANCHOR > "$DIR/stream.txt" || fail "anchor run failed"
grep -q 'result: CLEAN' "$DIR/stream.txt" || fail "anchor run not clean"
grep -q '== windows ==' "$DIR/stream.txt" || fail "windowed aggregates missing"

# a journal round-trip reproduces the generated run exactly
"$CLI" stream $ANCHOR --json --journal-out "$DIR/feed.journal" > "$DIR/generated.json"
"$CLI" stream --seed 7 --window 48 --replay "$DIR/feed.journal" --json \
  > "$DIR/replayed.json" || fail "journal replay failed"
cmp -s "$DIR/generated.json" "$DIR/replayed.json" \
  || fail "journal replay does not reproduce the generated run"

# corrupt journal lines are rejected, counted, and degrade the run
# (exit 2); the --metrics snapshot re-parses as JSON
{ cat "$DIR/feed.journal"; printf 'garbage line\n9999 A not-a-prefix|65001\n'; } \
  > "$DIR/corrupt.journal"
rc=0
"$CLI" stream --seed 7 --window 48 --replay "$DIR/corrupt.journal" \
  --metrics "$DIR/metrics.json" > "$DIR/corrupt.txt" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || fail "corrupt replay exited $rc, want 2"
grep -q 'result: DEGRADED' "$DIR/corrupt.txt" || fail "corrupt replay not marked degraded"
grep -q '== windows ==' "$DIR/corrupt.txt" || fail "corrupt replay did not keep going"
"$JSON_CHECK" "$DIR/metrics.json" || fail "metrics JSON does not re-parse via Rz_json"
grep -Eq '"stream\.journal_rejected": *2\b' "$DIR/metrics.json" \
  || fail "stream.journal_rejected does not count the two corrupt lines"

echo "stream smoke: replay faithful, corruption contained"
