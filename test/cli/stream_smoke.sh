#!/usr/bin/env bash
# End-to-end contract for the stream subcommand: the anchor seed must
# reproduce the committed golden, compared whole (events are fed in
# order on one domain, so every field of the --json dump is
# deterministic), a perturbed world must be rejected with exit 1, a
# journal replay must reproduce the generated run, corrupt journal lines
# must degrade the run (exit 2, stream.journal_rejected lit) without
# crashing, and --metrics output must re-parse with the library's own
# JSON parser. Regenerate with:
#   rpslyzer stream --seed 7 --events 192 --window 48 --json \
#     > test/cli/stream_golden.json
set -eu
CLI="$1"
GOLDEN="$2"
JSON_CHECK="$3"
case "$JSON_CHECK" in /*|./*) ;; *) JSON_CHECK="./$JSON_CHECK" ;; esac
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
fail() { echo "STREAM SMOKE TEST FAILED: $1" >&2; exit 1; }

ANCHOR="--seed 7 --events 192 --window 48"

# the anchor seed reproduces the committed golden bit-for-bit
"$CLI" stream $ANCHOR --golden "$GOLDEN" > "$DIR/stream.txt" 2> "$DIR/stream.err" \
  || fail "golden mismatch on the anchor seed: $(cat "$DIR/stream.err")"
grep -q 'golden: MATCH' "$DIR/stream.txt" || fail "MATCH marker missing"
grep -q 'result: CLEAN' "$DIR/stream.txt" || fail "anchor run not clean"
grep -q '== windows ==' "$DIR/stream.txt" || fail "windowed aggregates missing"

# a perturbed feed (different seed) must be rejected with exit 1
rc=0
"$CLI" stream --seed 8 --events 192 --window 48 --golden "$GOLDEN" \
  >/dev/null 2> "$DIR/diff.txt" || rc=$?
[ "$rc" -eq 1 ] || fail "perturbed run exited $rc, want 1"
grep -q 'golden: MISMATCH' "$DIR/diff.txt" || fail "mismatch not reported"
grep -q 'windows' "$DIR/diff.txt" || fail "diff does not localize the moved cells"

# a journal round-trip reproduces the generated run exactly
"$CLI" stream $ANCHOR --journal-out "$DIR/feed.journal" >/dev/null
"$CLI" stream --seed 7 --window 48 --replay "$DIR/feed.journal" \
  --golden "$GOLDEN" > "$DIR/replay.txt" \
  || fail "journal replay does not reproduce the golden"
grep -q 'golden: MATCH' "$DIR/replay.txt" || fail "replay MATCH marker missing"

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

echo "stream smoke: golden anchored, replay faithful, corruption contained"
