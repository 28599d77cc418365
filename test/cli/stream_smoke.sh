#!/usr/bin/env bash
# End-to-end contract for the stream subcommand: the anchor seed must
# reproduce the committed golden, compared whole (events are fed in
# order on one domain, so every field of the --json dump is
# deterministic), a perturbed world must be rejected with exit 1, a journal replay must reproduce the
# generated run, corrupt journal lines and chaos drills must degrade
# (exit 2, recovery counters lit) without crashing, and --metrics output
# must re-parse with the library's own JSON parser. Regenerate with:
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

# corrupt journal lines are rejected, counted, and degrade the run (exit 2)
{ cat "$DIR/feed.journal"; printf 'garbage line\n9999 A not-a-prefix|65001\n'; } \
  > "$DIR/corrupt.journal"
rc=0
"$CLI" stream --seed 7 --window 48 --replay "$DIR/corrupt.journal" \
  > "$DIR/corrupt.txt" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || fail "corrupt replay exited $rc, want 2"
grep -q 'result: DEGRADED' "$DIR/corrupt.txt" || fail "corrupt replay not marked degraded"

# chaos drill: keeps going, exits 2, and the stream.* recovery counters
# in the --metrics snapshot are nonzero and re-parse as JSON
rc=0
"$CLI" stream $ANCHOR --chaos 0.5 --chaos-seed 3 --metrics "$DIR/metrics.json" \
  > "$DIR/chaos.txt" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || fail "chaos run exited $rc, want 2"
grep -q 'result: DEGRADED' "$DIR/chaos.txt" || fail "chaos run not marked degraded"
grep -q '== windows ==' "$DIR/chaos.txt" || fail "chaos run did not keep going"
"$JSON_CHECK" "$DIR/metrics.json" || fail "metrics JSON does not re-parse via Rz_json"
grep -Eq '"stream\.retries": *[1-9]' "$DIR/metrics.json" \
  || fail "chaos fired no stream.retries"
grep -Eq '"stream\.(events_abandoned|retries)": *[1-9]' "$DIR/metrics.json" \
  || fail "no nonzero stream.* recovery counter"

# full chaos: every event abandoned, still no crash, still exit 2
rc=0
"$CLI" stream --seed 7 --events 64 --chaos 1.0 --json > "$DIR/full.json" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || fail "chaos 1.0 exited $rc, want 2"
"$JSON_CHECK" "$DIR/full.json" || fail "chaos 1.0 JSON does not re-parse"
grep -q '"abandoned": 64' "$DIR/full.json" || fail "chaos 1.0 did not abandon everything"
grep -q '"rib": 0' "$DIR/full.json" || fail "abandoned events leaked into the RIB"

echo "stream smoke: golden anchored, replay faithful, corruption and chaos contained"
