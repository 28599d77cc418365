#!/usr/bin/env bash
# End-to-end contract for the paper-scale path: gen --world-scale paper
# streams a world to disk, an unknown preset is rejected, verify reports
# the same accounting and hop-status table, and stats the same report,
# whether the IR comes from a fresh parse, a snapshot miss (parse +
# write) or a snapshot hit, and verify does not depend on RIB order.
set -eu
CLI="$1"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
fail() { echo "SCALE SMOKE TEST FAILED: $1" >&2; exit 1; }
# verify prints its wall time on stderr; keep it out of the test log
verify() { "$CLI" verify "$@" 2>> "$DIR/verify.err"; }

# a small paper-preset world, streamed one route at a time
"$CLI" gen --world-scale paper --scale 0.01 --seed 11 -o "$DIR/world" \
  > "$DIR/gen.txt" || fail "gen --world-scale paper failed"
grep -q 'streamed' "$DIR/gen.txt" || fail "gen did not report streaming"
ls "$DIR/world"/synth-rrc*.routes >/dev/null 2>&1 \
  || fail "no collector dumps written"

# an unknown preset is a usage error, not a silent fallback
rc=0
"$CLI" gen --world-scale warp9 -o "$DIR/bogus" >/dev/null 2>&1 || rc=$?
[ "$rc" -ne 0 ] || fail "unknown preset accepted"

# snapshot differential: no snapshot, then a miss (parse + write), then
# a hit (load) must all verify identically
SNAP="$DIR/world.snap"
verify -d "$DIR/world" > "$DIR/plain.txt" || fail "verify failed"
verify -d "$DIR/world" --snapshot "$SNAP" > "$DIR/miss.txt" \
  || fail "verify --snapshot (miss) failed"
[ -s "$SNAP" ] || fail "snapshot not written on a miss"
verify -d "$DIR/world" --snapshot "$SNAP" > "$DIR/hit.txt" \
  || fail "verify --snapshot (hit) failed"

# stdout carries no timing, so the three runs print the same bytes
grep -q '^verified' "$DIR/plain.txt" || fail "no accounting line in plain output"
grep -q '^== hop statuses ==' "$DIR/plain.txt" || fail "no hop-status table"
for f in miss hit; do
  cmp -s "$DIR/$f.txt" "$DIR/plain.txt" || fail "$f verify output differs"
done

# RIB order does not change the verdicts: a copy of the world with the
# route lines of every collector dump reversed (header kept) must print
# the same accounting, hop-status table and AS summary
cp -r "$DIR/world" "$DIR/reversed"
for f in "$DIR/reversed"/*.routes; do
  { grep '^#' "$f" || true; grep -v '^#' "$f" | tac; } > "$f.tmp"
  mv "$f.tmp" "$f"
  if cmp -s "$f" "$DIR/world/$(basename "$f")"; then fail "$(basename "$f") not reordered"; fi
done
verify -v -d "$DIR/world" > "$DIR/forward.txt" || fail "verify -v failed"
verify -v -d "$DIR/reversed" > "$DIR/reversed.txt" \
  || fail "verify -v on the reversed RIB failed"
grep -q '^ASes:' "$DIR/forward.txt" || fail "no AS summary in verify -v"
cmp -s "$DIR/reversed.txt" "$DIR/forward.txt" || fail "reversed RIB verify output differs"

# the same differential for stats, whose as-set line (loops, depth>=5)
# reads the set resolution walk; its output carries no timing
SNAP="$DIR/stats.snap"
"$CLI" stats -d "$DIR/world" > "$DIR/stats-plain.txt" || fail "stats failed"
grep -q '^== as-sets ==' "$DIR/stats-plain.txt" || fail "no as-set section in stats"
"$CLI" stats -d "$DIR/world" --snapshot "$SNAP" > "$DIR/stats-miss.txt" \
  || fail "stats --snapshot (miss) failed"
[ -s "$SNAP" ] || fail "stats snapshot not written on a miss"
"$CLI" stats -d "$DIR/world" --snapshot "$SNAP" > "$DIR/stats-hit.txt" \
  || fail "stats --snapshot (hit) failed"
for f in miss hit; do
  cmp -s "$DIR/stats-$f.txt" "$DIR/stats-plain.txt" || fail "stats $f output differs"
done

echo "scale smoke: OK"
