#!/usr/bin/env bash
# Chaos smoke: the faultinject harness at a fixed seed must complete the
# whole pipeline on corrupted input (exit 2 = degraded-but-alive, every
# recovery counter nonzero), and at rate 0 must report a clean run
# (exit 0, every recovery counter zero). The script itself exits 0 when
# the contract holds.
set -u
CLI="$1"
JSON_CHECK="${2:-}"
case "$JSON_CHECK" in ""|/*|./*) ;; *) JSON_CHECK="./$JSON_CHECK" ;; esac
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

fail() { echo "CHAOS SMOKE FAILED: $1" >&2; exit 1; }

counter() { # counter <name> <metrics-file> -> value (0 when absent)
  sed -n "s/.*\"$1\"[^0-9-]*\([0-9][0-9]*\).*/\1/p" "$2" | head -n1
}

RECOVERY="fault.injected reader.lines_dropped flatten.truncated nfa.capped"

# --- corrupted run: fixed seed, 10% object corruption ---
"$CLI" faultinject --seed 7 --rate 0.10 --metrics "$DIR/chaos.json" \
  > "$DIR/chaos.txt" 2>&1
status=$?
[ "$status" -eq 2 ] || fail "corrupted run: expected exit 2, got $status"
[ -s "$DIR/chaos.txt" ] || fail "corrupted run: empty report"
grep -q 'faults injected' "$DIR/chaos.txt" || fail "report missing fault summary"
grep -q 'DEGRADED' "$DIR/chaos.txt" || fail "report missing DEGRADED verdict"
if [ -n "$JSON_CHECK" ]; then
  "$JSON_CHECK" "$DIR/chaos.json" || fail "metrics JSON malformed"
fi
for name in $RECOVERY; do
  v=$(counter "$name" "$DIR/chaos.json")
  [ -n "$v" ] && [ "$v" -gt 0 ] || fail "corrupted run: counter $name not positive (got '${v:-absent}')"
done

# --- clean run: rate 0 must be a no-op ---
"$CLI" faultinject --seed 7 --rate 0 --metrics "$DIR/clean.json" \
  > "$DIR/clean.txt" 2>&1
status=$?
[ "$status" -eq 0 ] || fail "clean run: expected exit 0, got $status"
grep -q 'CLEAN' "$DIR/clean.txt" || fail "clean run missing CLEAN verdict"
for name in $RECOVERY; do
  v=$(counter "$name" "$DIR/clean.json")
  [ -z "$v" ] || [ "$v" -eq 0 ] || fail "clean run: counter $name nonzero ($v)"
done

echo "chaos smoke OK"
