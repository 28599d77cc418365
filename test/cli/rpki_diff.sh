#!/usr/bin/env bash
# Hostile ROA input for the RPKI cross-validation scenario: a corrupted
# ROA file must keep the run going (the matrix is still printed) and exit
# 2, per the faultinject degraded contract. The clean run's agreement
# matrix is pinned byte for byte by test/golden (rpki_json.expected).
set -eu
CLI="$1"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
fail() { echo "RPKI DIFF TEST FAILED: $1" >&2; exit 1; }

"$CLI" gen --seed 5 --tier1 3 --mid 15 --stub 40 -o "$DIR/world" >/dev/null

rc=0
"$CLI" rpki -d "$DIR/world" --fault-rate 0.8 > "$DIR/faulted.txt" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || fail "faulted run exited $rc, want 2"
grep -q 'agreement:' "$DIR/faulted.txt" || fail "faulted run did not keep going"

echo "rpki diff: degradation contained"
