#!/usr/bin/env bash
# --prom-file contract: the Prometheus text exposition every subcommand
# can emit must validate under the library's strict parser (prom_check),
# for both a clean verify run and a stream replay of a journal with a
# malformed line, and must carry the samples the run is known to produce
# (verify latency buckets, stream rejection accounting, the meta
# comments).
set -eu
CLI="$1"
PROM_CHECK="$2"
case "$PROM_CHECK" in /*|./*) ;; *) PROM_CHECK="./$PROM_CHECK" ;; esac
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

fail() { echo "PROM SMOKE FAILED: $1" >&2; exit 1; }

"$CLI" gen --seed 5 --tier1 3 --mid 10 --stub 30 -o "$DIR/world" > /dev/null \
  || fail "gen failed"

# --- verify: clean run, full pipeline counters + latency histograms ---
"$CLI" verify -d "$DIR/world" --prom-file "$DIR/verify.prom" > /dev/null 2>&1 \
  || fail "verify failed"
[ -s "$DIR/verify.prom" ] || fail "verify wrote no exposition"
"$PROM_CHECK" \
  --require verify_routes_total \
  --require verify_route_ns_count \
  --require verify_route_ns_sum \
  --require verify_hops_total \
  "$DIR/verify.prom" || fail "verify exposition invalid"
grep -q '^# meta ' "$DIR/verify.prom" || fail "verify exposition lost meta comments"
grep -q '_bucket{le="+Inf"}' "$DIR/verify.prom" \
  || fail "verify exposition has no +Inf buckets"

# --- stream --replay of a corrupt journal: degraded-but-alive run still
# exposes cleanly ---
"$CLI" stream -d "$DIR/world" --events 64 --journal-out "$DIR/feed.journal" \
  > /dev/null || fail "stream --journal-out failed"
{ cat "$DIR/feed.journal"; printf 'garbage line\n'; } > "$DIR/corrupt.journal"
status=0
"$CLI" stream -d "$DIR/world" --replay "$DIR/corrupt.journal" \
  --prom-file "$DIR/stream.prom" > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || fail "stream --replay exited $status, want 2"
[ -s "$DIR/stream.prom" ] || fail "stream wrote no exposition"
"$PROM_CHECK" \
  --require stream_journal_rejected \
  --require stream_event_ns_count \
  "$DIR/stream.prom" || fail "stream exposition invalid"

# --- the validator itself must reject garbage ---
printf 'serve qps 1\n' > "$DIR/bad.prom"
if "$PROM_CHECK" "$DIR/bad.prom" 2>/dev/null; then
  fail "prom_check accepted a malformed exposition"
fi
printf 'no_type_decl 3\n' > "$DIR/bad2.prom"
if "$PROM_CHECK" "$DIR/bad2.prom" 2>/dev/null; then
  fail "prom_check accepted a sample without a TYPE declaration"
fi

echo "prom smoke: verify + corrupt-replay stream expositions strict-parse"
