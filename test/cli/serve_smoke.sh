#!/usr/bin/env bash
# End-to-end contract for the serve subcommand: a server on an ephemeral
# Unix socket answers scripted client queries against a generated world,
# a !u control query applies the generated NRTM journal as a live
# copy-on-write generation swap (visible in the very next answer), the
# !s scrape reports the live generation, serial and query count, the
# structured access log records every query with the generation it ran
# against, a SIGTERM shutdown is clean (exit 0, "stopped at generation"
# line), and the --metrics snapshot re-parses with the library's own
# JSON parser and carries the serve.* session/query counters, the
# per-query latency histogram, and the swap-cost histogram. The !s
# exposition and the server's --prom-file must strict-parse under
# prom_check.
set -eu
CLI="$1"
JSON_CHECK="$2"
PROM_CHECK="$3"
case "$JSON_CHECK" in /*|./*) ;; *) JSON_CHECK="./$JSON_CHECK" ;; esac
case "$PROM_CHECK" in /*|./*) ;; *) PROM_CHECK="./$PROM_CHECK" ;; esac
DIR=$(mktemp -d)
SERVER=
cleanup() {
  [ -n "$SERVER" ] && kill "$SERVER" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT
fail() { echo "SERVE SMOKE TEST FAILED: $1" >&2; exit 1; }

# a small world plus a 24-op churn journal against its dumps
"$CLI" gen -o "$DIR/world" --seed 11 --tier1 3 --mid 10 --stub 30 \
  --journal-ops 24 --journal-out "$DIR/journal.nrtm" > /dev/null \
  || fail "gen failed"
[ -s "$DIR/journal.nrtm" ] || fail "journal not written"

SOCK="$DIR/irrd.sock"
"$CLI" serve -d "$DIR/world" --socket "$SOCK" --workers 2 \
  --journal "$DIR/journal.nrtm" --journal-batch 1000 \
  --access-log "$DIR/access.jsonl" \
  --metrics "$DIR/metrics.json" --prom-file "$DIR/serve.prom" \
  > "$DIR/server.log" 2>&1 &
SERVER=$!

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || fail "server socket never appeared: $(cat "$DIR/server.log")"
grep -q 'listening on' "$DIR/server.log" || fail "no listening line"

# generation 1: the journal's fresh 198.18/15 route does not exist yet
"$CLI" serve --connect "$SOCK" '!r198.18.0.0/24' > "$DIR/q1.txt" \
  || fail "client query failed"
grep -q '^D$' "$DIR/q1.txt" || fail "fresh route visible before the swap"

# !u applies the whole journal as one live generation swap
"$CLI" serve --connect "$SOCK" '!u' > "$DIR/swap.txt" || fail "!u failed"
grep -q 'generation 2: applied 24 ops' "$DIR/swap.txt" \
  || fail "swap not applied: $(cat "$DIR/swap.txt")"

# the same query now answers from generation 2
"$CLI" serve --connect "$SOCK" '!r198.18.0.0/24' > "$DIR/q2.txt" \
  || fail "post-swap query failed"
grep -q '198.18.0.0/24' "$DIR/q2.txt" || fail "journal route not served after swap"
grep -q '^D$' "$DIR/q2.txt" && fail "post-swap query still not-found"

# a drained journal acks !u with C (no data)
"$CLI" serve --connect "$SOCK" '!u' > "$DIR/drained.txt" || fail "drained !u failed"
grep -q '^C$' "$DIR/drained.txt" || fail "drained journal should answer C"

# !s scrape: live telemetry rides the normal query path and reports the
# post-swap generation; the exposition strict-parses under prom_check
"$CLI" serve --connect "$SOCK" '!s' > "$DIR/scrape.txt" || fail "!s failed"
sed -e '1d' -e '$d' "$DIR/scrape.txt" > "$DIR/scrape.prom"
"$PROM_CHECK" \
  --require serve_generation \
  --require serve_serial \
  --require serve_queries_total \
  --require serve_query_ns_count \
  "$DIR/scrape.prom" || fail "!s exposition invalid"
grep -q '^serve_generation 2$' "$DIR/scrape.prom" \
  || fail "!s does not report the post-swap generation"
grep -q '^serve_serial 24$' "$DIR/scrape.prom" \
  || fail "!s does not report the post-swap serial"
grep -q '_window_' "$DIR/scrape.prom" \
  && fail "!s carries rolling-window series"
grep -q 'generation_fingerprint' "$DIR/scrape.prom" \
  && fail "!s carries a generation fingerprint"

# clean SIGTERM shutdown: exit 0, final generation line, metrics written
kill -TERM "$SERVER"
rc=0
wait "$SERVER" || rc=$?
SERVER=
[ "$rc" -eq 0 ] || fail "server exited $rc, want 0: $(cat "$DIR/server.log")"
grep -q 'stopped at generation 2 (serial 24)' "$DIR/server.log" \
  || fail "no clean stop line: $(cat "$DIR/server.log")"

"$JSON_CHECK" "$DIR/metrics.json" || fail "metrics JSON does not re-parse via Rz_json"
grep -Eq '"serve\.sessions_total": *[1-9]' "$DIR/metrics.json" \
  || fail "no sessions counted"
grep -Eq '"serve\.queries_total": *[1-9]' "$DIR/metrics.json" \
  || fail "no queries counted"
grep -Eq '"serve\.generations": *1' "$DIR/metrics.json" \
  || fail "generation swap not counted"
grep -Eq '"nrtm\.ops_applied": *24' "$DIR/metrics.json" \
  || fail "journal ops not accounted"
grep -Eq '"serve\.queries_rejected": *0' "$DIR/metrics.json" \
  || fail "clean run tripped the query guards"
grep -Eq '"serve\.query_ns": *\{"count": *[1-9]' "$DIR/metrics.json" \
  || fail "per-query latency histogram missing"
grep -Eq '"serve\.swap_ns": *\{"count": *1' "$DIR/metrics.json" \
  || fail "swap-cost histogram missing"

# the server's own --prom-file exposition (written at shutdown)
[ -s "$DIR/serve.prom" ] || fail "server wrote no --prom-file exposition"
"$PROM_CHECK" \
  --require serve_queries_total \
  --require serve_query_ns_count \
  --require serve_generations \
  "$DIR/serve.prom" || fail "server --prom-file exposition invalid"

# structured access log: one JSON record per query, each valid JSON,
# carrying the generation the query actually ran against
[ -s "$DIR/access.jsonl" ] || fail "access log empty"
while IFS= read -r line; do
  printf '%s' "$line" > "$DIR/one.json"
  "$JSON_CHECK" "$DIR/one.json" || fail "access-log record is not valid JSON: $line"
done < "$DIR/access.jsonl"
grep -q '"query":"!u"' "$DIR/access.jsonl" || fail "access log missing the !u record"
grep -q '"query":"!s"' "$DIR/access.jsonl" || fail "access log missing the !s record"
grep -q '"generation":1' "$DIR/access.jsonl" \
  || fail "access log has no generation-1 record"
grep -q '"generation":2' "$DIR/access.jsonl" \
  || fail "access log has no generation-2 record"
grep -q '"class":' "$DIR/access.jsonl" || fail "access log records carry no class"
grep -q '"latency_ns":' "$DIR/access.jsonl" || fail "access log records carry no latency"
grep -q '"rejected"' "$DIR/access.jsonl" \
  && fail "clean run logged a rejected query"

echo "serve smoke: live swap + !s telemetry + access log, shutdown clean"
