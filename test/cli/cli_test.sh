#!/usr/bin/env bash
# Integration smoke of every CLI subcommand against a generated world.
# What a report prints is pinned byte for byte by test/golden; this
# script checks what the goldens cannot: exit codes, files written,
# flags that must not change the output, and JSON that must re-parse.
set -eu
CLI="$1"
JSON_CHECK="${2:-}"
# dune hands us a path relative to the sandbox cwd; make it invocable
case "$JSON_CHECK" in ""|/*|./*) ;; *) JSON_CHECK="./$JSON_CHECK" ;; esac
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

fail() { echo "CLI TEST FAILED: $1" >&2; exit 1; }
expect() { # expect <label> <pattern> <file>
  grep -q "$2" "$3" || fail "$1"
}

# the subcommands, exactly
"$CLI" --help=plain | awk '/^COMMANDS/ { f = 1; next } /^[A-Z]/ { f = 0 }
  f && /^       [a-z]/ { print $1 }' > "$DIR/commands.txt"
[ "$(tr '\n' ' ' < "$DIR/commands.txt")" = "classify diff explain faultinject gen lint parse peval query rpki serve stats stream verify " ] \
  || fail "subcommands: $(tr '\n' ' ' < "$DIR/commands.txt")"

"$CLI" gen --seed 5 --tier1 3 --mid 15 --stub 40 -o "$DIR/world" > "$DIR/gen.txt"
expect gen 'wrote 13 IRR dumps' "$DIR/gen.txt"
test -f "$DIR/world/RIPE.db" || fail "RIPE dump missing"
test -f "$DIR/world/as-rel.txt" || fail "as-rel missing"

# verify prints its wall time on stderr
"$CLI" verify -d "$DIR/world" -v > "$DIR/verify.txt" 2> "$DIR/verify.err"
expect verify-timing '^verify: [0-9.]*s (' "$DIR/verify.err"

"$CLI" parse -d "$DIR/world" -o "$DIR/ir.json" > "$DIR/parse.txt"
expect parse 'wrote IR' "$DIR/parse.txt"
expect json '"aut_nums"' "$DIR/ir.json"

"$CLI" query -d "$DIR/world" AS1000 > "$DIR/plain_aut_num.txt"

"$CLI" peval -d "$DIR/world" 'AS1000' -A > "$DIR/peval.txt" || [ $? -eq 2 ] || fail "peval"

# query and peval read only the registry: a directory holding just the
# .db dumps answers them as the whole world does
mkdir "$DIR/dumps_only"
cp "$DIR"/world/*.db "$DIR/dumps_only/"
"$CLI" query -d "$DIR/dumps_only" AS1000 > "$DIR/dumps_query.txt" \
  || fail "query of a dumps-only directory"
cmp -s "$DIR/plain_aut_num.txt" "$DIR/dumps_query.txt" || fail "dumps-only query differs"
"$CLI" peval -d "$DIR/dumps_only" 'AS1000' -A > "$DIR/dumps_peval.txt" || [ $? -eq 2 ] \
  || fail "peval of a dumps-only directory"
cmp -s "$DIR/peval.txt" "$DIR/dumps_peval.txt" || fail "dumps-only peval differs"

# --metrics: `-` appends a JSON snapshot as the last stdout line; a path
# writes the same document to that file. Without the flag nothing changes
# (the earlier verify run above already exercised that: exit 0, no JSON).
"$CLI" verify -d "$DIR/world" --metrics - > "$DIR/verify_metrics.txt" 2>/dev/null
tail -n 1 "$DIR/verify_metrics.txt" > "$DIR/metrics_stdout.json"
expect metrics-counters '"verify.hops_total"' "$DIR/metrics_stdout.json"
expect metrics-spans '"db-build"' "$DIR/metrics_stdout.json"
if grep -q '"counters"' "$DIR/verify.txt"; then fail "metrics JSON leaked without --metrics"; fi

"$CLI" verify -d "$DIR/world" --metrics "$DIR/metrics_file.json" > "$DIR/verify2.txt" \
  2>/dev/null
expect metrics-file '"spans"' "$DIR/metrics_file.json"
# verify output itself must be unchanged by the flag
expect metrics-verify-intact 'hop statuses' "$DIR/verify2.txt"

if [ -n "$JSON_CHECK" ]; then
  "$JSON_CHECK" "$DIR/metrics_stdout.json" || fail "stdout metrics JSON does not re-parse via Rz_json"
  "$JSON_CHECK" "$DIR/metrics_file.json" || fail "file metrics JSON does not re-parse via Rz_json"
fi
# the --metrics snapshot leads with the run-metadata header
expect metrics-meta '"meta"' "$DIR/metrics_file.json"
expect metrics-meta-cmd '"subcommand":"verify"' "$DIR/metrics_file.json"

# --trace + --metrics-stream around a verify run: Chrome trace-event
# export (spans as "X", hop records as "i") and JSONL metric streaming.
"$CLI" verify -d "$DIR/world" -v --trace "$DIR/trace.json" --trace-sample all \
  --metrics-stream "$DIR/stream.jsonl" --metrics-interval 1 > "$DIR/verify3.txt" 2>/dev/null
# Trace sampling decides only which hops emit a record, never how a hop
# is evaluated: this traced run prints what the untraced run printed.
cmp -s "$DIR/verify.txt" "$DIR/verify3.txt" \
  || fail "trace sampling perturbed the verify verdicts"
expect trace-span '"ph":"X"' "$DIR/trace.json"
expect trace-hop '"ph":"i"' "$DIR/trace.json"
test -s "$DIR/stream.jsonl" || fail "metrics stream empty"
expect stream-metrics '"metrics"' "$DIR/stream.jsonl"
head -n 1 "$DIR/stream.jsonl" > "$DIR/stream_line.json"

# explain --json: per-hop verdicts with full provenance records
"$CLI" explain -d "$DIR/world" --json 20.0.90.0/24 1112 1042 1056 1259 > "$DIR/explain.json"

if [ -n "$JSON_CHECK" ]; then
  "$JSON_CHECK" --chrome "$DIR/trace.json" || fail "trace file is not a well-formed Chrome trace"
  "$JSON_CHECK" "$DIR/explain.json" || fail "explain --json does not re-parse via Rz_json"
  "$JSON_CHECK" "$DIR/stream_line.json" || fail "metrics stream line does not re-parse"
fi

# rpki: RFC 6811 origin validation cross-validated against the RPSL
# verdicts, over the ROAs gen wrote next to the dumps
test -f "$DIR/world/roas.csv" || fail "roas.csv missing"
expect gen-roas 'ROAs' "$DIR/gen.txt"
"$CLI" rpki -d "$DIR/world" > "$DIR/rpki.txt"
expect rpki-matrix 'RPSL verdict x RPKI' "$DIR/rpki.txt"
expect rpki-agreement 'agreement:' "$DIR/rpki.txt"
expect rpki-loaded 'ROAs: .* loaded' "$DIR/rpki.txt"

"$CLI" rpki -d "$DIR/world" --json > "$DIR/rpki.json"

"$CLI" rpki -d "$DIR/world" --metrics "$DIR/rpki_metrics.json" > /dev/null
expect rpki-metrics-rov '"rpki.rov_total"' "$DIR/rpki_metrics.json"
expect rpki-metrics-cross '"rpki.cross.routes_total"' "$DIR/rpki_metrics.json"

if [ -n "$JSON_CHECK" ]; then
  "$JSON_CHECK" "$DIR/rpki.json" || fail "rpki --json does not re-parse via Rz_json"
  "$JSON_CHECK" "$DIR/rpki_metrics.json" || fail "rpki metrics JSON does not re-parse"
fi

"$CLI" gen --seed 6 --tier1 3 --mid 15 --stub 40 -o "$DIR/world2" >/dev/null
"$CLI" diff "$DIR/world" "$DIR/world2" > "$DIR/diff.txt"
expect diff 'aut-nums:' "$DIR/diff.txt"

echo "cli smoke: all subcommands ok"
