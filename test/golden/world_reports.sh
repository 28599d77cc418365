#!/usr/bin/env bash
# Writes the CLI reports that test/golden pins into OUT, generating each
# world once:
#   the smoke world (gen --seed 5 --tier1 3 --mid 15 --stub 40):
#     stats.out, lint.out, classify.out, verify.out (verify -v),
#     rpki_json.out (rpki --json), explain.out and explain_json.out
#     (four fixed routes, text and --json), query.out (one query session);
#   a paper-preset world (gen --world-scale paper --scale 0.01 --seed 11):
#     stats_paper.out, verify_paper.out (verify -v).
# Every report is deterministic. verify prints its wall time on stderr,
# which is shown only when it fails; lint exits 1 on the smoke world
# because it reports errors.
set -eu
CLI="$1"
OUT="$2"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
W="$DIR/smoke"
P="$DIR/paper"
verify() { "$CLI" verify -v -d "$1" 2> "$DIR/verify.err" || { cat "$DIR/verify.err" >&2; return 1; }; }

"$CLI" gen --seed 5 --tier1 3 --mid 15 --stub 40 -o "$W" > /dev/null
"$CLI" stats -d "$W" > "$OUT/stats.out"
status=0
"$CLI" lint -d "$W" > "$OUT/lint.out" || status=$?
[ "$status" -eq 1 ] || { echo "lint exited $status, expected 1" >&2; exit 1; }
"$CLI" classify -d "$W" > "$OUT/classify.out"
verify "$W" > "$OUT/verify.out"
"$CLI" rpki -d "$W" --json > "$OUT/rpki_json.out"

# an all-Verified route; one with Bad and Unrec hops; one with Meh, Skip,
# Unrec and Ok hops; an IPv6 route over a Tier-1 pair. Every non-Verified
# hop carries its diagnostic items, which verify's verdict mode never
# builds.
: > "$OUT/explain.out"
: > "$OUT/explain_json.out"
for route in "20.0.0.0/24 1014 1000" "20.0.0.0/24 1077 1021 1007 1000" \
  "20.0.90.0/24 1112 1042 1056 1259" "2a00::/48 1014 1007 1007 1007"; do
  "$CLI" explain -d "$W" $route >> "$OUT/explain.out"
  "$CLI" explain -d "$W" --json $route >> "$OUT/explain_json.out"
done

# plain whois lookups and IRRd queries: an aut-num, an as-set and its
# flattened members, a registered route prefix, an origin's prefixes,
# and a miss
"$CLI" query -d "$W" AS1000 AS1042:AS-CUST '!iAS1042:AS-CUST,1' 20.0.90.0/24 \
  '!gAS1000' '!iAS-NOWHERE' > "$OUT/query.out"

"$CLI" gen --world-scale paper --scale 0.01 --seed 11 -o "$P" > /dev/null
"$CLI" stats -d "$P" > "$OUT/stats_paper.out"
verify "$P" > "$OUT/verify_paper.out"
