#!/usr/bin/env bash
# The CI service drill: 64 concurrent labelers against the labeling
# API, with three gates.
#
#   1. Service health: the run must finish with zero 5xx responses and
#      zero transport errors (`cable-load` exits 3 otherwise), and the
#      observed p99 request latency must fit the committed budget
#      (`reproduce slo-check` against SLO_load_budgets.json).
#   2. Determinism: every labeler's mutating ops — logged in order by
#      `cable-load --verify-dir` — are replayed *sequentially* through
#      the CLI into a fresh store, and the replayed session digest must
#      be bit-identical to the digest the server reported for that
#      tenant's session. Concurrency, queueing, 429 retries, and LRU
#      eviction may reorder *work*, but never change *state*.
#   3. Tracing: the server runs with causal request tracing on
#      (CABLE_OBS=1, seeded trace ids, keep every span tree) and the
#      drill pulls /tracez/export before shutdown. `reproduce
#      check-trace` gates span-tree well-formedness (closed spans,
#      acyclic parents, every span reachable from its request root) and
#      `reproduce trace-report --min-coverage 95` gates attribution:
#      the named stages (queue / lock-wait / fsync / serialization /
#      lattice / handler) must explain at least 95% of the p99
#      request's wall time. The TRACE_attribution.json record it
#      writes is the CI artifact ROADMAP item 1 is decided on.
#
# The server runs with --max-open-sessions 16 against 64 tenants, so
# roughly three quarters of all requests hit an evicted session and
# force a reopen-from-journal — the drill exercises the eviction path,
# not just the cache-hit path.
#
# Usage: scripts/service_drill.sh [path/to/cable] [path/to/cable-load] [path/to/reproduce]
set -euo pipefail

CABLE=${1:-target/release/cable}
LOAD=${2:-target/release/cable-load}
REPRODUCE=${3:-target/release/reproduce}
LABELERS=${LABELERS:-64}
REQUESTS=${REQUESTS:-16}
# shellcheck source=scripts/lib.sh
source "$(dirname "$0")/lib.sh"

echo "== start the labeling service (port 0, 16 resident sessions, tracing on)"
CABLE_OBS=1 start_server "$work/announce" \
  "$CABLE" serve --obs-listen 0 --api --store-root "$work/tenants" \
  --max-open-sessions 16 --trace-seed 20260808 --trace-slow-us 0
echo "service bound $addr"

echo "== gate 1a: $LABELERS concurrent labelers, zero 5xx allowed"
"$LOAD" --addr "$addr" --labelers "$LABELERS" --requests "$REQUESTS" \
  --seed 20260808 --verify-dir "$work/verify" --json-out LOAD_record.json \
  --max-5xx 0

echo "== pull the span-tree export before shutdown"
"$LOAD" --addr "$addr" --fetch /tracez/export --out TRACE_export.json

stop_server

echo "== gate 1b: p99 latency within the committed budget"
"$REPRODUCE" slo-check --records LOAD_record.json --budgets SLO_load_budgets.json

echo "== gate 3a: every kept span tree is well-formed"
"$REPRODUCE" check-trace TRACE_export.json

echo "== gate 3b: named stages explain >=95% of the p99 request"
"$REPRODUCE" trace-report --export TRACE_export.json \
  --min-coverage 95 --json-out TRACE_attribution.json

echo "== gate 2: sequential CLI replay reproduces every session digest"
replayed=0
for dir in "$work"/verify/labeler-*; do
  name=$(basename "$dir")
  store="$work/replay/$name"
  [ -f "$dir/digest.jsonl" ] || { echo "$name: no server digest logged"; exit 1; }
  for step in "$dir"/step-*; do
    case "$step" in
      *open.traces)
        "$CABLE" session open --traces "$step" --store "$store" > /dev/null
        ;;
      *ingest.traces)
        "$CABLE" session ingest --store "$store" --traces "$step" > /dev/null
        ;;
      *label.script)
        # Exit 3 just means some traces are still unlabeled — fine
        # mid-script; any other failure is fatal.
        "$CABLE" label --store "$store" --script "$step" > /dev/null 2>&1 || {
          code=$?
          [ "$code" = "3" ] || { echo "$name: label replay failed ($code)"; exit 1; }
        }
        ;;
      *)
        echo "$name: unexpected step file $step"; exit 1
        ;;
    esac
  done
  "$CABLE" session resume --store "$store" \
    --json-out "$work/replay/$name.jsonl" > /dev/null 2> /dev/null
  "$REPRODUCE" diff "$dir/digest.jsonl" "$work/replay/$name.jsonl" > /dev/null || {
    echo "$name: replayed digest diverged from the server's"
    "$REPRODUCE" diff "$dir/digest.jsonl" "$work/replay/$name.jsonl" || true
    exit 1
  }
  replayed=$((replayed + 1))
done
[ "$replayed" = "$LABELERS" ] || {
  echo "replayed $replayed sessions, expected $LABELERS"; exit 1
}
echo "replayed $replayed sessions, all digests identical"

echo "service drill: PASS"
