#!/usr/bin/env bash
# The CI chaos drill: the labeling service under seeded disk-fault
# injection (DESIGN.md §17), with four gates.
#
#   1. Fail-stop, not fall-over: 64 concurrent labelers run while
#      CABLE_FAULTS injects I/O errors into journal appends and fsyncs.
#      Every 5xx the service answers must be a *declared* degraded 503
#      (body says `"degraded": true`, header says Retry-After) —
#      `cable-load --chaos` retries those and exits 3 on any naked 5xx,
#      any transport error, or any request that exhausted its retry
#      budget (a hung or wedged server shows up here, not as a CI
#      timeout). The drill also requires that faults actually fired and
#      that the store degraded and recovered at least once — a chaos
#      run where nothing broke proves nothing.
#   2. Event contract: the server's wide-event log (CHAOS_record.jsonl)
#      passes `reproduce check-events`, which validates the
#      fault_injected (site + hit ordinal) and store_degraded /
#      store_recovered (cause) schemas the timeline is rebuilt from.
#   3. Determinism under chaos: after the run, every labeler's acked
#      mutating ops are replayed sequentially through the CLI *without*
#      fault injection, and each replayed session digest must be
#      bit-identical to the digest the degraded-and-recovered server
#      reported. Injected faults may fail requests; they must never
#      corrupt state.
#   4. Fault-schedule reproducibility: a sequential run under the same
#      CABLE_FAULTS spec yields the exact same fired (site, hit)
#      timeline at CABLE_PAR=1 and CABLE_PAR=8 — lattice parallelism
#      must not perturb the fault plane.
#
# Usage: scripts/chaos_drill.sh [path/to/cable] [path/to/cable-load] [path/to/reproduce]
set -euo pipefail

CABLE=${1:-target/release/cable}
LOAD=${2:-target/release/cable-load}
REPRODUCE=${3:-target/release/reproduce}
LABELERS=${LABELERS:-64}
REQUESTS=${REQUESTS:-16}
# Seeded probabilistic rules: every journal append has a 2% chance of an
# injected ENOSPC/EIO, every fsync a 1% chance — sustained chaos for the
# whole run, reproducible from the seed.
FAULTS=${FAULTS:-20260808:io@store.journal.append=0.02,io@store.fsync=0.01}
# shellcheck source=scripts/lib.sh
source "$(dirname "$0")/lib.sh"

serve_chaos() { # $1 store-root, $2 events file; extra env via leading VAR=... on the call
  CABLE_OBS=1 CABLE_FAULTS="$FAULTS" start_server "$work/announce" \
    "$CABLE" serve --obs-listen 0 --api \
    --store-root "$1" --max-open-sessions 16 --events-out "$2"
}

count_kind() { # $1 events file, $2 kind
  grep -c "\"kind\":\"$2\"" "$1" || true
}

echo "== start the labeling service under fault injection ($FAULTS)"
serve_chaos "$work/tenants" CHAOS_record.jsonl
echo "service bound $addr"

echo "== gate 1a: $LABELERS chaos labelers, every 5xx must be declared"
"$LOAD" --addr "$addr" --labelers "$LABELERS" --requests "$REQUESTS" \
  --seed 20260808 --verify-dir "$work/verify" --json-out CHAOS_load.json \
  --max-5xx 0 --chaos

echo "== gate 1b: the fleet ends healthy — no store left read-only"
"$LOAD" --addr "$addr" --fetch /healthz --out "$work/healthz.json"
grep -q '"degraded_now":0' "$work/healthz.json" || {
  echo "healthz reports stores still degraded after the run:"
  cat "$work/healthz.json"
  exit 1
}

stop_server

echo "== gate 1c: chaos actually happened (faults fired, stores degraded and recovered)"
fired=$(count_kind CHAOS_record.jsonl fault_injected)
degraded=$(count_kind CHAOS_record.jsonl store_degraded)
recovered=$(count_kind CHAOS_record.jsonl store_recovered)
absorbed=$(sed -n 's/.*"degraded_503":\([0-9]*\).*/\1/p' CHAOS_load.json | head -1)
echo "fault timeline: $fired injected, $degraded degradations, $recovered recoveries, ${absorbed:-0} declared 503s absorbed"
[ "$fired" -ge 1 ] || { echo "no faults fired — the drill proved nothing"; exit 1; }
[ "$degraded" -ge 1 ] || { echo "faults fired but no store degraded"; exit 1; }
[ "$recovered" -ge 1 ] || { echo "stores degraded but never recovered"; exit 1; }
[ "${absorbed:-0}" -ge 1 ] || { echo "no declared degraded 503 reached a labeler"; exit 1; }
grep -e '"kind":"fault_injected"' -e '"kind":"store_degraded"' -e '"kind":"store_recovered"' \
  CHAOS_record.jsonl > CHAOS_degraded_timeline.jsonl

echo "== gate 2: the wide-event log honours the chaos event contracts"
"$REPRODUCE" check-events CHAOS_record.jsonl

echo "== gate 3: fault-free sequential replay reproduces every session digest"
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
  # The generation counts snapshot republishes — every recovery bumps
  # it, so the chaos server's is legitimately ahead of a fault-free
  # replay's. Everything else (corpus, lattice, labels) must be
  # bit-identical.
  sed 's/"generation":[0-9]*,//' "$dir/digest.jsonl" > "$work/replay/$name.server.jsonl"
  sed 's/"generation":[0-9]*,//' "$work/replay/$name.jsonl" > "$work/replay/$name.replayed.jsonl"
  "$REPRODUCE" diff "$work/replay/$name.server.jsonl" "$work/replay/$name.replayed.jsonl" > /dev/null || {
    echo "$name: replayed digest diverged from the server's"
    "$REPRODUCE" diff "$work/replay/$name.server.jsonl" "$work/replay/$name.replayed.jsonl" || true
    exit 1
  }
  replayed=$((replayed + 1))
done
[ "$replayed" = "$LABELERS" ] || {
  echo "replayed $replayed sessions, expected $LABELERS"; exit 1
}
echo "replayed $replayed sessions, all digests identical"

echo "== gate 4: the fault timeline is identical at CABLE_PAR=1 and CABLE_PAR=8"
FAULTS="777:io@store.journal.append=0.05,io@store.fsync=0.03"
for par in 1 8; do
  CABLE_PAR=$par serve_chaos "$work/par$par/tenants" "$work/par$par-events.jsonl"
  "$LOAD" --addr "$addr" --labelers 1 --requests 24 --seed 777 \
    --tenant-prefix "par" --chaos --max-5xx 0 > /dev/null
  stop_server
  sed -n 's/.*"kind":"fault_injected".*/&/p' "$work/par$par-events.jsonl" |
    sed 's/.*"hit":\([0-9]*\).*"site":"\([^"]*\)".*/\2 \1/' |
    sort > "$work/timeline-par$par.txt"
  [ -s "$work/timeline-par$par.txt" ] || {
    echo "CABLE_PAR=$par: no faults fired in the determinism phase"; exit 1
  }
done
diff -u "$work/timeline-par1.txt" "$work/timeline-par8.txt" || {
  echo "fault timeline differs between CABLE_PAR=1 and CABLE_PAR=8"; exit 1
}
echo "fault timeline identical across CABLE_PAR=1/8 ($(wc -l < "$work/timeline-par1.txt") fired hits)"

echo "chaos drill: PASS"
