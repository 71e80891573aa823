#!/usr/bin/env bash
# The artifact byte lock for the cheap paper artifacts (table1, fig6, fig7,
# numa, pipeline, throttle):
#
#   1. `ppctl run examples/specs/<name>.json` prints exactly
#      tests/golden/artifacts/<name>.quick.txt, at --threads 1 and 4;
#   2. a warm re-run against the same PROFILE_CACHE simulates nothing;
#   3. through a ppd daemon the same specs — sent concurrently — reply with
#      the same bytes, and `--format json` leaves artifact bytes unchanged.
#
# CI runs the same comparison for all twelve artifacts.
#
# usage: artifact_golden_test.sh <ppd-binary> <ppctl-binary> <repo-root>
set -u

PPD=$1
PPCTL=$2
ROOT=$3
NAMES="table1 fig6 fig7 numa pipeline throttle"

TMP=$(mktemp -d)
DPID=""
cleanup() {
  [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT

export REPRO_SCALE=quick
unset PROFILE_CACHE_RO PP_FAULTS PP_RUN_BUDGET SIM_FIDELITY 2>/dev/null || true

fail() {
  echo "FAIL: $*" >&2
  cat "$TMP"/*.err >&2 2>/dev/null
  exit 1
}

golden() { echo "$ROOT/tests/golden/artifacts/$1.quick.txt"; }
spec() { echo "$ROOT/examples/specs/$1.json"; }

# 1 + 2: direct, cold at both thread counts, then warm.
for t in 1 4; do
  export PROFILE_CACHE="$TMP/cache-$t"
  for n in $NAMES; do
    "$PPCTL" run --threads "$t" "$(spec "$n")" > "$TMP/$n.$t.out" 2> "$TMP/$n.$t.err" \
      || fail "ppctl run $n (threads $t) exited $?"
    cmp -s "$(golden "$n")" "$TMP/$n.$t.out" || fail "$n at --threads $t differs from golden"
  done
done
export PROFILE_CACHE="$TMP/cache-4"
for n in $NAMES; do
  "$PPCTL" run "$(spec "$n")" > "$TMP/$n.warm.out" 2> "$TMP/$n.warm.err" || fail "warm $n"
  cmp -s "$(golden "$n")" "$TMP/$n.warm.out" || fail "warm $n differs from golden"
  grep -q '^\[ppctl\] profile store: simulated=0 ' "$TMP/$n.warm.err" \
    || fail "warm $n re-simulated"
done

# 3: through ppd, all of them at once.
export PROFILE_CACHE="$TMP/ppd-cache"
SOCK="$TMP/ppd.sock"
"$PPD" --socket "$SOCK" 2> "$TMP/daemon.err" &
DPID=$!
for _ in $(seq 1 100); do
  "$PPCTL" stat --connect "$SOCK" >/dev/null 2>&1 && break
  sleep 0.05
done
pids=""
for n in $NAMES; do
  "$PPCTL" run --connect "$SOCK" "$(spec "$n")" > "$TMP/$n.ppd.out" 2> "$TMP/$n.ppd.err" &
  pids="$pids $!"
done
for p in $pids; do wait "$p" || fail "a concurrent ppctl --connect run failed"; done
for n in $NAMES; do
  cmp -s "$(golden "$n")" "$TMP/$n.ppd.out" || fail "$n through ppd differs from golden"
done
"$PPCTL" run --connect "$SOCK" --format json "$(spec table1)" > "$TMP/table1.json.out" \
  2> "$TMP/table1.json.err" || fail "--format json table1 through ppd"
cmp -s "$(golden table1)" "$TMP/table1.json.out" || fail "--format json changed artifact bytes"
grep -q 'does not apply' "$TMP/table1.json.err" || fail "missing the --format note"

kill -TERM "$DPID"
wait "$DPID" || fail "ppd drain exited nonzero"
DPID=""
echo "PASS"
