#!/usr/bin/env bash
# Strict CLI numeric/endpoint parsing, asserted at the process boundary:
# every malformed flag value must exit 2 (usage) with a named error on
# stderr — never a silent default, a k/M/G-suffix scale-up, or a wrapped
# number. Covers both binaries:
#
#   ppd:   --workers --max-queue --retry-after-ms --max-frame-bytes
#          --backlog --listen (host/port grammar)
#   ppctl: --threads --seeds --seed --retries --retry-base-ms --retry-seed
#          --deadline-ms --connect (endpoint grammar), and the enum flags
#          --scale --fidelity --mode (the spec fields' name tables)
#
# usage: cli_reject_test.sh <ppd-binary> <ppctl-binary>
set -u

PPD=$1
PPCTL=$2

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fails=0
fail() {
  echo "FAIL: $*" >&2
  fails=$((fails + 1))
}

# expect_reject <name-fragment> <binary> <args...>
# The command must exit 2 and mention the offending flag by name on stderr.
expect_reject() {
  local frag=$1
  shift
  "$@" > "$TMP/out" 2> "$TMP/err"
  local rc=$?
  [ "$rc" -eq 2 ] || fail "'$*' exited $rc, want 2: $(cat "$TMP/err")"
  grep -q -- "$frag" "$TMP/err" \
    || fail "'$*' stderr does not name '$frag': $(cat "$TMP/err")"
}

SPEC="$TMP/spec.json"
echo '{"version":1,"kind":"corun","flows":[{"type":"IP"}]}' > "$SPEC"

# ---- ppd numeric flags ----
for v in abc 2k 1.5 -3 '' 65; do
  expect_reject --workers "$PPD" --socket "$TMP/s" --workers "$v"
done
expect_reject --max-queue "$PPD" --socket "$TMP/s" --max-queue -1
expect_reject --max-queue "$PPD" --socket "$TMP/s" --max-queue 1M
expect_reject --retry-after-ms "$PPD" --socket "$TMP/s" --retry-after-ms 0
expect_reject --retry-after-ms "$PPD" --socket "$TMP/s" --retry-after-ms 999999999999999999999
expect_reject --max-frame-bytes "$PPD" --socket "$TMP/s" --max-frame-bytes 63
expect_reject --max-frame-bytes "$PPD" --socket "$TMP/s" --max-frame-bytes 4M
expect_reject --backlog "$PPD" --socket "$TMP/s" --backlog 0

# ---- ppd --listen endpoint grammar ----
expect_reject port "$PPD" --listen 127.0.0.1:abc
expect_reject port "$PPD" --listen 127.0.0.1:70000
expect_reject port "$PPD" --listen 127.0.0.1:-1
expect_reject port "$PPD" --listen 127.0.0.1:2k
expect_reject --listen "$PPD" --listen not-an-ip:80
# --listen without ':' is a UDS path — not a TCP endpoint, so reject it here.
expect_reject --listen "$PPD" --listen plainpath

# At least one listener is required.
"$PPD" > /dev/null 2> "$TMP/err"
[ $? -eq 2 ] || fail "ppd with no listener should exit 2"
grep -q -- '--socket / --listen' "$TMP/err" || fail "no-listener error not named"

# ---- ppctl numeric flags ----
expect_reject --threads "$PPCTL" run --threads 2k "$SPEC"
expect_reject --threads "$PPCTL" run --threads abc "$SPEC"
expect_reject --threads "$PPCTL" run --threads -1 "$SPEC"
expect_reject --seeds "$PPCTL" run --seeds 17 "$SPEC"
expect_reject --seeds "$PPCTL" run --seeds 1.5 "$SPEC"
expect_reject --seed "$PPCTL" run --seed 0 "$SPEC"
expect_reject --seed "$PPCTL" run --seed 18446744073709551616 "$SPEC"
expect_reject --retries "$PPCTL" run --retries 0 "$SPEC"
expect_reject --retries "$PPCTL" run --retries 1k "$SPEC"
expect_reject --retry-base-ms "$PPCTL" run --retry-base-ms -5 "$SPEC"
expect_reject --retry-seed "$PPCTL" run --retry-seed x "$SPEC"
expect_reject --deadline-ms "$PPCTL" run --deadline-ms 0 "$SPEC"
expect_reject --deadline-ms "$PPCTL" run --deadline-ms 1e3 "$SPEC"

# ---- ppctl enum flags ----
expect_reject --scale "$PPCTL" run --scale huge "$SPEC"
expect_reject --fidelity "$PPCTL" run --fidelity streamd "$SPEC"
expect_reject --mode "$PPCTL" run --mode bogus "$SPEC"

# ---- ppctl --connect endpoint grammar ----
expect_reject port "$PPCTL" stat --connect 127.0.0.1:abc
expect_reject port "$PPCTL" stat --connect 127.0.0.1:70000
expect_reject port "$PPCTL" stat --connect 127.0.0.1:0   # ephemeral is listen-only
expect_reject --connect "$PPCTL" stat --connect not-an-ip:80

# Sanity: a valid invocation still parses (exits non-2 for a missing daemon).
"$PPCTL" stat --connect "$TMP/nonexistent.sock" > /dev/null 2>&1
rc=$?
[ "$rc" -eq 4 ] || fail "valid --connect to a dead socket should exit 4, got $rc"
# The canonical mode name parses like its alias.
"$PPCTL" stat --connect "$TMP/nonexistent.sock" --retries 1 --mode cache+memctrl \
  > /dev/null 2>&1
rc=$?
[ "$rc" -eq 4 ] || fail "--mode cache+memctrl should parse (exit 4 on a dead socket), got $rc"

if [ "$fails" -gt 0 ]; then
  echo "cli reject: $fails assertion(s) FAILED" >&2
  exit 1
fi
echo "cli reject: OK"
