#!/usr/bin/env bash
# Protocol smoke: the CI gate for the wire protocol.
#
#  1. A test completes under each server wire mode (batched and fallback) at
#     wire version 2, the run-record carries the v2 schema with the
#     estimator/regime tail, and the server counts the session it served.
#  2. A keyed server refuses an untokened client — observable in both the
#     exit status and the auth-reject counter — and an expired-token one,
#     opens no session for a datagram shaped like the retired version-1
#     session request, and admits a tokened client.
#
# All listeners bind ephemeral ports; addresses are scraped from logs.
set -euo pipefail

WORK="$(mktemp -d)"
# start_server runs in a command substitution (a subshell), so it records
# server PIDs in a file the EXIT trap can read.
trap 'kill $(cat "$WORK/pids" 2>/dev/null) 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/swiftest" ./cmd/swiftest

# start_server <logfile> <extra flags...>; echoes "serve_addr metrics_addr"
start_server() {
  local log="$1"; shift
  "$WORK/swiftest" serve -addr 127.0.0.1:0 -uplink 100 -metrics 127.0.0.1:0 "$@" \
    > "$log" 2>&1 &
  local pid=$!
  echo "$pid" >> "$WORK/pids"
  local serve= metrics=
  for i in $(seq 1 50); do
    serve="$(sed -n 's/^swiftest server listening on \([^ ]*\).*/\1/p' "$log")"
    metrics="$(sed -n 's|^metrics on http://\([^/]*\)/metrics.*|\1|p' "$log")"
    [ -n "$serve" ] && [ -n "$metrics" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "server exited before logging its addresses:" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$serve" ] || [ -z "$metrics" ]; then
    echo "could not parse listen addresses from $log:" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "$serve $metrics"
}

run_test() { # run_test <outfile> <args...>
  local out="$1"; shift
  "$WORK/swiftest" test -max 2s "$@" > "$out" 2>"$out.err"
}

expect_proto() { # expect_proto <outfile> <v2> <label>
  grep -q "^protocol  : $2\$" "$1" || {
    echo "$3: expected negotiated protocol $2:" >&2
    cat "$1" >&2
    exit 1
  }
}

# --- 1: open server, both wire modes ----------------------------------------
for mode in auto fallback; do
  read -r ADDR METRICS <<< "$(start_server "$WORK/serve-$mode.log" -wire "$mode")"

  run_test "$WORK/v2-$mode.txt" -servers "$ADDR@100" -trace "$WORK/v2-$mode.jsonl"
  expect_proto "$WORK/v2-$mode.txt" v2 "client, $mode server"

  head -1 "$WORK/v2-$mode.jsonl" | grep -q '"schema":"swiftest-run-record/v2"' || {
    echo "run-record header missing the v2 schema tag ($mode):" >&2
    head -1 "$WORK/v2-$mode.jsonl" >&2
    exit 1
  }
  for kind in estimate bdp_regime; do
    grep -q "\"kind\":\"$kind\"" "$WORK/v2-$mode.jsonl" || {
      echo "run-record missing $kind event ($mode)" >&2
      exit 1
    }
  done

  # The server saw exactly the session we opened.
  curl -fsS "http://$METRICS/metrics" > "$WORK/metrics-$mode.txt"
  grep -q '^swiftest_server_sessions_started_total 1$' "$WORK/metrics-$mode.txt" || {
    echo "expected 1 session on the $mode server:" >&2
    grep '^swiftest_server_sessions' "$WORK/metrics-$mode.txt" >&2
    exit 1
  }
done

# --- 2: lease-auth rejection ------------------------------------------------
KEY=5857300629132885844   # arbitrary non-zero deployment key
read -r ADDR METRICS <<< "$(start_server "$WORK/serve-keyed.log" -authkey "$KEY")"

expect_refused() { # expect_refused <outfile> <label> <args...>
  local out="$1" label="$2"; shift 2
  if run_test "$out" -servers "$ADDR@100" "$@"; then
    echo "$label was admitted by a keyed server:" >&2
    cat "$out" >&2
    exit 1
  fi
  grep -q "auth" "$out.err" || {
    echo "$label: rejection did not name auth:" >&2
    cat "$out.err" >&2
    exit 1
  }
}
expect_refused "$WORK/noauth.txt" "untokened client"
EXPIRED="$("$WORK/swiftest" token -authkey "$KEY" -server 0 -seq 1 -ttl 1ms)"
sleep 0.1
expect_refused "$WORK/expired.txt" "expired-token client" -token "$EXPIRED"

# A datagram shaped like the retired version-1 session request (magic "WT",
# version 1, type 3, test ID, rate) must open nothing on the keyed server.
HOST="${ADDR%:*}" PORT="${ADDR##*:}"
printf '\x57\x54\x01\x03\x00\x00\x00\x00\x00\x00\x00\x2a\x00\x00\x27\x10' > "/dev/udp/$HOST/$PORT"
sleep 0.2

curl -fsS "http://$METRICS/metrics" > "$WORK/metrics-keyed.txt"
REJECTS="$(sed -n 's/^swiftest_server_auth_rejects_total \([0-9]*\)$/\1/p' "$WORK/metrics-keyed.txt")"
if [ -z "$REJECTS" ] || [ "$REJECTS" -lt 2 ]; then
  echo "auth-reject counter did not count both refusals:" >&2
  grep '^swiftest_server_auth' "$WORK/metrics-keyed.txt" >&2 || true
  exit 1
fi
grep -q '^swiftest_server_sessions_started_total 0$' "$WORK/metrics-keyed.txt" || {
  echo "keyed server opened a session without a valid token:" >&2
  grep '^swiftest_server_sessions' "$WORK/metrics-keyed.txt" >&2
  exit 1
}

TOKEN="$("$WORK/swiftest" token -authkey "$KEY" -server 0 -seq 1)"
run_test "$WORK/auth.txt" -servers "$ADDR@100" -token "$TOKEN"
expect_proto "$WORK/auth.txt" v2 "tokened client, keyed server"

echo "protocol smoke passed: both wire modes, auth rejects=$REJECTS, version-1 request ignored"
