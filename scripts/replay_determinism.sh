#!/usr/bin/env bash
# replay_determinism.sh — the record/replay determinism gate.
#
# Records a short seeded workload against a deterministically seeded
# catalog with server-side trace capture on, then replays the trace
# twice, each time against a fresh catalog rebuilt by the identical
# ingest. Asserts:
#
#   1. each replay is response-equivalent to the recording (tbmload
#      replay exits non-zero on any mismatch), and
#   2. the two deterministic replay reports are byte-identical.
#
# tbmload run is a single sequential client, so the recorded completion
# order is a serialization of the workload: replaying it sequentially
# reproduces every intermediate catalog state exactly. It exits non-zero
# if the server answers any request wrongly, so a recording of failures
# never reaches the replays.
#
# Usage: scripts/replay_determinism.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${TBM_REPLAY_SEED:-7}"
ADDR="127.0.0.1:18091"
URL="http://$ADDR"

WORK="$(mktemp -d)"
SERVER_PID=""
trap 'kill "$SERVER_PID" 2>/dev/null || true; wait "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/tbmserve" ./cmd/tbmserve
go build -o "$WORK/tbmload" ./cmd/tbmload
go build -o "$WORK/tbmctl" ./cmd/tbmctl

# -j 1 ingests sequentially: object IDs and epoch numbers become a
# pure function of the flags, which is what lets a rebuilt catalog
# match the recorded one number for number.
seed_db() {
  "$WORK/tbmctl" ingest -dir "$1" -n 8 -j 1 -seed 3 -frames 10 >/dev/null
}

start_server() { # args: dbdir [extra flags...]
  local db="$1"; shift
  "$WORK/tbmserve" -dir "$db" -addr "$ADDR" -save-every 0 "$@" \
    >"$WORK/server_$(basename "$db").log" 2>&1 &
  SERVER_PID=$!
}

stop_server() {
  kill "$SERVER_PID" && wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
}

echo "== record: seeded workload with trace capture"
seed_db "$WORK/db_rec"
start_server "$WORK/db_rec" -trace-out "$WORK/trace.trc"
"$WORK/tbmload" run -url "$URL" -seed "$SEED" -wait-ready 30s
stop_server # graceful shutdown flushes the trace

for i in 1 2; do
  echo "== replay $i: fresh identically seeded catalog"
  seed_db "$WORK/db_$i"
  start_server "$WORK/db_$i"
  "$WORK/tbmload" replay -url "$URL" -trace "$WORK/trace.trc" \
    -wait-ready 30s -out "$WORK/report_$i.json"
  stop_server
done

if ! cmp "$WORK/report_1.json" "$WORK/report_2.json"; then
  echo "FAIL: replay reports are not byte-identical" >&2
  diff "$WORK/report_1.json" "$WORK/report_2.json" >&2 || true
  exit 1
fi
grep -q '"equivalent": true' "$WORK/report_1.json"
echo "PASS: both replays equivalent, reports byte-identical"
