#!/usr/bin/env bash
# Regenerates BENCH_gateway.json at the repo root: a multi-process gateway
# benchmark with two named models, two shiftex-serve replicas each, and a
# mid-load SIGKILL of one replica. The gateway session cache is disabled
# so every request exercises real consistent-hash routing — after the
# kill, traffic owned by the dead replica must fail over to ring
# successors, which is exactly the machinery the artifact gates on (zero
# dropped requests, >=90% of surviving-owner keys retained).
# Usage: ./scripts/bench_gateway.sh
set -euo pipefail

cd "$(dirname "$0")/.."
WORKDIR=$(mktemp -d)
BIN="$WORKDIR/bin"
LOG="$WORKDIR/log"
mkdir -p "$BIN" "$LOG"
GW_ADDR="127.0.0.1:18660"
A1_ADDR="127.0.0.1:18661"
A2_ADDR="127.0.0.1:18662"
B1_ADDR="127.0.0.1:18663"
B2_ADDR="127.0.0.1:18664"
CKPT=internal/serve/testdata/checkpoint_tiny.json
# Scenario shape of the committed checkpoint (EXPERIMENTS.md).
SAMPLES=40
TEST=20
TOKEN=bench-token
PIDS=""

cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
    echo "BENCH FAIL: $1" >&2
    for f in "$LOG"/*.log; do
        echo "--- $f ---" >&2
        cat "$f" >&2 || true
    done
    exit 1
}

echo "== building shiftex-serve, shiftex-gateway and shiftex-bench"
go build -o "$BIN" ./cmd/shiftex-serve ./cmd/shiftex-gateway ./cmd/shiftex-bench

echo "== starting 2 models x 2 replicas from $CKPT"
start_replica() { # model addr logname -> pid
    "$BIN/shiftex-serve" -checkpoint "$CKPT" -model "$1" -http "$2" \
        >"$LOG/$3.log" 2>&1 &
    echo $!
}
A1_PID=$(start_replica fmow-a "$A1_ADDR" replica-a1)
A2_PID=$(start_replica fmow-a "$A2_ADDR" replica-a2)
B1_PID=$(start_replica fmow-b "$B1_ADDR" replica-b1)
B2_PID=$(start_replica fmow-b "$B2_ADDR" replica-b2)
PIDS="$A1_PID $A2_PID $B1_PID $B2_PID"
for addr in "$A1_ADDR" "$A2_ADDR" "$B1_ADDR" "$B2_ADDR"; do
    up=0
    for i in $(seq 1 50); do
        curl -sf "http://$addr/v1/healthz" >/dev/null 2>&1 && { up=1; break; }
        sleep 0.1
    done
    [ "$up" = 1 ] || fail "replica $addr never became healthy"
done

echo "== starting the gateway (session cache off, full middleware chain)"
cat >"$WORKDIR/gateway.json" <<EOF
{
  "models": {
    "fmow-a": ["$A1_ADDR", "$A2_ADDR"],
    "fmow-b": ["$B1_ADDR", "$B2_ADDR"]
  },
  "middlewares": {
    "predict": ["logging", "auth", "ratelimit", "admission"],
    "admin": ["logging"]
  },
  "authTokens": ["$TOKEN"],
  "ratePerSecond": 1000000,
  "maxInflight": 512,
  "probeEveryMs": 200,
  "evictAfter": 2,
  "sessionCache": -1
}
EOF
"$BIN/shiftex-gateway" -config "$WORKDIR/gateway.json" -http "$GW_ADDR" >"$LOG/gateway.log" 2>&1 &
GW_PID=$!
PIDS="$PIDS $GW_PID"
for i in $(seq 1 50); do
    curl -sf "http://$GW_ADDR/v1/healthz" >/dev/null 2>&1 && break
    kill -0 "$GW_PID" 2>/dev/null || fail "gateway exited during startup"
    sleep 0.1
done

echo "== load generation: both models, SIGKILL replica $A2_ADDR at 50%"
"$BIN/shiftex-bench" gateway-load -checkpoint "$CKPT" -url "http://$GW_ADDR" \
    -samples "$SAMPLES" -test "$TEST" -models fmow-a,fmow-b \
    -repeat 200 -concurrency 8 -token "$TOKEN" \
    -kill-pid "$A2_PID" -kill-at 0.5 \
    -json . || fail "load generation failed"

echo "== artifact gate (zero dropped requests, affinity >= 0.9)"
"$BIN/shiftex-bench" check BENCH_gateway.json -min-affinity 0.9 \
    || fail "gateway artifact did not validate"

echo "BENCH OK: wrote BENCH_gateway.json"
