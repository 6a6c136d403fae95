#!/usr/bin/env bash
# Gateway-tier smoke: start two shiftex-serve replicas from the committed
# tiny checkpoint and a shiftex-gateway in front of them with a
# config-selected middleware chain (logging, auth, ratelimit, admission)
# on the predict route. Assert the chain is live (tokenless predict is
# 401, bearer-token predict is 200 end-to-end), the deprecated unversioned
# alias still answers with a Deprecation header, and a misspelled
# middleware name fails startup listing the available set. Then SIGKILL
# one replica mid-load (`shiftex-bench gateway-load`) and gate the
# BENCH_gateway.json artifact (`shiftex-bench check`) on
# zero dropped requests and >=90% consistent-hash affinity retention.
# Finally assert distributed tracing end to end: a request carrying a
# known traceparent must surface spans under that trace ID on BOTH tiers
# (/v1/debug/traces on the gateway and the surviving replica), and the
# gateway's -debug-addr listener must answer /v1/debug/pprof/cmdline.
# CI runs this on every commit; also runnable locally:
# ./scripts/smoke_gateway.sh
set -euo pipefail

cd "$(dirname "$0")/.."
WORKDIR=$(mktemp -d)
BIN="$WORKDIR/bin"
LOG="$WORKDIR/log"
mkdir -p "$BIN" "$LOG"
GW_ADDR="127.0.0.1:18650"
REP1_ADDR="127.0.0.1:18651"
REP2_ADDR="127.0.0.1:18652"
GW_DEBUG_ADDR="127.0.0.1:18654"
CKPT=internal/serve/testdata/checkpoint_tiny.json
# The committed checkpoint was trained with -samples 40 -test 20 (see
# EXPERIMENTS.md "Serving benchmark"); the loadgen must regenerate the
# same scenario shape.
SAMPLES=40
TEST=20
TOKEN=smoke-token
PIDS=""

cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
    echo "SMOKE FAIL: $1" >&2
    for f in "$LOG"/*.log; do
        echo "--- $f ---" >&2
        cat "$f" >&2 || true
    done
    exit 1
}

echo "== building shiftex-serve, shiftex-gateway and shiftex-bench"
go build -o "$BIN" ./cmd/shiftex-serve ./cmd/shiftex-gateway ./cmd/shiftex-bench

echo "== starting two serve replicas from $CKPT"
"$BIN/shiftex-serve" -checkpoint "$CKPT" -http "$REP1_ADDR" >"$LOG/replica1.log" 2>&1 &
REP1_PID=$!
PIDS="$PIDS $REP1_PID"
"$BIN/shiftex-serve" -checkpoint "$CKPT" -http "$REP2_ADDR" >"$LOG/replica2.log" 2>&1 &
REP2_PID=$!
PIDS="$PIDS $REP2_PID"
for addr in "$REP1_ADDR" "$REP2_ADDR"; do
    up=0
    for i in $(seq 1 50); do
        curl -sf "http://$addr/v1/healthz" >/dev/null 2>&1 && { up=1; break; }
        sleep 0.1
    done
    [ "$up" = 1 ] || fail "replica $addr never became healthy"
done

echo "== starting the gateway with an auth+ratelimit+admission chain"
cat >"$WORKDIR/gateway.json" <<EOF
{
  "models": {"default": ["$REP1_ADDR", "$REP2_ADDR"]},
  "middlewares": {
    "predict": ["logging", "auth", "ratelimit", "admission"],
    "admin": ["logging"]
  },
  "authTokens": ["$TOKEN"],
  "ratePerSecond": 1000000,
  "maxInflight": 512,
  "probeEveryMs": 100,
  "evictAfter": 1
}
EOF
"$BIN/shiftex-gateway" -config "$WORKDIR/gateway.json" -http "$GW_ADDR" \
    -debug-addr "$GW_DEBUG_ADDR" >"$LOG/gateway.log" 2>&1 &
GW_PID=$!
PIDS="$PIDS $GW_PID"
for i in $(seq 1 50); do
    curl -sf "http://$GW_ADDR/v1/healthz" >/dev/null 2>&1 && break
    kill -0 "$GW_PID" 2>/dev/null || fail "gateway exited during startup"
    sleep 0.1
done

# The committed checkpoint serves 32-dimensional inputs (FMoW spec).
X=$(seq 1 32 | awk '{printf "%s%.2f", (NR==1 ? "" : ","), $1/32}')

echo "== middleware chain short-circuit: tokenless /v1/predict is 401"
code=$(curl -s -o "$WORKDIR/unauth.json" -w '%{http_code}' \
    -X POST -d "{\"x\":[$X]}" "http://$GW_ADDR/v1/predict")
[ "$code" = 401 ] || fail "tokenless /v1/predict returned $code, want 401"

echo "== /v1/predict with bearer token, end to end through a replica"
code=$(curl -s -o "$WORKDIR/predict.json" -w '%{http_code}' \
    -H "Authorization: Bearer $TOKEN" \
    -X POST -d "{\"x\":[$X]}" "http://$GW_ADDR/v1/predict")
[ "$code" = 200 ] || fail "/v1/predict returned $code: $(cat "$WORKDIR/predict.json")"
grep -q '"class"' "$WORKDIR/predict.json" || fail "/v1/predict body unexpected: $(cat "$WORKDIR/predict.json")"
grep -q '"replica"' "$WORKDIR/predict.json" || fail "/v1/predict did not report the serving replica"

echo "== deprecated unversioned alias answers and is flagged"
curl -s -D "$WORKDIR/alias.hdr" -o "$WORKDIR/alias.json" \
    -H "Authorization: Bearer $TOKEN" \
    -X POST -d "{\"x\":[$X]}" "http://$GW_ADDR/predict"
grep -qi '^Deprecation: true' "$WORKDIR/alias.hdr" || fail "/predict alias missing Deprecation header"
grep -q '"class"' "$WORKDIR/alias.json" || fail "/predict alias body unexpected: $(cat "$WORKDIR/alias.json")"

echo "== misspelled middleware fails startup, naming the available set"
cat >"$WORKDIR/bad.json" <<EOF
{
  "models": {"default": ["$REP1_ADDR"]},
  "middlewares": {"predict": ["authz"]}
}
EOF
if "$BIN/shiftex-gateway" -config "$WORKDIR/bad.json" -http 127.0.0.1:18653 \
    >"$WORKDIR/bad.out" 2>&1; then
    fail "gateway started with an unknown middleware name"
fi
grep -q 'unknown middleware "authz"' "$WORKDIR/bad.out" || fail "startup error does not name the offender: $(cat "$WORKDIR/bad.out")"
grep -q 'available:' "$WORKDIR/bad.out" || fail "startup error does not list the available middlewares: $(cat "$WORKDIR/bad.out")"

echo "== load generation with a mid-load replica SIGKILL"
"$BIN/shiftex-bench" gateway-load -checkpoint "$CKPT" -url "http://$GW_ADDR" \
    -samples "$SAMPLES" -test "$TEST" -repeat 40 -concurrency 8 \
    -token "$TOKEN" -kill-pid "$REP2_PID" -kill-at 0.5 \
    -json "$WORKDIR" >"$LOG/loadgen.log" 2>&1 \
    || fail "load generation failed"
cat "$LOG/loadgen.log"

echo "== artifact gate (zero dropped requests, affinity >= 0.9)"
"$BIN/shiftex-bench" check "$WORKDIR/BENCH_gateway.json" -min-affinity 0.9 \
    || fail "gateway artifact did not validate"

echo "== distributed trace crosses both tiers"
# A fresh input vector (different from $X) so the gateway's session cache
# cannot short-circuit the hop to the replica; replica2 is dead by now,
# so the trace must land on replica1.
X2=$(seq 1 32 | awk '{printf "%s%.2f", (NR==1 ? "" : ","), $1/16}')
TRACE_ID=deadbeefdeadbeefdeadbeefdeadbeef
code=$(curl -s -o "$WORKDIR/traced.json" -w '%{http_code}' \
    -H "Authorization: Bearer $TOKEN" \
    -H "traceparent: 00-$TRACE_ID-00f067aa0ba902b7-01" \
    -X POST -d "{\"x\":[$X2]}" "http://$GW_ADDR/v1/predict")
[ "$code" = 200 ] || fail "traced /v1/predict returned $code: $(cat "$WORKDIR/traced.json")"
curl -s "http://$GW_ADDR/v1/debug/traces?trace=$TRACE_ID" >"$WORKDIR/gw_traces.json"
grep -q "$TRACE_ID" "$WORKDIR/gw_traces.json" \
    || fail "gateway /v1/debug/traces has no spans for $TRACE_ID: $(cat "$WORKDIR/gw_traces.json")"
grep -q '"gateway.route"' "$WORKDIR/gw_traces.json" \
    || fail "gateway trace is missing the routing span: $(cat "$WORKDIR/gw_traces.json")"
curl -s "http://$REP1_ADDR/v1/debug/traces?trace=$TRACE_ID" >"$WORKDIR/rep_traces.json"
grep -q "$TRACE_ID" "$WORKDIR/rep_traces.json" \
    || fail "replica /v1/debug/traces has no spans for $TRACE_ID: $(cat "$WORKDIR/rep_traces.json")"
grep -q '"serve.batch"' "$WORKDIR/rep_traces.json" \
    || fail "replica trace is missing the batch span: $(cat "$WORKDIR/rep_traces.json")"

echo "== pprof answers on the gateway debug port"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$GW_DEBUG_ADDR/v1/debug/pprof/cmdline")
[ "$code" = 200 ] || fail "/v1/debug/pprof/cmdline on $GW_DEBUG_ADDR returned $code, want 200"

echo "SMOKE OK"
