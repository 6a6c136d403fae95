#!/usr/bin/env bash
# Multi-process ShiftEx smoke: two shiftex-party processes + one
# shiftex-aggregator with observability, then a party kill to prove the
# quorum path keeps the run alive. CI runs this on every commit; it is also
# runnable locally: ./scripts/smoke_multiprocess.sh
set -euo pipefail

WORKDIR=$(mktemp -d)
BIN="$WORKDIR/bin"
LOG="$WORKDIR/log"
mkdir -p "$BIN" "$LOG"
HTTP_ADDR="127.0.0.1:18431"
SEED=42
WINDOWS=4
NPARTIES=2
# The adaptation policy is threaded through the aggregator flags so the
# smoke exercises the policy registry end to end (POLICY=cov-detect etc.
# work too; default keeps the quorum timings this script was tuned on).
POLICY="${POLICY:-default}"
# Sized so the run takes about two seconds (half a second per window): the
# health poll and the party kill below must land while windows are still
# running for the quorum assertion to mean anything.
SAMPLES=1200
ROUNDS=16
EPOCHS=10
PIDS=()

cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
    echo "SMOKE FAIL: $1" >&2
    echo "--- aggregator log ---" >&2; cat "$LOG/agg.log" >&2 || true
    echo "--- party logs ---" >&2; cat "$LOG"/party*.log >&2 || true
    exit 1
}

echo "== building binaries"
go build -o "$BIN" ./cmd/shiftex-party ./cmd/shiftex-aggregator

echo "== starting $NPARTIES parties"
for p in $(seq 0 $((NPARTIES - 1))); do
    "$BIN/shiftex-party" -addr "127.0.0.1:$((18501 + p))" -party "$p" \
        -nparties "$NPARTIES" -windows "$WINDOWS" -scenario-seed "$SEED" \
        -samples "$SAMPLES" -test 40 >"$LOG/party$p.log" 2>&1 &
    PIDS+=($!)
done
sleep 1

echo "== starting aggregator"
"$BIN/shiftex-aggregator" \
    -parties "127.0.0.1:18501,127.0.0.1:18502" \
    -windows "$WINDOWS" -rounds "$ROUNDS" -epochs "$EPOCHS" -participants 4 \
    -samples "$SAMPLES" -test 40 \
    -seed "$SEED" -quorum 0.5 -retries 0 -timeout 30s \
    -policy "$POLICY" \
    -http "$HTTP_ADDR" -checkpoint "$WORKDIR/shiftex.ckpt.json" \
    >"$LOG/agg.log" 2>&1 &
AGG_PID=$!
PIDS+=("$AGG_PID")

echo "== waiting for /healthz"
healthy=""
for _ in $(seq 1 50); do
    if curl -fsS "http://$HTTP_ADDR/healthz" >"$WORKDIR/healthz.json" 2>/dev/null; then
        healthy=yes
        break
    fi
    kill -0 "$AGG_PID" 2>/dev/null || fail "aggregator exited before serving /healthz"
    sleep 0.2
done
[ -n "$healthy" ] || fail "/healthz never returned 200"
grep -q '"status": "ok"' "$WORKDIR/healthz.json" || fail "/healthz payload unexpected: $(cat "$WORKDIR/healthz.json")"
echo "   healthz OK: $(tr -d '\n ' <"$WORKDIR/healthz.json")"

echo "== waiting for window 1 to complete"
for _ in $(seq 1 600); do
    grep -q "window 1 done" "$LOG/agg.log" && break
    kill -0 "$AGG_PID" 2>/dev/null || fail "aggregator died before window 1"
    sleep 0.1
done
grep -q "window 1 done" "$LOG/agg.log" || fail "window 1 never completed"

# The -policy flag must have reached the aggregator's policy registry.
grep -q "adaptation policy: $POLICY" "$LOG/agg.log" || fail "aggregator did not report policy $POLICY"
grep -q "\"policy\": \"$POLICY\"" <(curl -fsS "http://$HTTP_ADDR/state") || fail "/state does not report policy $POLICY"

# Rounds are observable over HTTP while the run is live.
curl -fsS "http://$HTTP_ADDR/metrics" >"$WORKDIR/metrics.txt" || fail "/metrics unreachable mid-run"
grep -Eq "shiftex_rounds_total [1-9]" "$WORKDIR/metrics.txt" || fail "no rounds counted in /metrics"

echo "== killing party 1 mid-stream"
kill -9 "${PIDS[1]}"

echo "== waiting for aggregator to finish on the quorum path"
if ! wait "$AGG_PID"; then
    fail "aggregator exited non-zero after party kill"
fi
grep -q "window $((WINDOWS - 1)) done" "$LOG/agg.log" || fail "final window never completed"
grep -q "run complete" "$LOG/agg.log" || fail "run summary missing"

# The kill must actually have been absorbed as tolerated failures — if the
# run finished before the kill landed, this smoke proved nothing.
if ! grep -Eq "run complete: .* [1-9][0-9]* party failures tolerated" "$LOG/agg.log"; then
    fail "no party failures tolerated: the kill did not exercise the quorum path"
fi

echo "== smoke OK"
sed -n 's/^/   /p' "$LOG/agg.log"
