package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// tinyMonitorConfig keeps the monitor's reservoirs small enough that the
// tiny checkpoint's workload calibrates and evaluates within a few
// thousand requests. The loadgen replays a cycle of parties×TestPerParty
// = 160 distinct inputs, so the recent window must cover at least one
// full cycle: a shorter window is a contiguous chunk of the cycle, which
// genuinely differs in distribution from the whole and would read as
// drift on perfectly clean traffic.
func tinyMonitorConfig() monitor.Config {
	return monitor.Config{
		QueueBlocks:  32,
		BlockRows:    32,
		EvalEvery:    160,
		BaselineSize: 320,
		WindowSize:   160,
		Threshold:    2,
		Calibrate:    stats.CalibrateConfig{Resamples: 50, PValue: 0.02},
		Seed:         1,
	}
}

// TestRouteBatchZeroAllocWithMonitor pins the acceptance contract on the
// request hot path: batched routing with the monitor tee enabled must not
// allocate. The monitor is closed first so its consumer goroutine (which
// does allocate, off-path) cannot pollute the global alloc counter; the
// producer side then exercises the drop-oldest recycle loop, exactly the
// path a saturated monitor would leave the workers on.
func TestRouteBatchZeroAllocWithMonitor(t *testing.T) {
	_, snap := loadTiny(t)
	mon := monitor.New(tinyMonitorConfig())
	srv, err := NewServer(snap, Config{
		Workers:   1,
		MaxDelay:  time.Second, // keep the dispatch ticker quiet during the pin
		CacheSize: -1,
		Monitor:   mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon.Close()

	rng := tensor.NewRNG(5)
	served := srv.Snapshot()
	reqs := make([]*pending, 32)
	for i := range reqs {
		reqs[i] = &pending{x: rng.NormVec(served.InputDim(), 0, 1), snap: served, expert: unrouted}
	}
	batch := batchMsg{snap: served, expert: unrouted, reqs: reqs}
	sc := srv.newScratch()
	for i := 0; i < 3; i++ { // warm the scratch slices and block freelist
		if err := srv.routeBatch(sc, batch); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := srv.routeBatch(sc, batch); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Fatalf("routeBatch with monitor enabled allocates %.1f/op, want 0", n)
	}
	if mon.Teed() == 0 {
		t.Fatal("monitor saw no samples — the pin measured a dead tee")
	}
}

// TestServerMonitorDetectsInjectedShift drives the full plane end to end:
// cold traffic through the batched pipeline tees into the monitor, a
// frost/5 regime change is injected mid-stream, and the drift score must
// cross the threshold after — and only after — the injection watermark.
func TestServerMonitorDetectsInjectedShift(t *testing.T) {
	cp, snap := loadTiny(t)
	mon := monitor.New(tinyMonitorConfig())
	defer mon.Close()
	srv, err := NewServer(snap, Config{
		Workers:   2,
		MaxDelay:  500 * time.Microsecond,
		CacheSize: -1,
		Monitor:   mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := tinyLoadConfig()
	// 64 000 requests, ~0.2 s: RunLoad injects the shift from a goroutine that
	// polls the request counter between sleeps, and on two busy threads it
	// can oversleep a 6 400-request run (20 ms) past the end.
	cfg.Repeat = 400
	cfg.ShiftAt = 0.5
	res, err := RunLoad(context.Background(), srv, cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ShiftInjected {
		t.Fatal("shift was not injected")
	}
	mon.Flush()
	sum := mon.Summary()
	if !sum.Calibrated {
		t.Fatalf("monitor never calibrated: %s", sum.CalibrationError)
	}
	if sum.Samples == 0 || sum.Evals == 0 {
		t.Fatalf("monitor idle: samples=%d evals=%d", sum.Samples, sum.Evals)
	}
	var detectedAt uint64
	for _, ev := range mon.Evaluations(0, -1) {
		if ev.Err != "" {
			t.Fatalf("evaluation error: %s", ev.Err)
		}
		if !ev.Crossed {
			continue
		}
		// The watermark is in the tee clock; ev.TeedAt is the evaluation's
		// position in the same clock (ev.Samples, the folded count, lags it
		// when backpressure drops samples).
		if ev.TeedAt <= res.ShiftTeedSamples {
			t.Fatalf("false positive: crossing teed at %d, shift watermark %d (score %.3f)",
				ev.TeedAt, res.ShiftTeedSamples, ev.Score)
		}
		if detectedAt == 0 {
			detectedAt = ev.TeedAt
		}
	}
	if detectedAt == 0 {
		t.Fatalf("injected shift never detected: max summary score %.3f, threshold %.3f, %d evals",
			sum.Score, sum.Threshold, sum.Evals)
	}
	t.Logf("detected at sample %d, watermark %d (latency %d samples)",
		detectedAt, res.ShiftTeedSamples, detectedAt-res.ShiftTeedSamples)
}

// TestDriftEndpointThroughServer asserts /v1/debug/drift is wired into the
// serving mux and speaks the DriftState schema, both with and without a
// monitor configured.
func TestDriftEndpointThroughServer(t *testing.T) {
	cp, snap := loadTiny(t)
	mon := monitor.New(tinyMonitorConfig())
	defer mon.Close()
	srv, err := NewServer(snap, Config{Workers: 1, CacheSize: -1, MaxDelay: 200 * time.Microsecond, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := tinyLoadConfig()
	cfg.Repeat = 4
	if _, err := RunLoad(context.Background(), srv, cp, cfg); err != nil {
		t.Fatal(err)
	}
	mon.Flush()

	resp, err := http.Get(ts.URL + "/v1/debug/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var st monitor.DriftState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Summary == nil {
		t.Fatalf("drift state not live: %+v", st)
	}
	if st.Summary.Teed == 0 || st.Summary.SnapshotVersion != srv.Snapshot().Version {
		t.Fatalf("drift summary does not reflect the run: %+v", st.Summary)
	}

	// A server with no monitor still answers, reporting the plane disabled.
	bare, err := NewServer(snap2(t, cp), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	respBare, err := http.Get(tsBare.URL + "/v1/debug/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer respBare.Body.Close()
	if respBare.StatusCode != http.StatusOK {
		t.Fatalf("bare status %d, want 200", respBare.StatusCode)
	}
	var stBare monitor.DriftState
	if err := json.NewDecoder(respBare.Body).Decode(&stBare); err != nil {
		t.Fatal(err)
	}
	if stBare.Enabled {
		t.Fatal("monitor-less server reports the drift plane enabled")
	}
}

// snap2 builds a second snapshot of the same checkpoint (a snapshot cannot
// be shared across servers: adoption stamps Version and routeEps).
func snap2(t *testing.T, cp *service.Checkpoint) *Snapshot {
	t.Helper()
	s, err := SnapshotFromCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestExpertRequestCounters pins the per-expert counter satellite: every
// completed request lands in exactly one expert's counter, and the tallies
// survive a hot swap (carried cells, not zeroed).
func TestExpertRequestCounters(t *testing.T) {
	cp, snap := loadTiny(t)
	srv, err := NewServer(snap, Config{Workers: 2, MaxDelay: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := tinyLoadConfig()
	res, err := RunLoad(context.Background(), srv, cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, counts := srv.Metrics().ExpertRequests()
	if len(ids) != srv.Snapshot().NumExperts() {
		t.Fatalf("%d counters for %d experts", len(ids), srv.Snapshot().NumExperts())
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != res.Requests {
		t.Fatalf("expert counters sum to %d, served %d", total, res.Requests)
	}

	if err := srv.Swap(snap2(t, cp)); err != nil {
		t.Fatal(err)
	}
	_, after := srv.Metrics().ExpertRequests()
	var afterTotal uint64
	for _, c := range after {
		afterTotal += c
	}
	if afterTotal != total {
		t.Fatalf("hot swap reset expert counters: %d before, %d after", total, afterTotal)
	}
}
