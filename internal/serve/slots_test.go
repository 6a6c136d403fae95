package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// TestCancelledPredictNeverRecyclesItsSlot is the slot-ownership rule under
// -race: a caller that gives up while a worker still owns its slot must leave
// that slot to the garbage collector. Eight callers are cancelled while their
// batches sit unexecuted (no worker is running yet); 10 000 further requests
// then draw slots from the pool before and while the held batches execute.
// Were an abandoned slot ever handed out again, the held batch's outcome
// would land in the new owner's done channel — a wrong answer for its input.
func TestCancelledPredictNeverRecyclesItsSlot(t *testing.T) {
	_, snap := loadTiny(t)
	srv, err := newServer(snap, Config{Workers: 1, MaxBatch: 4, MaxDelay: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	var startOnce sync.Once
	startWorkers := func() { startOnce.Do(srv.startWorkers) }
	t.Cleanup(func() {
		startWorkers()
		_ = srv.Close()
	})
	waitAdmitted := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for srv.metrics.admitted.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d requests were admitted", srv.metrics.admitted.Load(), n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	const abandoned = 8
	ctx, cancel := context.WithCancel(context.Background())
	rng := tensor.NewRNG(41)
	var gaveUp sync.WaitGroup
	for i := 0; i < abandoned; i++ {
		x := rng.NormVec(snap.InputDim(), 0, 1)
		gaveUp.Add(1)
		go func() {
			defer gaveUp.Done()
			if _, err := srv.Predict(ctx, x); !errors.Is(err, context.Canceled) {
				t.Errorf("abandoned call returned %v, want context.Canceled", err)
			}
		}()
	}
	waitAdmitted(abandoned)
	cancel()
	gaveUp.Wait()

	const (
		callers   = 8
		perCaller = 1250
	)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := tensor.NewRNG(uint64(500 + c))
			ws := snap.NewWorkspace()
			for i := 0; i < perCaller; i++ {
				x := rng.NormVec(snap.InputDim(), 0, 1)
				got, err := srv.Predict(context.Background(), x)
				if err != nil {
					t.Errorf("caller %d request %d: %v", c, i, err)
					return
				}
				idx, matched, err := snap.Route(ws, x)
				if err != nil {
					t.Errorf("caller %d request %d: reference route: %v", c, i, err)
					return
				}
				class, err := snap.Experts()[idx].Model.PredictWS(ws, x)
				if err != nil {
					t.Errorf("caller %d request %d: reference predict: %v", c, i, err)
					return
				}
				if got.Class != class || got.Expert != snap.Experts()[idx].ID || got.Matched != matched {
					t.Errorf("caller %d request %d: served class=%d expert=%d matched=%v, its own input gives class=%d expert=%d matched=%v",
						c, i, got.Class, got.Expert, got.Matched, class, snap.Experts()[idx].ID, matched)
					return
				}
			}
		}(c)
	}
	// Every new caller holds a slot and waits on it before the held batches
	// (and their abandoned slots) are answered.
	waitAdmitted(abandoned + callers)
	startWorkers()
	wg.Wait()
	if m := srv.Metrics().Snapshot(); m.Requests != abandoned+callers*perCaller || m.Errored != 0 || m.Rejected != 0 {
		t.Fatalf("requests=%d errored=%d rejected=%d, want %d/0/0 (abandoned requests still execute)",
			m.Requests, m.Errored, m.Rejected, abandoned+callers*perCaller)
	}
}

// driveCallers issues total requests from the given number of concurrent
// callers, each striding through stream from its own offset.
func driveCallers(tb testing.TB, srv *Server, stream []tensor.Vector, callers, total int) {
	tb.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		n := total / callers
		if c < total%callers {
			n++
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := srv.PredictSpan(ctx, stream[(c+i*callers)%len(stream)], nil, time.Time{}); err != nil {
					tb.Errorf("caller %d: %v", c, err)
					return
				}
			}
		}(c, n)
	}
	wg.Wait()
}

func inputStream(dim, n int, seed uint64) []tensor.Vector {
	rng := tensor.NewRNG(seed)
	stream := make([]tensor.Vector, n)
	for i := range stream {
		stream[i] = rng.NormVec(dim, 0, 1)
	}
	return stream
}

// TestSwapLeavesRetiredSnapshotCollectable is the other half of recycling:
// slots idle in the pool, buckets idle in theirs, and the dispatcher's emptied
// bucket map must not keep a swapped-out snapshot reachable. One collection
// after the swap has to free it — a second would also empty the sync.Pools
// and hide a slot that still pinned it.
func TestSwapLeavesRetiredSnapshotCollectable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector keeps shadow references; reachability is probed without it")
	}
	_, retired := loadTiny(t)
	srv, err := NewServer(retired, Config{Workers: 2, MaxBatch: 8, MaxDelay: 200 * time.Microsecond, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	collected := make(chan struct{})
	runtime.SetFinalizer(retired, func(*Snapshot) { close(collected) })
	// Routed and unrouted buckets both: 48 hot inputs hit the cache after
	// their first pass.
	driveCallers(t, srv, inputStream(retired.InputDim(), 48, 61), 8, 2000)
	retired = nil

	next, err := LoadSnapshot(tinyCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Swap(next); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("the retired snapshot is still reachable one collection after the swap, with the server idle")
	}
}

// TestPredictLeavesNoGarbage pins the request path's allocation budget: once
// slots, buckets, worker scratch and the route cache's slab are warm, a
// request creates nothing. The budget is an average, not zero — every GC
// cycle empties the sync.Pools and the cache index occasionally regrows.
func TestPredictLeavesNoGarbage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const (
		cacheSize = 256
		callers   = 8
		requests  = 4096
	)
	for _, tc := range []struct {
		name   string
		inputs int
		hit    bool
	}{
		{"all-distinct", 3 * requests, false}, // no input repeats, warm-up included: 48 times the cache
		{"hot", cacheSize / 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, snap := loadTiny(t)
			srv, err := NewServer(snap, Config{Workers: 2, CacheSize: cacheSize})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			stream := inputStream(snap.InputDim(), tc.inputs, 71)
			driveCallers(t, srv, stream, callers, 2*requests) // warm-up
			if !tc.hit {
				stream = stream[2*requests:]
			}
			m0 := srv.Metrics().Snapshot()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			driveCallers(t, srv, stream, callers, requests)
			runtime.ReadMemStats(&after)
			m1 := srv.Metrics().Snapshot()

			hits := m1.CacheHits - m0.CacheHits
			if tc.hit && hits < requests*95/100 || !tc.hit && hits != 0 {
				t.Fatalf("%d of %d requests hit the route cache; the stream is not exercising the intended path", hits, requests)
			}
			if perReq := float64(after.Mallocs-before.Mallocs) / requests; perReq > 0.1 {
				t.Fatalf("%.3f allocations per request (%d B each on average), want <= 0.1",
					perReq, (after.TotalAlloc-before.TotalAlloc)/(after.Mallocs-before.Mallocs))
			}
		})
	}
}

// BenchmarkPredict is the in-process request path at the benchmark's
// operating point (32 closed-loop callers): cold never hits the route cache,
// warm always does.
func BenchmarkPredict(b *testing.B) {
	for _, bc := range []struct {
		name   string
		inputs int
	}{
		{"cold", 4 * 4096},
		{"warm", 2048},
	} {
		b.Run(bc.name, func(b *testing.B) {
			snap, err := LoadSnapshot(tinyCheckpoint)
			if err != nil {
				b.Fatal(err)
			}
			srv, err := NewServer(snap, Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			stream := inputStream(snap.InputDim(), bc.inputs, 81)
			driveCallers(b, srv, stream, 32, 2*len(stream))
			b.ReportAllocs()
			b.ResetTimer()
			driveCallers(b, srv, stream, 32, b.N)
		})
	}
}
