package service

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fl"
	"repro/internal/tensor"
)

// poisonTransport overwrites every vector the fleet recycles with NaN before
// the pool sees it: whoever still held a round's Update.Params past the next
// Round reads NaN, and the parity tests that run over it stop agreeing.
type poisonTransport struct{ Transport }

func (p poisonTransport) Recycle(params tensor.Vector) {
	params.Fill(math.NaN())
	p.Transport.Recycle(params)
}

// stragglerTransport holds the first Train call to one party — past the
// fan-out timeout, so the fleet abandons it — and lets it run only once a
// later round is under way: every call of that round waits at the door until
// the abandoned one has trained and returned.
type stragglerTransport struct {
	Transport
	party     int
	held      atomic.Bool
	release   chan struct{}
	finished  chan struct{}
	nextRound atomic.Bool
	letGo     sync.Once
}

func (s *stragglerTransport) Train(id int, arch []int, global tensor.Vector, cfg fl.TrainConfig) (fl.Update, error) {
	if id == s.party && s.held.CompareAndSwap(false, true) {
		<-s.release
		defer close(s.finished)
	} else if s.nextRound.Load() {
		s.letGo.Do(func() {
			close(s.release)
			<-s.finished
		})
	}
	return s.Transport.Train(id, arch, global, cfg)
}

// TestAbandonedTrainCallNeverAliasesARecycledBuffer: a call the fan-out timed
// out on keeps running, reads the round's input and fills a buffer of its own
// while the next round — which has just recycled the previous round's updates
// — trains. The next round's updates and aggregate are those of a fleet that
// never had a straggler, the abandoned round's input is untouched, and the
// race detector sees no two calls in one buffer.
func TestAbandonedTrainCallNeverAliasesARecycledBuffer(t *testing.T) {
	cfg1, cfg2 := trainCfg(), trainCfg()
	cfg2.Seed = 4

	clean := testFleet(t, scenarioTransport(t), FanoutConfig{})
	params, err := clean.InitialParams()
	if err != nil {
		t.Fatal(err)
	}
	wantAgg1, _, err := clean.Round(params, []int{0, 1}, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	wantAgg2, wantUpdates, err := clean.Round(wantAgg1, []int{0, 1, 2}, cfg2)
	if err != nil {
		t.Fatal(err)
	}

	st := &stragglerTransport{Transport: scenarioTransport(t), party: 2, release: make(chan struct{}), finished: make(chan struct{})}
	fleet := testFleet(t, st, FanoutConfig{Timeout: 100 * time.Millisecond, Quorum: 0.5})
	sent := params.Clone()
	agg1, updates1, err := fleet.Round(params, []int{0, 1, 2}, cfg1)
	if err != nil {
		t.Fatalf("round should complete without the straggler: %v", err)
	}
	if len(updates1) != 2 || !reflect.DeepEqual(agg1, wantAgg1) {
		t.Fatalf("round 1: %d updates, aggregate equal to the clean fleet's: %v", len(updates1), reflect.DeepEqual(agg1, wantAgg1))
	}
	st.nextRound.Store(true)
	agg2, updates2, err := fleet.Round(agg1, []int{0, 1, 2}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-st.finished:
	default:
		t.Fatal("the abandoned call did not complete during the second round")
	}
	if !reflect.DeepEqual(updates2, wantUpdates) {
		t.Error("round 2 updates differ from the clean fleet's: a buffer was shared with the abandoned call")
	}
	if !reflect.DeepEqual(agg2, wantAgg2) {
		t.Error("round 2 aggregate differs from the clean fleet's")
	}
	if !reflect.DeepEqual(params, sent) {
		t.Error("the abandoned round's input parameters were overwritten")
	}
}

// TestRoundRecyclesOnlyThePreviousRoundsUpdates pins the ownership rule on the
// fleet's side: a round's updates are intact until the next Round, handed
// back — each once — when it starts, and a fine-tune result, which the
// aggregator keeps, never is.
func TestRoundRecyclesOnlyThePreviousRoundsUpdates(t *testing.T) {
	rec := &recordingTransport{Transport: scenarioTransport(t)}
	fleet := testFleet(t, rec, FanoutConfig{})
	params, err := fleet.InitialParams()
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := fleet.LocalFineTune(3, params, trainCfg())
	if err != nil {
		t.Fatal(err)
	}
	_, updates, err := fleet.Round(params, []int{0, 1}, trainCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.recycled) != 0 {
		t.Fatalf("%d vectors recycled before the next round", len(rec.recycled))
	}
	kept := []tensor.Vector{updates[0].Params.Clone(), updates[1].Params.Clone()}
	if _, _, err := fleet.Round(params, []int{2}, trainCfg()); err != nil {
		t.Fatal(err)
	}
	if len(rec.recycled) != 2 || !reflect.DeepEqual(rec.recycled, kept) {
		t.Fatalf("the next round recycled %d vectors, want exactly the previous round's two updates", len(rec.recycled))
	}
	if &rec.recycled[0][0] == &tuned[0] || &rec.recycled[1][0] == &tuned[0] {
		t.Fatal("a fine-tune result was recycled")
	}
}

// recordingTransport keeps what the fleet recycles instead of pooling it.
type recordingTransport struct {
	Transport
	recycled []tensor.Vector
}

func (r *recordingTransport) Recycle(params tensor.Vector) { r.recycled = append(r.recycled, params) }
