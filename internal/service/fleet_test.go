package service

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/fl"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// faultTransport wraps a Transport and fails configured parties/ops.
type faultTransport struct {
	Transport

	mu sync.Mutex
	// failTrain maps partyID → how many further Train calls fail.
	failTrain map[int]int
	// dead parties fail every call.
	dead map[int]bool
	// hang delays Train forever for these parties (until test end).
	hang map[int]bool
	// failAdvance parties stay alive but reject window advances.
	failAdvance map[int]bool
	// trainCalls counts Train attempts per party.
	trainCalls map[int]int
}

func newFaultTransport(inner Transport) *faultTransport {
	return &faultTransport{
		Transport:   inner,
		failTrain:   make(map[int]int),
		dead:        make(map[int]bool),
		hang:        make(map[int]bool),
		failAdvance: make(map[int]bool),
		trainCalls:  make(map[int]int),
	}
}

func (f *faultTransport) Train(partyID int, arch []int, global tensor.Vector, cfg fl.TrainConfig) (fl.Update, error) {
	f.mu.Lock()
	f.trainCalls[partyID]++
	if f.dead[partyID] {
		f.mu.Unlock()
		return fl.Update{}, fmt.Errorf("party %d is dead", partyID)
	}
	if f.hang[partyID] {
		f.mu.Unlock()
		time.Sleep(10 * time.Second)
		return fl.Update{}, errors.New("hung call released")
	}
	if n := f.failTrain[partyID]; n > 0 {
		f.failTrain[partyID] = n - 1
		f.mu.Unlock()
		return fl.Update{}, fmt.Errorf("party %d transient failure", partyID)
	}
	f.mu.Unlock()
	return f.Transport.Train(partyID, arch, global, cfg)
}

func (f *faultTransport) Stats(partyID int, arch []int, encoder tensor.Vector, numClasses int, seed uint64) (detect.PartyStats, error) {
	f.mu.Lock()
	deadParty := f.dead[partyID]
	f.mu.Unlock()
	if deadParty {
		return detect.PartyStats{}, fmt.Errorf("party %d is dead", partyID)
	}
	return f.Transport.Stats(partyID, arch, encoder, numClasses, seed)
}

func (f *faultTransport) Eval(partyID int, arch []int, params tensor.Vector) (float64, error) {
	f.mu.Lock()
	deadParty := f.dead[partyID]
	f.mu.Unlock()
	if deadParty {
		return 0, fmt.Errorf("party %d is dead", partyID)
	}
	return f.Transport.Eval(partyID, arch, params)
}

func (f *faultTransport) Hist(partyID, numClasses int) (stats.Histogram, error) {
	f.mu.Lock()
	deadParty := f.dead[partyID]
	f.mu.Unlock()
	if deadParty {
		return nil, fmt.Errorf("party %d is dead", partyID)
	}
	return f.Transport.Hist(partyID, numClasses)
}

func (f *faultTransport) Advance(partyID, w int) error {
	f.mu.Lock()
	blocked := f.dead[partyID] || f.failAdvance[partyID]
	f.mu.Unlock()
	if blocked {
		return fmt.Errorf("party %d cannot advance", partyID)
	}
	return f.Transport.Advance(partyID, w)
}

func (f *faultTransport) kill(partyID int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dead[partyID] = true
}

func testFleet(t *testing.T, tr Transport, fan FanoutConfig) *Fleet {
	t.Helper()
	sc := testScenario(t, 5)
	_ = sc
	opts := testOptions(sc, 5)
	fleet, err := NewFleet(tr, opts.Arch, opts.NumClasses, opts.Windows, opts.Seed, fan, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

func scenarioTransport(t *testing.T) *LocalTransport {
	t.Helper()
	sc := testScenario(t, 5)
	tr, err := LocalTransportForScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func trainCfg() fl.TrainConfig {
	return fl.TrainConfig{Epochs: 1, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 3}
}

func TestRoundQuorum(t *testing.T) {
	ft := newFaultTransport(scenarioTransport(t))
	ft.kill(1)
	ft.kill(2)

	fleet := testFleet(t, ft, FanoutConfig{Quorum: 0.5})
	params, err := fleet.InitialParams()
	if err != nil {
		t.Fatal(err)
	}

	// 3 of 5 selected alive ≥ 50% quorum: round completes on survivors.
	next, updates, err := fleet.Round(params, []int{0, 1, 2, 3, 4}, trainCfg())
	if err != nil {
		t.Fatalf("round above quorum failed: %v", err)
	}
	if len(updates) != 3 || next == nil {
		t.Fatalf("got %d updates, want 3", len(updates))
	}
	for _, u := range updates {
		if u.PartyID == 1 || u.PartyID == 2 {
			t.Fatalf("dead party %d reported an update", u.PartyID)
		}
	}

	// 1 of 3 selected alive < 50% quorum: round fails, naming the parties.
	_, _, err = fleet.Round(params, []int{0, 1, 2}, trainCfg())
	if err == nil {
		t.Fatal("round below quorum should fail")
	}
	if !strings.Contains(err.Error(), "quorum") || !strings.Contains(err.Error(), "party 1") {
		t.Fatalf("quorum error should name the failed parties, got: %v", err)
	}
}

func TestRoundStrictQuorumDefault(t *testing.T) {
	ft := newFaultTransport(scenarioTransport(t))
	ft.kill(4)
	fleet := testFleet(t, ft, FanoutConfig{}) // Quorum 0 = all must report
	params, err := fleet.InitialParams()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fleet.Round(params, []int{3, 4}, trainCfg()); err == nil {
		t.Fatal("strict quorum should fail when any party drops")
	}
	if _, _, err := fleet.Round(params, []int{0, 3}, trainCfg()); err != nil {
		t.Fatalf("all-alive round failed: %v", err)
	}
}

func TestRoundRetriesTransientFailure(t *testing.T) {
	ft := newFaultTransport(scenarioTransport(t))
	ft.mu.Lock()
	ft.failTrain[0] = 2 // first two attempts fail, third succeeds
	ft.mu.Unlock()

	fleet := testFleet(t, ft, FanoutConfig{Retries: 2})
	params, err := fleet.InitialParams()
	if err != nil {
		t.Fatal(err)
	}
	_, updates, err := fleet.Round(params, []int{0, 1}, trainCfg())
	if err != nil {
		t.Fatalf("round with transient failure should recover: %v", err)
	}
	if len(updates) != 2 {
		t.Fatalf("got %d updates, want 2", len(updates))
	}
	ft.mu.Lock()
	calls := ft.trainCalls[0]
	ft.mu.Unlock()
	if calls != 3 {
		t.Fatalf("party 0 trained %d times, want 3 (2 failures + 1 success)", calls)
	}
}

func TestRoundTimeoutCutsStraggler(t *testing.T) {
	ft := newFaultTransport(scenarioTransport(t))
	ft.mu.Lock()
	ft.hang[1] = true
	ft.mu.Unlock()

	fleet := testFleet(t, ft, FanoutConfig{Timeout: 200 * time.Millisecond, Quorum: 0.5})
	params, err := fleet.InitialParams()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, updates, err := fleet.Round(params, []int{0, 1}, trainCfg())
	if err != nil {
		t.Fatalf("round should tolerate the straggler under quorum: %v", err)
	}
	if len(updates) != 1 || updates[0].PartyID != 0 {
		t.Fatalf("expected only party 0's update, got %+v", updates)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("straggler stalled the round for %s", elapsed)
	}
}

func TestSetWindowToleratesDeadParty(t *testing.T) {
	ft := newFaultTransport(scenarioTransport(t))
	ft.kill(0)
	fleet := testFleet(t, ft, FanoutConfig{})
	if err := fleet.SetWindow(1); err != nil {
		t.Fatalf("SetWindow should tolerate one dead party: %v", err)
	}
	if fleet.Window() != 1 {
		t.Fatalf("window = %d, want 1", fleet.Window())
	}
	if err := fleet.SetWindow(99); err == nil {
		t.Fatal("out-of-range window should fail")
	}
}

// TestStaleAdvanceExcludesParty: a live party that misses a window advance
// must not serve stale-window data — it is excluded from rounds until an
// advance succeeds again.
func TestStaleAdvanceExcludesParty(t *testing.T) {
	ft := newFaultTransport(scenarioTransport(t))
	ft.mu.Lock()
	ft.failAdvance[1] = true
	ft.mu.Unlock()

	fleet := testFleet(t, ft, FanoutConfig{Quorum: 0.5})
	params, err := fleet.InitialParams()
	if err != nil {
		t.Fatal(err)
	}

	if err := fleet.SetWindow(1); err != nil {
		t.Fatalf("SetWindow should tolerate one failed advance: %v", err)
	}
	// Party 1 is alive and would happily train — on window-0 data. It must
	// be excluded.
	_, updates, err := fleet.Round(params, []int{0, 1}, trainCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != 1 || updates[0].PartyID != 0 {
		t.Fatalf("stale party leaked into the round: %+v", updates)
	}
	sts, err := fleet.StatsAll(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if st.PartyID == 1 {
			t.Fatal("stale party leaked into statistics")
		}
	}

	// Once the party advances again it rejoins.
	ft.mu.Lock()
	ft.failAdvance[1] = false
	ft.mu.Unlock()
	if err := fleet.SetWindow(2); err != nil {
		t.Fatal(err)
	}
	_, updates, err = fleet.Round(params, []int{0, 1}, trainCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != 2 {
		t.Fatalf("recovered party did not rejoin: %+v", updates)
	}
}

func TestPartyHistsFallbackUniform(t *testing.T) {
	ft := newFaultTransport(scenarioTransport(t))
	ft.kill(2)
	fleet := testFleet(t, ft, FanoutConfig{})
	hists := fleet.PartyHists()
	if len(hists) != 8 {
		t.Fatalf("got %d histograms, want 8", len(hists))
	}
	for c, v := range hists[2] {
		if v != 1/float64(len(hists[2])) {
			t.Fatalf("dead party histogram not uniform at class %d: %g", c, v)
		}
	}
	// A live party's histogram reflects its data, not the fallback.
	uniform := true
	for _, v := range hists[0] {
		if v != hists[0][0] {
			uniform = false
		}
	}
	if uniform {
		t.Error("live party histogram unexpectedly uniform")
	}
}

func TestLocalFineTuneFallsBackToInput(t *testing.T) {
	ft := newFaultTransport(scenarioTransport(t))
	ft.kill(3)
	fleet := testFleet(t, ft, FanoutConfig{})
	params, err := fleet.InitialParams()
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := fleet.LocalFineTune(3, params, trainCfg())
	if err != nil {
		t.Fatalf("fine-tune of dead party should not error: %v", err)
	}
	if &tuned[0] != &params[0] {
		t.Fatal("dead party fine-tune should return the input parameters")
	}
}

func TestNewFleetValidation(t *testing.T) {
	tr := scenarioTransport(t)
	if _, err := NewFleet(nil, []int{4, 3, 2}, 2, 1, 1, FanoutConfig{}, nil); err == nil {
		t.Error("nil transport should fail")
	}
	if _, err := NewFleet(tr, []int{4, 2}, 2, 1, 1, FanoutConfig{}, nil); err == nil {
		t.Error("short arch should fail")
	}
	if _, err := NewFleet(tr, []int{4, 3, 2}, 1, 1, 1, FanoutConfig{}, nil); err == nil {
		t.Error("single class should fail")
	}
	if _, err := NewFleet(tr, []int{4, 3, 2}, 2, 0, 1, FanoutConfig{}, nil); err == nil {
		t.Error("zero windows should fail")
	}
	empty := NewLocalTransport()
	if _, err := NewFleet(empty, []int{4, 3, 2}, 2, 1, 1, FanoutConfig{}, nil); err == nil {
		t.Error("empty transport should fail")
	}
}

func TestQuorumNeed(t *testing.T) {
	tests := []struct {
		q    float64
		n    int
		want int
	}{
		{0, 4, 4},    // default: all
		{1, 4, 4},    // explicit all
		{0.5, 4, 2},  // half
		{0.5, 5, 3},  // ceil
		{0.01, 8, 1}, // floor at 1
		{2.0, 4, 4},  // out of range → all
	}
	for _, tt := range tests {
		if got := (FanoutConfig{Quorum: tt.q}).QuorumNeed(tt.n); got != tt.want {
			t.Errorf("quorumNeed(q=%g, n=%d) = %d, want %d", tt.q, tt.n, got, tt.want)
		}
	}
}

// TestCallTimeoutLeavesNoTimers: a call that returns in time must not leave
// its timeout behind. go.mod pins pre-1.23 timer semantics, under which an
// unstopped timer stays reachable from the runtime until it fires — with the
// fleet's 1-minute (here 1-hour) timeout that is a timer and its channel per
// call, for the whole duration.
func TestCallTimeoutLeavesNoTimers(t *testing.T) {
	const calls = 10000
	heapObjects := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what the first one's sweep released
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	before := heapObjects()
	for i := 0; i < calls; i++ {
		if v, err := CallTimeout(time.Hour, func() (int, error) { return i, nil }); err != nil || v != i {
			t.Fatalf("call %d = (%d, %v)", i, v, err)
		}
	}
	after := heapObjects()
	// A stranded timer is at least two objects (timer, channel): 20000 if
	// every call leaks. Leave room for scheduler and test-runner noise.
	if grew := int64(after) - int64(before); grew > calls/10 {
		t.Fatalf("%d timed calls left %d heap objects behind, want none reachable", calls, grew)
	}
}
