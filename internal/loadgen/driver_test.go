package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// funcTarget adapts a function to Target and counts the requests it saw.
type funcTarget struct {
	calls atomic.Int64
	do    func(n int64, model string, x tensor.Vector) (Answer, error)
}

func (t *funcTarget) Predict(_ context.Context, model string, x tensor.Vector, _ *telemetry.Span, _ time.Time) (Answer, error) {
	return t.do(t.calls.Add(1)-1, model, x)
}

// echoStream is n one-feature items whose feature and label are their index,
// in two alternating regimes; an answer of Class x[0] is correct.
func echoStream(n int) *Stream {
	s := &Stream{}
	for i := 0; i < n; i++ {
		s.Items = append(s.Items, serve.WorkItem{
			X: tensor.Vector{float64(i)}, Y: i, Party: i, Assigned: i % 2,
			Regime: []string{"even", "odd"}[i%2],
		})
	}
	return s
}

func echo(int64, string, tensor.Vector) (Answer, error) { return Answer{}, nil }

var errTooLate = errors.New("too late")

func TestTriggerFiresExactlyBeforeItsMark(t *testing.T) {
	for _, f := range []float64{0.1, 0.5, 0.77} {
		const total = 10 * 7
		tgt := &funcTarget{do: echo}
		var claimed, served int64 = -1, -1
		res, err := Run(context.Background(), tgt, Plan{
			Stream: echoStream(10), Pacing: Pacing{Repeat: 7, Concurrency: 1},
			Triggers: []Trigger{{At: f, TooLate: errTooLate, Fire: func(i int64) error {
				claimed, served = i, tgt.calls.Load()
				return nil
			}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(f * total)
		if claimed != want || served != want {
			t.Errorf("f=%g: fired on claim %d after %d requests, want both %d", f, claimed, served, want)
		}
		if res.Requests != total {
			t.Errorf("f=%g: %d requests completed, want %d", f, res.Requests, total)
		}
	}
}

func TestTriggerErrorsAndFractionBounds(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(context.Background(), &funcTarget{do: echo}, Plan{
		Stream: echoStream(4), Pacing: Pacing{Concurrency: 2},
		Triggers: []Trigger{{At: 0.5, TooLate: errTooLate, Fire: func(int64) error { return boom }}},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want the trigger's own error", err)
	}
	for _, f := range []float64{0, 1, -0.5, 1.5} {
		if _, err := Run(context.Background(), &funcTarget{do: echo}, Plan{
			Stream: echoStream(4), Triggers: []Trigger{{At: f, Fire: func(int64) error { return nil }}},
		}); err == nil {
			t.Errorf("fraction %g accepted", f)
		}
	}
}

// A deadline that ends the run short of the mark is the too-late error: one
// slow request spans both the time mark and the deadline, so no worker ever
// claims a request at or past the mark.
func TestDeadlineShortOfTheMarkIsTooLate(t *testing.T) {
	slow := func(int64, string, tensor.Vector) (Answer, error) {
		time.Sleep(30 * time.Millisecond)
		return Answer{}, nil
	}
	fired := false
	_, err := Run(context.Background(), &funcTarget{do: slow}, Plan{
		Stream: echoStream(10), Pacing: Pacing{Repeat: 1000, Concurrency: 1, MaxDuration: 20 * time.Millisecond},
		Triggers: []Trigger{{At: 0.9, TooLate: errTooLate, Fire: func(int64) error { fired = true; return nil }}},
	})
	if !errors.Is(err, errTooLate) || fired {
		t.Fatalf("err=%v fired=%v, want the too-late error and no fire", err, fired)
	}
}

// With a deadline the time mark fires the trigger even though the request
// counter of a huge Repeat never reaches its own mark.
func TestTimeMarkFiresUnderADeadline(t *testing.T) {
	var at time.Duration
	start := time.Now()
	res, err := Run(context.Background(), &funcTarget{do: func(int64, string, tensor.Vector) (Answer, error) {
		time.Sleep(200 * time.Microsecond)
		return Answer{}, nil
	}}, Plan{
		Stream: echoStream(10), Pacing: Pacing{Repeat: 1 << 20, Concurrency: 2, MaxDuration: 60 * time.Millisecond},
		Triggers: []Trigger{{At: 0.5, TooLate: errTooLate, Fire: func(int64) error { at = time.Since(start); return nil }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if at < 30*time.Millisecond || at > 60*time.Millisecond {
		t.Errorf("fired %v into a 60ms run, want at its half", at)
	}
	if res.Duration < 60*time.Millisecond || res.Requests >= 10<<20 {
		t.Errorf("deadline did not end the run: %v, %d requests", res.Duration, res.Requests)
	}
}

func TestCancelStopsWithinOneRequest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tgt := &funcTarget{}
	tgt.do = func(n int64, _ string, _ tensor.Vector) (Answer, error) {
		if n == 4 {
			cancel()
		}
		return Answer{}, nil
	}
	res, err := Run(ctx, tgt, Plan{
		Stream: echoStream(10), Pacing: Pacing{Repeat: Unbounded, Concurrency: 1},
		Triggers: []Trigger{{At: 0.5, TooLate: errTooLate, Fire: func(int64) error { return nil }}},
	})
	if err != nil {
		t.Fatalf("a cancelled run is a partial result, not an error (and its unfired trigger not too late): %v", err)
	}
	if got := tgt.calls.Load(); got != 5 || res.Requests != 5 {
		t.Fatalf("%d requests issued, %d completed after cancelling inside the fifth", got, res.Requests)
	}
}

func TestPacingHoldsTheTargetRate(t *testing.T) {
	const qps, total = 400.0, 20
	res, err := Run(context.Background(), &funcTarget{do: echo}, Plan{
		Stream: echoStream(total), Pacing: Pacing{Concurrency: 4, TargetQPS: qps},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Request i is not issued before start + i/qps, so the run lasts at
	// least (total-1)/qps however many workers share it.
	if floor := time.Duration(float64(total-1) / qps * float64(time.Second)); res.Duration < floor {
		t.Fatalf("paced run took %v, want at least %v", res.Duration, floor)
	}
	if res.Requests != total {
		t.Fatalf("%d requests completed, want %d", res.Requests, total)
	}

	// A cancelled paced run does not sleep out its schedule.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	begin := time.Now()
	if _, err := Run(ctx, &funcTarget{do: echo}, Plan{Stream: echoStream(total), Pacing: Pacing{Concurrency: 2, TargetQPS: 1}}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took > 500*time.Millisecond {
		t.Fatalf("cancelled paced run returned after %v", took)
	}
}

// TestRunTalliesAndSlices pins the accounting: outcomes land in exactly one
// of completed/rejected/errored, completed requests are scored against the
// item's ground truth, and the regime and model slices each partition the
// total — including across a mid-run stream shift.
func TestRunTalliesAndSlices(t *testing.T) {
	s := echoStream(10)
	s.Shifted = make([]serve.WorkItem, len(s.Items))
	for i, it := range s.Items {
		it.Regime = "shifted"
		s.Shifted[i] = it
	}
	tgt := &funcTarget{do: func(_ int64, model string, x tensor.Vector) (Answer, error) {
		switch i := int(x[0]); {
		case i == 3:
			return Answer{}, fmt.Errorf("admission: %w", serve.ErrOverloaded)
		case i == 4:
			return Answer{}, errors.New("boom")
		case i == 5:
			return Answer{Class: -1}, nil
		default:
			// Always routed to expert 0 (the even items' assignment); model
			// "b" (which the even items go to) answers from the gateway cache.
			return Answer{Class: i, Matched: i < 5, GatewayCached: model == "b"}, nil
		}
	}}
	res, err := Run(context.Background(), tgt, Plan{
		Stream: s, Models: []string{"b", "a"}, Pacing: Pacing{Repeat: 4, Concurrency: 3},
		Triggers: []Trigger{{At: 0.5, TooLate: errTooLate, Fire: func(int64) error { s.Shift(); return nil }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 32 || res.Rejected != 4 || res.Errors != 4 {
		t.Fatalf("completed/rejected/errored = %d/%d/%d, want 32/4/4", res.Requests, res.Rejected, res.Errors)
	}
	if res.Correct != 28 || res.AssignedKnown != 32 || res.RoutedToAssigned != 16 || res.Matched != 12 || res.GatewayCached != 16 {
		t.Fatalf("tally %+v", res.Tally)
	}
	if res.Accuracy() != 28.0/32 || res.RoutingAccuracy() != 0.5 {
		t.Fatalf("accuracy %g routing %g", res.Accuracy(), res.RoutingAccuracy())
	}
	for what, slices := range map[string][]Tally{"regimes": res.Regimes, "models": res.Models} {
		var sum Tally
		for i, g := range slices {
			sum.add(g)
			if i > 0 && slices[i-1].Name >= g.Name {
				t.Errorf("%s not sorted by name: %q before %q", what, slices[i-1].Name, g.Name)
			}
		}
		sum.Name = ""
		if sum != res.Tally {
			t.Errorf("%s sum to %+v, total is %+v", what, sum, res.Tally)
		}
	}
	if len(res.Regimes) != 3 || len(res.Models) != 2 || res.Models[0].Name != "a" {
		t.Fatalf("regimes %+v models %+v", res.Regimes, res.Models)
	}
	if l := res.Latency; l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.Max || l.Max <= 0 {
		t.Fatalf("latency quantiles disordered: %+v", l)
	}
}

func TestRunRejectsAnEmptyOrRaggedStream(t *testing.T) {
	if _, err := Run(context.Background(), &funcTarget{do: echo}, Plan{Stream: &Stream{}}); err == nil {
		t.Error("empty stream accepted")
	}
	s := echoStream(4)
	s.Shifted = s.Items[:3]
	if _, err := Run(context.Background(), &funcTarget{do: echo}, Plan{Stream: s}); err == nil {
		t.Error("shifted stream of another length accepted")
	}
}

// TestPairedTrials scripts four pairs: the warm-up (the fastest run of all)
// must be discarded, each side keeps its own best trial, and the extra
// travels with the treated side's best.
func TestPairedTrials(t *testing.T) {
	run := func(requests uint64) *Result {
		return &Result{Tally: Tally{Requests: requests}, Duration: time.Second}
	}
	baselines := []uint64{9999, 100, 140, 120, 110} // first is the warm-up
	treateds := []uint64{90, 95, 130, 125}
	var b, tr int
	p, err := PairedTrials(4,
		func() (*Result, error) { b++; return run(baselines[b-1]), nil },
		func() (*Result, string, error) { tr++; return run(treateds[tr-1]), fmt.Sprint("trial ", tr), nil })
	if err != nil {
		t.Fatal(err)
	}
	if b != 5 || tr != 4 || p.Trials != 4 {
		t.Fatalf("%d baseline and %d treated runs for %d pairs", b, tr, p.Trials)
	}
	if p.Baseline.Requests != 140 || p.Treated.Requests != 130 || p.Extra != "trial 3" {
		t.Fatalf("best baseline %d, best treated %d (%s)", p.Baseline.Requests, p.Treated.Requests, p.Extra)
	}
	if got, want := p.OverheadPercent(), (1-130.0/140)*100; math.Abs(got-want) > 1e-9 {
		t.Fatalf("overhead %g%%, want %g%%", got, want)
	}

	// One default, and errors name the trial.
	n := 0
	if d, err := PairedTrials(0,
		func() (*Result, error) { return run(1), nil },
		func() (*Result, int, error) { n++; return run(1), n, nil }); err != nil || d.Trials != DefaultTrials || n != DefaultTrials {
		t.Fatalf("default: %d treated runs, want %d (err %v)", n, DefaultTrials, err)
	}
	boom := errors.New("boom")
	if _, err := PairedTrials(2,
		func() (*Result, error) { return run(1), nil },
		func() (*Result, int, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
}
