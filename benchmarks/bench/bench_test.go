package bench

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

func TestQuietestPicksHighestCompletedRate(t *testing.T) {
	segs := []segment{
		{tally: tally{attempted: 100}, wall: 2 * time.Second},             // 50/s
		{tally: tally{attempted: 100}, wall: time.Second},                 // 100/s
		{tally: tally{attempted: 100, failed: 60}, wall: time.Second / 2}, // fast only because it failed: 80/s
	}
	if got := quietest(segs); got != 1 {
		t.Fatalf("quietest = %d, want 1 (failed ops must not count as completed work)", got)
	}
	if got := quietest(nil); got != -1 {
		t.Fatalf("quietest(nil) = %d, want -1", got)
	}
}

func TestPercentileReportsSamplesBeyond(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		v      int64
		beyond int
	}{{0.50, 501, 499}, {0.99, 991, 9}, {1, 1000, 0}, {0, 1, 999}} {
		v, beyond := percentile(sorted, c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("percentile(%g) = %d with %d beyond, want %d with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %d, %d", v, beyond)
	}
	// A p99 over four samples is the maximum with nothing beyond it: the
	// count is what tells a reader not to trust it as a tail.
	if v, beyond := percentile([]int64{1, 2, 3, 4}, 0.99); v != 4 || beyond != 0 {
		t.Errorf("p99 of 4 samples = %d with %d beyond", v, beyond)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if got := median(xs); got != 5.5 {
		t.Fatalf("median = %g, want 5.5", got)
	}
	if got, want := spread(xs), 5.5/5.5; got != want {
		t.Fatalf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of 3 = %g, %g; want 1, 4", q1, q3)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "window", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps a: a fan-out
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // overruns the parent
		{Name: "a.inner", ID: 5, Parent: 2, Start: 12, End: 18},
		{Name: "other", ID: 6, Start: 0, End: 7},
	}
	self := selfTimes(spans)
	want := map[int32]int64{
		1: 100 - (40 + 10), // [10,50] and [90,100]
		2: 20 - 6,
		3: 30,
		4: 30,
		5: 6,
		6: 7,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	if got := sumByName(spans)["a"]; got != 20 {
		t.Errorf("sumByName a = %d, want 20", got)
	}
}

func TestTracerNilAndFull(t *testing.T) {
	var none *tracer
	if id := none.add("x", 1, 0, time.Now(), time.Now()); id != 0 || none.recorded() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
	tr := newTracer(2)
	now := time.Now()
	a := tr.open("a", 1, 0, now)
	tr.close(a, now.Add(time.Millisecond))
	tr.add("b", 1, a, now, now)
	if id := tr.add("c", 1, a, now, now); id != 0 {
		t.Fatalf("span beyond capacity got id %d", id)
	}
	if len(tr.recorded()) != 2 || tr.dropped.Load() != 1 {
		t.Fatalf("recorded %d dropped %d, want 2 and 1", len(tr.recorded()), tr.dropped.Load())
	}
	if d := tr.recorded()[0].End - tr.recorded()[0].Start; d != int64(time.Millisecond) {
		t.Fatalf("span duration %d", d)
	}
}

// TestReplayAccountsFailedOps drives the load generator against a fake layer:
// an errored request, a refusal and a wrong answer are all failed ops, and a
// failed op is never counted as a correct prediction even when its class
// happens to equal the label.
func TestReplayAccountsFailedOps(t *testing.T) {
	const n = 1000
	s := stream{reqs: make([]request, n), want: make([]expected, n)}
	for i := range s.reqs {
		s.reqs[i].y = i % 2 // the oracle's class 1 is the right label for odd inputs
		s.want[i] = expected{class: 1, expert: 7}
	}
	tgt := func(i int) (answer, bool) {
		switch {
		case i%10 == 0: // errored or refused
			return answer{class: 1, expert: 7}, false
		case i%10 == 1: // answered, but not what the oracle computes
			return answer{class: 1, expert: 8}, true
		}
		return answer{class: 1, expert: 7, version: 3}, true
	}
	lat := make([]int64, n)
	got := loadgen{clients: 4}.replay(s, 0, n, lat, -1, tgt)
	want := tally{attempted: n, failed: 200, correct: 400}
	if got != want {
		t.Fatalf("tally = %+v, want %+v", got, want)
	}
	if got.errorShare() != 0.2 || got.accuracy() != 0.4 {
		t.Fatalf("error share %g accuracy %g, want 0.2 and 0.4", got.errorShare(), got.accuracy())
	}
	for i, d := range lat {
		if d < 0 {
			t.Fatalf("latency[%d] = %d", i, d)
		}
	}
	// A snapshot-version check turns every answer from another version into
	// a failed op.
	if got := (loadgen{clients: 2}).replay(s, 0, n, lat, 4, tgt); got.failed != n {
		t.Fatalf("with the wrong version expected, failed = %d, want %d", got.failed, n)
	}
	var zero tally
	if zero.errorShare() != 0 || zero.accuracy() != 0 {
		t.Fatal("an empty tally must not divide by zero")
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 90, "higher"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("throughput 100 -> 90 is worse by %g, want 0.1", got)
	}
	if got := worseBy(100, 90, "lower"); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("latency 100 -> 90 is worse by %g, want -0.1", got)
	}
}

// TestSmoke runs every workload once at smoke size — one tiny segment, one
// set-up — and one traced ladder, and checks that the oracle agrees and that
// every metric BENCHMARK.json declares is printed. It asserts no timing; it
// exists so the harness keeps compiling and running as internal/* changes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := LoadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(Workloads))
	}
	check := func(o Options, declared []SpecMetric) {
		t.Helper()
		o.Smoke, o.OutDir, o.Seed = true, t.TempDir(), 42
		res, err := Run(o)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", o.Workload, o.Trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", o.Workload, o.Trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(declared) {
			t.Errorf("%s trace=%v: %d metrics printed, %d declared", o.Workload, o.Trace, len(res.Metrics), len(declared))
		}
		for _, m := range declared {
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("%s trace=%v: metric %s not printed", o.Workload, o.Trace, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: metric %s has unit %q, declared %q", o.Workload, m.Name, got.Unit, m.Unit)
			}
		}
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, Workloads[i])
		}
		check(Options{Workload: w.Name}, spec.EndToEnd)
	}
	check(Options{Workload: "gateway-http", Trace: true}, spec.PerLayer)
}
