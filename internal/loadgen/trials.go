package loadgen

import "fmt"

// DefaultTrials is the number of interleaved baseline/treated trial pairs
// PairedTrials runs when the caller does not choose.
const DefaultTrials = 5

// trial is what PairedTrials ranks: a run with a throughput.
type trial interface{ Throughput() float64 }

// Paired is the outcome of PairedTrials: each side's best trial, and what
// the treated side's best trial reported besides its run.
type Paired[R trial, T any] struct {
	Trials            int // pairs run
	Baseline, Treated R
	Extra             T
}

// OverheadPercent is the treatment's cost on throughput, (baseline −
// treated) / baseline, in percent; negative means the treated side was
// faster (noise).
func (p *Paired[R, T]) OverheadPercent() float64 {
	if b := p.Baseline.Throughput(); b > 0 {
		return (1 - p.Treated.Throughput()/b) * 100
	}
	return 0
}

// PairedTrials is the A/B protocol every overhead benchmark uses: one
// baseline run as warm-up (discarded; it absorbs scheduler and frequency
// ramp-up so the first baseline is not unfairly slow), then trials
// interleaved pairs — a baseline run, then a treated run. Each side reports
// its best trial by throughput: ambient interference (other tenants, GC of
// unrelated heaps) only ever slows a trial down, so the per-side maximum is
// the cleanest estimate of each configuration's capability, and
// interleaving keeps slow drift from landing on one side.
func PairedTrials[R trial, T any](trials int, baseline func() (R, error), treated func() (R, T, error)) (*Paired[R, T], error) {
	if trials <= 0 {
		trials = DefaultTrials
	}
	if _, err := baseline(); err != nil {
		return nil, fmt.Errorf("loadgen: warm-up: %w", err)
	}
	p := &Paired[R, T]{Trials: trials}
	for i := 1; i <= trials; i++ {
		b, err := baseline()
		if err != nil {
			return nil, fmt.Errorf("loadgen: baseline trial %d: %w", i, err)
		}
		t, extra, err := treated()
		if err != nil {
			return nil, fmt.Errorf("loadgen: treated trial %d: %w", i, err)
		}
		if i == 1 || b.Throughput() > p.Baseline.Throughput() {
			p.Baseline = b
		}
		if i == 1 || t.Throughput() > p.Treated.Throughput() {
			p.Treated, p.Extra = t, extra
		}
	}
	return p, nil
}
