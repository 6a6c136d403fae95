package experiments

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
)

// ArtifactSchemaVersion is bumped whenever the BENCH_*.json layout changes
// incompatibly; decoders reject artifacts from other schema versions.
const ArtifactSchemaVersion = 1

// Artifact is the versioned, machine-readable record of one benchmark's
// grid run: every cell's full trace, derived recovery stats, expert
// distributions, and wall-clock cost. It is what `shiftex-bench -json`
// writes as BENCH_<benchmark>.json, and what future PRs diff to back up
// performance claims.
//
// Every field except the per-cell wallClockMs is a deterministic function
// of (benchmark, technique, seed, options); StripTiming removes the rest,
// after which encoded bytes are identical for any worker count.
type Artifact struct {
	Schema  int             `json:"schema"`
	Name    string          `json:"name"`
	Options ArtifactOptions `json:"options"`
	Cells   []CellArtifact  `json:"cells"`
}

// ArtifactOptions records the protocol knobs that determine results.
// Execution-only settings (worker count) are deliberately excluded: they
// must not change the artifact.
type ArtifactOptions struct {
	Scale           float64  `json:"scale"`
	Seeds           []uint64 `json:"seeds"`
	BootstrapRounds int      `json:"bootstrapRounds"`
	RoundsPerWindow int      `json:"roundsPerWindow"`
	Participants    int      `json:"participants"`
	Epochs          int      `json:"epochs"`
}

// Options converts back to runnable experiment options (Workers unset).
func (o ArtifactOptions) Options() Options {
	return Options{
		Scale:           o.Scale,
		Seeds:           o.Seeds,
		BootstrapRounds: o.BootstrapRounds,
		RoundsPerWindow: o.RoundsPerWindow,
		Participants:    o.Participants,
		Epochs:          o.Epochs,
	}
}

// WindowArtifact is one window's derived recovery stats (§6 metrics).
type WindowArtifact struct {
	Drop           float64 `json:"drop"`
	RecoveryRounds int     `json:"recoveryRounds"`
	Max            float64 `json:"max"`
}

// CellArtifact is one grid cell's serialized RunResult.
type CellArtifact struct {
	Benchmark string `json:"benchmark"`
	// Technique is the cell's display name: the registered technique,
	// suffixed "@<policy>" when the cell ran a policy-swept variant.
	Technique string `json:"technique"`
	// Policy is the adaptation policy the cell ran under; empty for the
	// technique's default (keeps default-run artifacts byte-identical to
	// the pre-policy layout).
	Policy string `json:"policy,omitempty"`
	Seed   uint64 `json:"seed"`
	// Traces[w] is window w's per-round mean accuracy.
	Traces [][]float64 `json:"traces"`
	// Windows[w] holds derived metrics for w >= 1 (index 0 is burn-in).
	Windows []WindowArtifact `json:"windows"`
	// Distributions[w] maps expert ID to assigned-party count.
	Distributions []map[int]int `json:"distributions"`
	// WallClockMS is the cell's training wall-clock in milliseconds — the
	// only non-deterministic field; zero when stripped or unrecorded.
	WallClockMS float64 `json:"wallClockMs,omitempty"`
}

// RunResult reconstructs the metrics value the cell was serialized from.
func (c CellArtifact) RunResult() metrics.RunResult {
	r := metrics.RunResult{
		Technique:     c.Technique,
		Seed:          c.Seed,
		Traces:        c.Traces,
		Distributions: c.Distributions,
	}
	if c.Windows != nil {
		r.Windows = make([]metrics.WindowMetrics, len(c.Windows))
		for i, w := range c.Windows {
			r.Windows[i] = metrics.WindowMetrics{Drop: w.Drop, RecoveryRounds: w.RecoveryRounds, Max: w.Max}
		}
	}
	return r
}

func cellArtifact(cr CellResult) CellArtifact {
	r := cr.Result
	c := CellArtifact{
		Benchmark:     cr.Cell.Benchmark.Name,
		Technique:     r.Technique,
		Policy:        cr.Cell.Technique.Policy,
		Seed:          r.Seed,
		Traces:        r.Traces,
		Distributions: r.Distributions,
		WallClockMS:   float64(cr.Elapsed.Microseconds()) / 1e3,
	}
	if r.Windows != nil {
		c.Windows = make([]WindowArtifact, len(r.Windows))
		for i, w := range r.Windows {
			c.Windows[i] = WindowArtifact{Drop: w.Drop, RecoveryRounds: w.RecoveryRounds, Max: w.Max}
		}
	}
	return c
}

// NewArtifact builds one benchmark's artifact from its finished grid cells
// (cells that failed or were skipped are omitted).
func NewArtifact(name string, opts Options, cells []CellResult) *Artifact {
	a := &Artifact{
		Schema: ArtifactSchemaVersion,
		Name:   name,
		Options: ArtifactOptions{
			Scale:           opts.Scale,
			Seeds:           opts.Seeds,
			BootstrapRounds: opts.BootstrapRounds,
			RoundsPerWindow: opts.RoundsPerWindow,
			Participants:    opts.Participants,
			Epochs:          opts.Epochs,
		},
	}
	for _, cr := range cells {
		if cr.Err != nil {
			continue
		}
		a.Cells = append(a.Cells, cellArtifact(cr))
	}
	return a
}

// ArtifactsFromCells groups finished grid cells by benchmark, preserving
// first-appearance (grid) order — one artifact per benchmark.
func ArtifactsFromCells(opts Options, cells []CellResult) []*Artifact {
	byName := map[string]*Artifact{}
	var order []string
	for _, cr := range cells {
		if cr.Err != nil {
			continue
		}
		name := cr.Cell.Benchmark.Name
		a, ok := byName[name]
		if !ok {
			a = NewArtifact(name, opts, nil)
			byName[name] = a
			order = append(order, name)
		}
		a.Cells = append(a.Cells, cellArtifact(cr))
	}
	out := make([]*Artifact, len(order))
	for i, name := range order {
		out[i] = byName[name]
	}
	return out
}

// StripTiming zeroes every wall-clock field so that encoded bytes are a
// pure function of the experiment protocol (used by -deterministic and by
// the parallel/serial parity tests).
func (a *Artifact) StripTiming() {
	for i := range a.Cells {
		a.Cells[i].WallClockMS = 0
	}
}

// Validate checks schema version and structural coherence.
func (a *Artifact) Validate() error {
	switch {
	case a.Schema != ArtifactSchemaVersion:
		return fmt.Errorf("experiments: artifact schema %d, want %d", a.Schema, ArtifactSchemaVersion)
	case a.Name == "":
		return errors.New("experiments: artifact has no benchmark name")
	case len(a.Cells) == 0:
		return errors.New("experiments: artifact has no cells")
	}
	for i, c := range a.Cells {
		switch {
		case c.Technique == "":
			return fmt.Errorf("experiments: cell %d has no technique", i)
		case len(c.Traces) == 0:
			return fmt.Errorf("experiments: cell %d (%s/%s/%d) has no traces", i, c.Benchmark, c.Technique, c.Seed)
		case c.Windows != nil && len(c.Windows) != len(c.Traces):
			return fmt.Errorf("experiments: cell %d has %d windows for %d traces", i, len(c.Windows), len(c.Traces))
		}
	}
	return nil
}

// ArtifactName implements Record.
func (a *Artifact) ArtifactName() string { return a.Name }

// Summary implements Record.
func (a *Artifact) Summary() string {
	total, _ := a.TotalWallClockMS() // zero when timing was stripped
	return fmt.Sprintf("grid artifact ok: name=%s cells=%d wallClockMs=%.0f", a.Name, len(a.Cells), total)
}

// Gate implements Record: a grid artifact has no gate beyond Validate.
func (a *Artifact) Gate(Gates) error { return nil }

// ComparisonFromArtifact rebuilds a Comparison from a decoded artifact so
// every formatter (tables, convergence, summaries) can replay a recorded
// run without re-training. The benchmark is resolved from the cells (not
// the artifact name, which is a free-form grid label — e.g.
// "fmow-policies" for a policy sweep); artifacts spanning several
// benchmarks (the headline artifact) cannot be replayed as one comparison.
func ComparisonFromArtifact(a *Artifact) (*Comparison, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	b, err := BenchmarkByName(a.Cells[0].Benchmark)
	if err != nil {
		return nil, err
	}
	cmp := &Comparison{
		Benchmark: b,
		Options:   a.Options.Options(),
		Results:   make(map[string][]metrics.RunResult),
	}
	for _, c := range a.Cells {
		if c.Benchmark != b.Name {
			return nil, fmt.Errorf("experiments: artifact %q spans benchmarks %q and %q; replay handles one benchmark per artifact", a.Name, b.Name, c.Benchmark)
		}
		if _, ok := cmp.Results[c.Technique]; !ok {
			cmp.Order = append(cmp.Order, c.Technique)
		}
		cmp.Results[c.Technique] = append(cmp.Results[c.Technique], c.RunResult())
	}
	return cmp, nil
}
