package serve

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/service"
	"repro/internal/tensor"
)

// LoadConfig is the scenario shape Workload regenerates: it must match the
// training run's, because the checkpoint pins seed and windows but not data
// shape. Defaults match cmd/shiftex-aggregator's (120/60).
type LoadConfig struct {
	SamplesPerParty int
	TestPerParty    int
}

// WithDefaults resolves the zero fields.
func (c LoadConfig) WithDefaults() LoadConfig {
	if c.SamplesPerParty <= 0 {
		c.SamplesPerParty = 120
	}
	if c.TestPerParty <= 0 {
		c.TestPerParty = 60
	}
	return c
}

// WorkItem is one replayable request with its scoring ground truth.
type WorkItem struct {
	X        tensor.Vector
	Y        int
	Party    int
	Assigned int // expert ID the training run assigned to Party; -1 unknown
	Regime   string
}

// Workload regenerates the checkpoint run's scenario and extracts the
// adapted window's test stream — the mixture of clean and injected-shift
// regimes the snapshot's experts were trained for. Items interleave across
// parties so consecutive requests hit different experts, the worst case for
// the per-expert batcher (and, at the gateway, the worst case for
// consistent-hash locality).
func Workload(cp *service.Checkpoint, cfg LoadConfig) ([]WorkItem, error) {
	cfg = cfg.WithDefaults()
	parties := len(cp.Aggregator.Assignment)
	if parties == 0 {
		return nil, errors.New("serve: checkpoint has no party assignments")
	}
	spec := service.ScenarioSpec(parties, cfg.SamplesPerParty, cfg.TestPerParty, cp.NumWindows)
	sc, err := dataset.BuildScenario(spec, dataset.DefaultShiftConfig(), cp.Seed)
	if err != nil {
		return nil, fmt.Errorf("serve: regenerate scenario: %w", err)
	}
	widx := cp.WindowsDone - 1
	if widx >= len(sc.Windows) {
		widx = len(sc.Windows) - 1
	}
	row := sc.Windows[widx]

	var items []WorkItem
	for i := 0; i < cfg.TestPerParty; i++ {
		for p, pw := range row {
			if i >= len(pw.Test) {
				continue
			}
			assigned := -1
			if id, ok := cp.Aggregator.Assignment[p]; ok {
				assigned = id
			}
			items = append(items, WorkItem{
				X:        pw.Test[i].X,
				Y:        pw.Test[i].Y,
				Party:    p,
				Assigned: assigned,
				Regime:   pw.Regime.Corruption.String(),
			})
		}
	}
	if len(items) == 0 {
		return nil, errors.New("serve: scenario window has no test examples")
	}
	return items, nil
}
