package serve

import (
	"context"
	"testing"

	"repro/internal/service"
)

// tinyLoadConfig matches the scenario shape checkpoint_tiny.json was
// trained with (see EXPERIMENTS.md "Serving benchmark" for the recipe).
func tinyLoadConfig() LoadConfig {
	return LoadConfig{SamplesPerParty: 40, TestPerParty: 20}
}

// replay serves the checkpoint's scenario stream passes times, in order,
// and returns how many predictions completed.
func replay(t *testing.T, srv *Server, cp *service.Checkpoint, passes int) uint64 {
	t.Helper()
	items, err := Workload(cp, tinyLoadConfig())
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < passes; pass++ {
		for _, it := range items {
			if _, err := srv.Predict(context.Background(), it.X); err != nil {
				t.Fatal(err)
			}
		}
	}
	return uint64(passes * len(items))
}

func TestBuildWorkloadRejectsEmptyAssignment(t *testing.T) {
	cp, _ := loadTiny(t)
	cp.Aggregator.Assignment = nil
	if _, err := Workload(cp, tinyLoadConfig()); err == nil {
		t.Fatal("empty assignment must be rejected")
	}
}
