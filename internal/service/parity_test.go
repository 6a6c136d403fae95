package service

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/shiftex"
)

// decisionRecord flattens everything the aggregator decided over a run.
type decisionRecord struct {
	Reports     []shiftex.WindowReport
	Assignments map[int]int
	ExpertIDs   []int
	Epsilon     float64
	DeltaCov    float64
	DeltaLabel  float64
}

func record(rt *Runtime) decisionRecord {
	rec := decisionRecord{
		Assignments: rt.Aggregator().Assignments(),
		ExpertIDs:   rt.Aggregator().Registry().IDs(),
		Epsilon:     rt.Aggregator().Epsilon(),
		DeltaCov:    rt.Aggregator().Thresholds().DeltaCov,
		DeltaLabel:  rt.Aggregator().Thresholds().DeltaLabel,
	}
	for _, rep := range rt.Reports() {
		rec.Reports = append(rec.Reports, *rep)
	}
	return rec
}

// TestCrossProcessParity is the acceptance test for the service layer: the
// same seed must produce the same shift-detection and expert-assignment
// decisions whether parties are in-process or reached over TCP. Every float
// is compared exactly — the contract is bit-identity, not approximation. Both
// runs poison what the fleet recycles, so they also prove that nothing keeps a
// round's Update.Params past the next Round.
func TestCrossProcessParity(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process parity is slow")
	}
	const seed = 42
	scLocal := testScenario(t, seed)
	scRemote := testScenario(t, seed)

	local, err := LocalTransportForScenario(scLocal)
	if err != nil {
		t.Fatal(err)
	}
	rtLocal := runAll(t, poisonTransport{local}, testOptions(scLocal, seed))

	remote := startTCPFleet(t, scRemote)
	if err := remote.Ping(0); err != nil {
		t.Fatal(err)
	}
	rtRemote := runAll(t, poisonTransport{remote}, testOptions(scRemote, seed))

	recLocal, recRemote := record(rtLocal), record(rtRemote)
	if !reflect.DeepEqual(recLocal.Assignments, recRemote.Assignments) {
		t.Errorf("assignments diverge:\n local: %v\nremote: %v", recLocal.Assignments, recRemote.Assignments)
	}
	if !reflect.DeepEqual(recLocal.ExpertIDs, recRemote.ExpertIDs) {
		t.Errorf("expert pools diverge: local %v remote %v", recLocal.ExpertIDs, recRemote.ExpertIDs)
	}
	if recLocal.Epsilon != recRemote.Epsilon {
		t.Errorf("epsilon diverges: %g vs %g", recLocal.Epsilon, recRemote.Epsilon)
	}
	if recLocal.DeltaCov != recRemote.DeltaCov || recLocal.DeltaLabel != recRemote.DeltaLabel {
		t.Errorf("thresholds diverge: %+v vs %+v",
			[2]float64{recLocal.DeltaCov, recLocal.DeltaLabel},
			[2]float64{recRemote.DeltaCov, recRemote.DeltaLabel})
	}
	if len(recLocal.Reports) != len(recRemote.Reports) {
		t.Fatalf("report counts diverge: %d vs %d", len(recLocal.Reports), len(recRemote.Reports))
	}
	for w := range recLocal.Reports {
		l, r := recLocal.Reports[w], recRemote.Reports[w]
		if l.ShiftedCov != r.ShiftedCov || l.ShiftedLabel != r.ShiftedLabel {
			t.Errorf("window %d shift detections diverge: cov %d/%d label %d/%d",
				w, l.ShiftedCov, r.ShiftedCov, l.ShiftedLabel, r.ShiftedLabel)
		}
		if l.NewExperts != r.NewExperts || l.Merged != r.Merged {
			t.Errorf("window %d adaptation diverges: new %d/%d merged %d/%d",
				w, l.NewExperts, r.NewExperts, l.Merged, r.Merged)
		}
		if !reflect.DeepEqual(l.Distribution, r.Distribution) {
			t.Errorf("window %d distributions diverge: %v vs %v", w, l.Distribution, r.Distribution)
		}
		if !reflect.DeepEqual(l.Trace, r.Trace) {
			t.Errorf("window %d accuracy traces diverge:\n local: %v\nremote: %v", w, l.Trace, r.Trace)
		}
	}

	// Expert parameters themselves must agree bit-for-bit: the wire carries
	// float64s exactly and aggregation order is pinned.
	for _, id := range recLocal.ExpertIDs {
		el, _ := rtLocal.Aggregator().Registry().Get(id)
		er, ok := rtRemote.Aggregator().Registry().Get(id)
		if !ok {
			t.Fatalf("expert %d missing remotely", id)
		}
		if !reflect.DeepEqual(el.Params, er.Params) {
			t.Errorf("expert %d parameters diverge", id)
		}
	}

	// Sanity: the run did something (bootstrap trained to a finite trace).
	if len(recLocal.Reports) == 0 || len(recLocal.Reports[0].Trace) == 0 ||
		math.IsNaN(recLocal.Reports[0].Trace[0]) {
		t.Fatal("empty or NaN bootstrap trace")
	}
}
