package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/adapt"
)

// TestCheckpointResumeParity enforces the satellite contract: save →
// restore → continue produces bit-identical decisions to an uninterrupted
// run on the same seed (the same discipline as
// TestGridParitySerialVsParallel). The fleet survives the "crash" — parties
// keep their stream and detector state, as they do when a real aggregator
// process dies and restarts.
func TestCheckpointResumeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint parity is slow")
	}
	const seed = 7

	// Reference: uninterrupted run.
	scRef := testScenario(t, seed)
	localRef, err := LocalTransportForScenario(scRef)
	if err != nil {
		t.Fatal(err)
	}
	rtRef := runAll(t, localRef, testOptions(scRef, seed))

	// Interrupted run: same fleet object across the restart, and every
	// recycled update poisoned — a run that kept one would diverge.
	sc := testScenario(t, seed)
	plain, err := LocalTransportForScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	local := poisonTransport{plain}
	opts := testOptions(sc, seed)
	opts.CheckpointPath = filepath.Join(t.TempDir(), "shiftex.ckpt.json")

	rt1, err := NewRuntime(local, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Run bootstrap + first adaptive window, then "crash".
	for w := 0; w < 2; w++ {
		if _, err := rt1.RunWindow(w); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
	}

	rt2, err := Resume(local, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt2.NextWindow(); got != 2 {
		t.Fatalf("resumed at window %d, want 2", got)
	}
	for w := rt2.NextWindow(); w < opts.Windows; w++ {
		if _, err := rt2.RunWindow(w); err != nil {
			t.Fatalf("resumed window %d: %v", w, err)
		}
	}

	recRef, recResumed := record(rtRef), record(rt2)
	if !reflect.DeepEqual(recRef, recResumed) {
		t.Errorf("resumed run diverges from uninterrupted run:\nuninterrupted: %+v\n      resumed: %+v",
			recRef, recResumed)
	}
	for _, id := range recRef.ExpertIDs {
		a, _ := rtRef.Aggregator().Registry().Get(id)
		b, ok := rt2.Aggregator().Registry().Get(id)
		if !ok {
			t.Errorf("expert %d missing after resume", id)
			continue
		}
		if !reflect.DeepEqual(a.Params, b.Params) {
			t.Errorf("expert %d parameters diverge after resume", id)
		}
		if !reflect.DeepEqual(a.Memory, b.Memory) {
			t.Errorf("expert %d latent memory diverges after resume", id)
		}
	}
}

// TestLegacyCheckpointResume: a schema-1 checkpoint — written before the
// adaptation-policy axis existed, so it carries no policy field — still
// loads, resolves to the default policy, and resumes bit-identically to an
// uninterrupted run.
func TestLegacyCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint parity is slow")
	}
	const seed = 13

	// Reference: uninterrupted run.
	scRef := testScenario(t, seed)
	localRef, err := LocalTransportForScenario(scRef)
	if err != nil {
		t.Fatal(err)
	}
	rtRef := runAll(t, localRef, testOptions(scRef, seed))

	// Interrupted run: bootstrap + one adaptive window, then "crash".
	sc := testScenario(t, seed)
	local, err := LocalTransportForScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(sc, seed)
	opts.CheckpointPath = filepath.Join(t.TempDir(), "legacy.ckpt.json")
	rt1, err := NewRuntime(local, opts)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		if _, err := rt1.RunWindow(w); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
	}

	// Downgrade the file to the v1 layout: no policy key, schemaVersion 1 —
	// exactly what a pre-policy daemon wrote. The surgery keeps every other
	// field's raw bytes (a float64 round trip would corrupt the uint64 RNG
	// state words).
	data, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if string(m["policy"]) != `"`+adapt.DefaultPolicyName+`"` {
		t.Fatalf("fresh checkpoint records policy %s, want %q", m["policy"], adapt.DefaultPolicyName)
	}
	delete(m, "policy")
	delete(m, "policyVersion")
	m["schemaVersion"] = json.RawMessage("1")
	legacy, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opts.CheckpointPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	cp, err := LoadCheckpoint(opts.CheckpointPath)
	if err != nil {
		t.Fatalf("legacy checkpoint should load: %v", err)
	}
	if cp.SchemaVersion != 1 || cp.Policy != "" {
		t.Fatalf("legacy checkpoint decoded as version=%d policy=%q", cp.SchemaVersion, cp.Policy)
	}
	if cp.PolicyName() != adapt.DefaultPolicyName {
		t.Fatalf("legacy checkpoint resolves to policy %q, want %q", cp.PolicyName(), adapt.DefaultPolicyName)
	}

	// A conflicting explicit policy must be rejected, not silently applied.
	badOpts := opts
	badOpts.Policy = "exact-assign"
	if _, err := ResumeFrom(local, cp, badOpts); err == nil {
		t.Fatal("resume under a different policy than the checkpoint's should fail")
	}

	rt2, err := Resume(local, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt2.Aggregator().PolicyName(); got != adapt.DefaultPolicyName {
		t.Fatalf("legacy resume runs policy %q, want %q", got, adapt.DefaultPolicyName)
	}
	for w := rt2.NextWindow(); w < opts.Windows; w++ {
		if _, err := rt2.RunWindow(w); err != nil {
			t.Fatalf("resumed window %d: %v", w, err)
		}
	}

	recRef, recResumed := record(rtRef), record(rt2)
	if !reflect.DeepEqual(recRef, recResumed) {
		t.Errorf("legacy resume diverges from uninterrupted run:\nuninterrupted: %+v\n      resumed: %+v",
			recRef, recResumed)
	}

	// The re-written checkpoint from the resumed run is back on the current
	// schema, carrying the policy forward.
	cp2, err := LoadCheckpoint(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.SchemaVersion != CheckpointSchemaVersion || cp2.Policy != adapt.DefaultPolicyName {
		t.Fatalf("resumed checkpoint has version=%d policy=%q, want %d/%q",
			cp2.SchemaVersion, cp2.Policy, CheckpointSchemaVersion, adapt.DefaultPolicyName)
	}
}

// TestResumeWindowsFallback: a resume that does not specify a stream
// length inherits the checkpointed one instead of truncating the run.
func TestResumeWindowsFallback(t *testing.T) {
	sc := testScenario(t, 11)
	local, err := LocalTransportForScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(sc, 11)
	opts.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
	rt1, err := NewRuntime(local, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt1.RunWindow(0); err != nil {
		t.Fatal(err)
	}

	resumeOpts := opts
	resumeOpts.Windows = 0 // caller did not choose a length
	rt2, err := Resume(local, resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rt2.Windows() != opts.Windows {
		t.Fatalf("resumed stream length %d, want checkpointed %d", rt2.Windows(), opts.Windows)
	}
	if rt2.NextWindow() != 1 {
		t.Fatalf("resumed at %d, want 1", rt2.NextWindow())
	}
}

func TestCheckpointFileValidation(t *testing.T) {
	dir := t.TempDir()

	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing checkpoint should fail")
	}

	garbled := filepath.Join(dir, "garbled.json")
	if err := os.WriteFile(garbled, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(garbled); err == nil {
		t.Error("garbled checkpoint should fail")
	}

	wrongVersion := filepath.Join(dir, "wrong-version.json")
	if err := os.WriteFile(wrongVersion, []byte(`{"schemaVersion":999,"windowsDone":1,"arch":[4,3,2]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(wrongVersion); err == nil {
		t.Error("future schema version should fail")
	}

	futurePolicy := filepath.Join(dir, "future-policy.json")
	if err := os.WriteFile(futurePolicy, []byte(`{"schemaVersion":2,"policyVersion":999,"windowsDone":1,"arch":[4,3,2]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(futurePolicy); err == nil {
		t.Error("future stage-contract version should fail")
	}

	if err := SaveCheckpoint(filepath.Join(dir, "nested", "nope.json"), &Checkpoint{}); err == nil {
		t.Error("save into missing directory should fail")
	}
}
