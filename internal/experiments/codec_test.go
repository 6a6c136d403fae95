package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func validGatewayArtifact() *GatewayArtifact {
	return &GatewayArtifact{
		Schema: GatewaySchemaVersion,
		Name:   GatewayArtifactName,
		Options: GatewayOptions{
			CheckpointWindows: 4, Parties: 8, SamplesPerParty: 40, TestPerParty: 20, Seed: 42,
			Models: []string{"fmow-a", "fmow-b"}, Replicas: 4, Concurrency: 8, Repeat: 200,
			ClientRetries: 2, PredictChain: []string{"logging", "auth"},
			KillReplica: true, KillAtFraction: 0.5,
		},
		Requests: 32000, Retried: 3, DurationMs: 6200, ThroughputPerSec: 5160,
		LatencyMsP50: 1.3, LatencyMsP90: 2.4, LatencyMsP99: 5.1, LatencyMsMax: 60,
		Accuracy: 0.52, Failovers: 40, Evictions: 1,
		Models: []GatewayModelResult{
			{Model: "fmow-a", Requests: 16000, Accuracy: 0.52, HealthyReplicas: 1, Replicas: 2,
				AffinityRetained: 1, MovedFraction: 0.49, KeysTracked: 160},
			{Model: "fmow-b", Requests: 16000, Accuracy: 0.52, HealthyReplicas: 2, Replicas: 2},
		},
	}
}

// codecKind is one valid artifact of a kind, the canonical file name it must
// be written under, and a name its Validate must refuse.
type codecKind struct {
	valid   func() Record
	file    string
	badName string
}

func codecKinds(t *testing.T) []codecKind {
	opts, cells := syntheticCells(t)
	return []codecKind{
		{func() Record { return NewArtifact("fmow", opts, cells) }, "BENCH_fmow.json", ""},
		{func() Record { return validServingArtifact() }, "BENCH_serving.json", "grid"},
		{func() Record {
			a := validServingArtifact()
			a.Name, a.Options.ColdTraffic, a.Options.CacheSize, a.CacheHitRate = ServingColdArtifactName, true, -1, 0
			return a
		}, "BENCH_serving-cold.json", "serving"},
		{func() Record { return validGatewayArtifact() }, "BENCH_gateway.json", "serving"},
		{func() Record { return validTracingArtifact() }, "BENCH_tracing.json", "serving"},
		{func() Record { return validDriftArtifact() }, "BENCH_drift.json", "tracing"},
		{func() Record { return goodAdaptLive() }, "BENCH_adapt-live.json", "drift"},
	}
}

// fresh returns a zero artifact of a's kind.
func fresh(a Record) Record {
	return reflect.New(reflect.TypeOf(a).Elem()).Interface().(Record)
}

// TestArtifactCodec runs the one codec over every artifact kind: encode →
// decode is the identity and re-encodes to the same bytes, schema drift
// (an unknown field, another schema version, another kind's name) is
// refused, and the file lands under ArtifactFileName and reads back both
// typed and by name dispatch.
func TestArtifactCodec(t *testing.T) {
	for _, k := range codecKinds(t) {
		t.Run(k.file, func(t *testing.T) {
			a := k.valid()
			var buf bytes.Buffer
			if err := EncodeArtifact(&buf, a); err != nil {
				t.Fatal(err)
			}
			raw := append([]byte(nil), buf.Bytes()...)
			if !bytes.HasSuffix(raw, []byte("}\n")) {
				t.Fatal("encoding is not newline-terminated")
			}
			got := fresh(a)
			if err := DecodeArtifact(&buf, got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, a) {
				t.Fatalf("round trip changed the artifact:\n got %+v\nwant %+v", got, a)
			}
			var again bytes.Buffer
			if err := EncodeArtifact(&again, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, again.Bytes()) {
				t.Fatal("re-encoded bytes differ")
			}

			// Schema drift, edited into the encoded document: an unknown
			// field, another schema version, another kind's name.
			for what, edit := range map[string][2]string{
				"field":  {`"schema"`, `"bogusField": 1, "schema"`},
				"schema": {`"schema": 1`, `"schema": 99`},
				"name":   {`"name": "` + a.ArtifactName() + `"`, `"name": "` + k.badName + `"`},
			} {
				doc := bytes.Replace(raw, []byte(edit[0]), []byte(edit[1]), 1)
				if bytes.Equal(doc, raw) {
					t.Fatalf("edit %q did not apply", edit[0])
				}
				if err := DecodeArtifact(bytes.NewReader(doc), fresh(a)); err == nil || !strings.Contains(err.Error(), what) {
					t.Errorf("drifted %s: err=%v, want mention of %q", what, err, what)
				}
			}

			path, err := WriteArtifactFile(t.TempDir(), a)
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Base(path) != k.file || k.file != ArtifactFileName(a.ArtifactName()) {
				t.Fatalf("wrote %s, want %s", path, k.file)
			}
			typed := fresh(a)
			if err := ReadArtifactFile(path, typed); err != nil {
				t.Fatal(err)
			}
			byName, err := ReadAnyArtifactFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(typed, a) || !reflect.DeepEqual(byName, a) {
				t.Fatalf("file round trip changed the artifact (typed %T, by name %T)", typed, byName)
			}
		})
	}
}

// TestCommittedArtifactsAreByteStable is the golden check on the repo's own
// evidence: every BENCH_*.json committed at the root decodes by name,
// validates, and re-encodes to the identical bytes — so no codec or schema
// change can silently orphan a committed claim.
func TestCommittedArtifactsAreByteStable(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 13 {
		t.Fatalf("found %d committed artifacts at the repo root, want at least 13", len(paths))
	}
	for _, path := range paths {
		a, err := ReadAnyArtifactFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if want := filepath.Base(path); ArtifactFileName(a.ArtifactName()) != want {
			t.Errorf("%s names itself %q", want, a.ArtifactName())
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := EncodeArtifact(&got, a); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s does not re-encode to its own bytes", path)
		}
		if a.Summary() == "" {
			t.Errorf("%s has an empty summary", path)
		}
	}
}
