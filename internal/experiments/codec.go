package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Record is what every BENCH_*.json artifact kind implements, so one codec
// and one `shiftex-bench check` serve them all.
type Record interface {
	// ArtifactName is the artifact's "name" field; it keys the file name.
	ArtifactName() string
	// Validate checks schema version and structural coherence.
	Validate() error
	// Summary is the artifact's headline numbers, for a terminal.
	Summary() string
	// Gate applies the kind's acceptance gate under the thresholds that
	// concern it.
	Gate(Gates) error
}

// Gates are the thresholds a check can apply. Zero disables each one; every
// artifact kind reads only its own.
type Gates struct {
	MinThroughput      float64 // serving, gateway: predictions/sec
	MinMeanBatch       float64 // serving: mean micro-batch size (proves batching engaged under load)
	MinAffinity        float64 // gateway: surviving-owner keys retained across every shrink
	MaxTracingOverhead float64 // tracing: percent of baseline throughput
	MaxDriftOverhead   float64 // drift: percent of baseline throughput
}

// ArtifactFileName is the canonical on-disk name, BENCH_<name>.json.
func ArtifactFileName(name string) string {
	return "BENCH_" + name + ".json"
}

// EncodeArtifact writes the artifact as indented, newline-terminated JSON.
// Field order is fixed by the struct layout and Go's json encoder sorts map
// keys, so equal artifacts always encode to equal bytes.
func EncodeArtifact(w io.Writer, a Record) error {
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: encode %s artifact: %w", a.ArtifactName(), err)
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// DecodeArtifact reads one artifact into a and validates it. Unknown fields
// are rejected so schema drift fails loudly instead of silently dropping
// data.
func DecodeArtifact(r io.Reader, a Record) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(a); err != nil {
		return fmt.Errorf("experiments: decode artifact: %w", err)
	}
	return a.Validate()
}

// WriteArtifactFile encodes the artifact into dir under its canonical name
// and returns the written path.
func WriteArtifactFile(dir string, a Record) (string, error) {
	var buf bytes.Buffer
	if err := EncodeArtifact(&buf, a); err != nil {
		return "", err
	}
	path := filepath.Join(dir, ArtifactFileName(a.ArtifactName()))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", fmt.Errorf("experiments: write artifact: %w", err)
	}
	return path, nil
}

// ReadArtifactFile decodes one artifact of a's kind from disk.
func ReadArtifactFile(path string, a Record) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("experiments: read artifact: %w", err)
	}
	return DecodeArtifact(bytes.NewReader(raw), a)
}

// ReadAnyArtifactFile decodes an artifact of whichever kind its "name" says:
// the benchmark kinds by their fixed names, anything else as a grid artifact
// (whose name is a free-form grid label).
func ReadAnyArtifactFile(path string) (Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: read artifact: %w", err)
	}
	var head struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return nil, fmt.Errorf("experiments: decode artifact: %w", err)
	}
	var a Record
	switch head.Name {
	case ServingArtifactName, ServingColdArtifactName:
		a = &ServingArtifact{}
	case GatewayArtifactName:
		a = &GatewayArtifact{}
	case TracingArtifactName:
		a = &TracingArtifact{}
	case DriftArtifactName:
		a = &DriftArtifact{}
	case AdaptLiveArtifactName:
		a = &AdaptLiveArtifact{}
	default:
		a = &Artifact{}
	}
	return a, DecodeArtifact(bytes.NewReader(raw), a)
}
