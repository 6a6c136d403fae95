package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite golden artifact files")

// syntheticCells builds a small deterministic two-technique grid result
// without any training, for pure serialization tests.
func syntheticCells(t *testing.T) (Options, []CellResult) {
	t.Helper()
	opts := Options{
		Scale:           0.5,
		Seeds:           []uint64{1, 2},
		BootstrapRounds: 4,
		RoundsPerWindow: 4,
		Participants:    4,
		Epochs:          1,
	}
	b := FMoW()
	tfs := StandardTechniques(opts)[:2] // shiftex, fedprox
	traces := map[string][][]float64{
		"shiftex": {{0.30, 0.45, 0.52, 0.55}, {0.40, 0.48, 0.54, 0.58}, {0.44, 0.53, 0.57, 0.60}},
		"fedprox": {{0.30, 0.42, 0.48, 0.50}, {0.33, 0.40, 0.45, 0.47}, {0.35, 0.41, 0.44, 0.46}},
	}
	dists := map[string][]map[int]int{
		"shiftex": {{0: 25}, {0: 15, 1: 10}, {0: 12, 1: 10, 2: 3}},
		"fedprox": {{0: 25}, {0: 25}, {0: 25}},
	}
	var cells []CellResult
	i := 0
	for _, tf := range tfs {
		for _, seed := range opts.Seeds {
			r := metrics.RunResult{
				Technique:     tf.Name,
				Seed:          seed,
				Traces:        traces[tf.Name],
				Distributions: dists[tf.Name],
			}
			if err := r.Analyze(RecoverFrac); err != nil {
				t.Fatal(err)
			}
			cells = append(cells, CellResult{
				Cell:    Cell{Benchmark: b, Technique: tf, Seed: seed},
				Index:   i,
				Result:  r,
				Elapsed: time.Duration(i+1) * 137 * time.Millisecond,
			})
			i++
		}
	}
	return opts, cells
}

func TestArtifactRoundTrip(t *testing.T) {
	opts, cells := syntheticCells(t)
	a := NewArtifact("fmow", opts, cells)
	var buf bytes.Buffer
	if err := EncodeArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	var decoded Artifact
	if err := DecodeArtifact(&buf, &decoded); err != nil {
		t.Fatal(err)
	}
	// The reconstructed RunResults must equal the originals field for field.
	for i, c := range decoded.Cells {
		if got, want := c.RunResult(), cells[i].Result; !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %d RunResult round trip:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
}

func TestArtifactGolden(t *testing.T) {
	opts, cells := syntheticCells(t)
	a := NewArtifact("fmow", opts, cells)
	a.StripTiming() // golden bytes must be timing-free

	var buf bytes.Buffer
	if err := EncodeArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", ArtifactFileName("golden"))
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -run TestArtifactGolden -update` to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("artifact schema drifted from golden file %s; if intentional, bump ArtifactSchemaVersion and regenerate with -update", golden)
	}

	// The golden file itself must decode under the current schema.
	var ga Artifact
	if err := DecodeArtifact(bytes.NewReader(want), &ga); err != nil {
		t.Fatal(err)
	}
	if ga.Schema != ArtifactSchemaVersion {
		t.Fatalf("golden schema = %d, want %d", ga.Schema, ArtifactSchemaVersion)
	}
}

func TestArtifactStripTimingDeterminism(t *testing.T) {
	opts, cells := syntheticCells(t)
	a := NewArtifact("fmow", opts, cells)
	slower := append([]CellResult(nil), cells...)
	for i := range slower {
		slower[i].Elapsed = time.Duration(i+1) * 999 * time.Millisecond
	}
	b := NewArtifact("fmow", opts, slower)

	var rawA, rawB bytes.Buffer
	if err := EncodeArtifact(&rawA, a); err != nil {
		t.Fatal(err)
	}
	if err := EncodeArtifact(&rawB, b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rawA.Bytes(), rawB.Bytes()) {
		t.Fatal("timing fields should make untripped artifacts differ")
	}

	a.StripTiming()
	b.StripTiming()
	rawA.Reset()
	rawB.Reset()
	if err := EncodeArtifact(&rawA, a); err != nil {
		t.Fatal(err)
	}
	if err := EncodeArtifact(&rawB, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawA.Bytes(), rawB.Bytes()) {
		t.Fatal("stripped artifacts must be byte-identical")
	}
}

func TestArtifactValidation(t *testing.T) {
	opts, cells := syntheticCells(t)
	mutations := []func(*Artifact){
		func(a *Artifact) { a.Schema = ArtifactSchemaVersion + 1 },
		func(a *Artifact) { a.Name = "" },
		func(a *Artifact) { a.Cells = nil },
		func(a *Artifact) { a.Cells[0].Technique = "" },
		func(a *Artifact) { a.Cells[0].Traces = nil },
		func(a *Artifact) { a.Cells[0].Windows = a.Cells[0].Windows[:1] },
	}
	for i, mutate := range mutations {
		a := NewArtifact("fmow", opts, cells)
		mutate(a)
		if err := a.Validate(); err == nil {
			t.Fatalf("mutation %d should fail validation", i)
		}
	}
}

func TestComparisonFromArtifact(t *testing.T) {
	opts, cells := syntheticCells(t)
	a := NewArtifact("fmow", opts, cells)
	cmp, err := ComparisonFromArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Benchmark.Name != "fmow" {
		t.Fatalf("benchmark = %s", cmp.Benchmark.Name)
	}
	if !reflect.DeepEqual(cmp.Order, []string{"shiftex", "fedprox"}) {
		t.Fatalf("order = %v", cmp.Order)
	}
	for _, name := range cmp.Order {
		if len(cmp.Results[name]) != len(opts.Seeds) {
			t.Fatalf("%s runs = %d", name, len(cmp.Results[name]))
		}
	}
	// Every formatter must work from a replayed comparison.
	var sb strings.Builder
	if err := WriteTable(&sb, cmp); err != nil {
		t.Fatal(err)
	}
	if err := WriteSummary(&sb, cmp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "shiftex") {
		t.Fatalf("replayed table malformed:\n%s", sb.String())
	}

	// A cell from a different benchmark is a corrupt artifact.
	a.Cells[0].Benchmark = "cifar10c"
	if _, err := ComparisonFromArtifact(a); err == nil {
		t.Fatal("mixed-benchmark artifact should error")
	}
}

func TestArtifactGridParity(t *testing.T) {
	// End-to-end acceptance check: the same real grid run with 1 and with
	// 8 workers must serialize (timing-stripped) to identical bytes.
	opts := gridOptions()
	g := Grid{Benchmarks: []Benchmark{FMoW()}, Techniques: cheapTechniques(t, opts), Options: opts}

	encode := func(workers int) []byte {
		t.Helper()
		cells, err := RunGrid(context.Background(), g, Pool{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		arts := ArtifactsFromCells(opts, cells)
		if len(arts) != 1 {
			t.Fatalf("artifacts = %d", len(arts))
		}
		arts[0].StripTiming()
		var buf bytes.Buffer
		if err := EncodeArtifact(&buf, arts[0]); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := encode(1)
	parallel := encode(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("BENCH artifact bytes differ between -workers 1 and -workers 8")
	}
}
