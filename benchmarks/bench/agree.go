package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// Spec is the part of BENCHMARK.json, the contract this benchmark is written
// to, that the benchmark itself reads.
type Spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric's declaration; Bound is set for end-to-end metrics
// only.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// AgreeOptions selects an agreement check: Sets sets of Runs runs of this
// same binary per workload, run i of every set with seed FirstSeed+i.
type AgreeOptions struct {
	Exe       string // the benchmark binary to run
	Spec      *Spec
	Workloads []string
	Sets      int
	Runs      int
	FirstSeed uint64
	Seconds   int
	OutDir    string
	Out       io.Writer // the table
	Log       io.Writer // progress
}

// Agree measures how well the benchmark agrees with itself, by the rule it is
// accepted under: within a set, each end-to-end metric's interquartile
// distance over the runs as a share of their median (its spread) must stay
// within the metric's bound, setup_s excepted; between consecutive sets, the
// later median may not be worse than the earlier by more than the bound. It
// prints one row per (workload, metric) and returns an error naming every
// pair that broke its bound.
func Agree(o AgreeOptions) error {
	var broken []string
	fmt.Fprintf(o.Out, "| workload | metric | unit | bound |")
	for s := 1; s <= o.Sets; s++ {
		fmt.Fprintf(o.Out, " set %d median | set %d spread |", s, s)
	}
	fmt.Fprintf(o.Out, " worst set-to-set |\n|---|---|---|---|")
	for s := 0; s < o.Sets; s++ {
		fmt.Fprintf(o.Out, "---|---|")
	}
	fmt.Fprintln(o.Out, "---|")

	// values[set][workload][metric] = the runs' values
	values := make([]map[string]map[string][]float64, o.Sets)
	for s := range values {
		values[s] = make(map[string]map[string][]float64)
		for _, w := range o.Workloads {
			values[s][w] = make(map[string][]float64)
			for i := 0; i < o.Runs; i++ {
				seed := o.FirstSeed + uint64(i)
				res, err := runOnce(o, w, seed)
				if err != nil {
					return fmt.Errorf("set %d %s seed %d: %w", s+1, w, seed, err)
				}
				if !res.Correct || res.Failed != 0 {
					broken = append(broken, fmt.Sprintf("set %d %s seed %d: correct=%v failed=%d", s+1, w, seed, res.Correct, res.Failed))
				}
				for name, m := range res.Metrics {
					values[s][w][name] = append(values[s][w][name], m.Value)
				}
				fmt.Fprintf(o.Log, "set %d %s seed %d: correct %v\n", s+1, w, seed, res.Correct)
			}
		}
	}

	for _, w := range o.Workloads {
		for _, m := range o.Spec.EndToEnd {
			fmt.Fprintf(o.Out, "| %s | %s | %s | %g |", w, m.Name, m.Unit, m.Bound)
			worst := 0.0
			for s := 0; s < o.Sets; s++ {
				vals := values[s][w][m.Name]
				sp := spread(vals)
				fmt.Fprintf(o.Out, " %.6g | %.2f%% |", median(vals), 100*sp)
				if sp > m.Bound && m.Name != "setup_s" {
					broken = append(broken, fmt.Sprintf("%s %s: set %d spread %.2f%% over bound %g", w, m.Name, s+1, 100*sp, m.Bound))
				}
				if s > 0 {
					worse := worseBy(median(values[s-1][w][m.Name]), median(vals), m.Better)
					worst = max(worst, worse)
					if worse > m.Bound {
						broken = append(broken, fmt.Sprintf("%s %s: set %d median worse than set %d by %.2f%%, bound %g", w, m.Name, s+1, s, 100*worse, m.Bound))
					}
				}
			}
			fmt.Fprintf(o.Out, " %.2f%% |\n", 100*worst)
		}
	}
	if len(broken) > 0 {
		var b bytes.Buffer
		for _, line := range broken {
			fmt.Fprintln(&b, " ", line)
		}
		return fmt.Errorf("the benchmark does not agree with itself:\n%s", b.String())
	}
	return nil
}

// worseBy is how much worse after is than before, as a share of before;
// negative when it is better.
func worseBy(before, after float64, better string) float64 {
	if better == "higher" {
		return (before - after) / before
	}
	return (after - before) / before
}

// runOnce runs the binary once, as the driver does, and parses the last line
// of its standard output.
func runOnce(o AgreeOptions, workload string, seed uint64) (*Result, error) {
	cmd := exec.Command(o.Exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(o.Seconds), "--trace", "0", "--out", o.OutDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, stderr.String())
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var res Result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}
