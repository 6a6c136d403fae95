package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// Procs is the GOMAXPROCS every run is pinned to: the reference host has two
// vCPUs, and before Go 1.25 the runtime ignores a container's CPU quota.
const Procs = 2

const (
	coldDistinct = 16384 // 4× the 4096-entry route and session caches: a cyclic stream never hits
	hotDistinct  = 2048  // fits the route cache
)

// Workloads lists the workload names in the order they are documented.
var Workloads = []string{"serve-cold", "serve-warm-swap", "gateway-http", "adapt-fl-tcp"}

// workload is one set of inputs and the part of the stack they are sent to.
type workload interface {
	// ops is the operations in one segment: the work is fixed, not
	// calibrated at run time, so every segment of every run is comparable.
	ops() int
	// limit is the workload's latency limit: an op slower than this, like a
	// failed one, does not count towards within_limit_share.
	limit() time.Duration
	// setup brings the system up (checkpoint trained, daemons listening,
	// connections warm); it is what setup_s times.
	setup(dir string) error
	// prepare generates the seed's inputs and their oracle answers.
	prepare(seed uint64) error
	// markStart is called after the warm-up segment, before the measured ones.
	markStart()
	// segment runs one segment, writing per-op latencies (ns) into lat.
	segment(lat []int64, tr *tracer, segNo int) segment
	accuracy() float64
	// check returns what the workload's own assertions found wrong.
	check() []string
	close()
}

// newWorkload builds a workload at full or smoke size. Segment sizes are fixed
// operation counts sized for about two seconds on the two-vCPU reference host.
func newWorkload(name string, smoke bool) (w workload, setupReps int, err error) {
	scale := func(n int) int {
		if smoke {
			return max(n/100, 64)
		}
		return n
	}
	switch name {
	case "serve-cold":
		return &serveWorkload{hidden: bigArch, distinct: coldDistinct, blocks: 1, blockOps: scale(120_000), maxHit: 0, latencyLimit: 2500 * time.Microsecond}, 5, nil
	case "serve-warm-swap":
		return &serveWorkload{hidden: smallArch, distinct: hotDistinct, blocks: 8, blockOps: scale(100_000), swap: true, minHit: 0.95, maxHit: 1, latencyLimit: 400 * time.Microsecond}, 9, nil
	case "gateway-http":
		return &gatewayWorkload{segOps: scale(16_000)}, 9, nil
	case "adapt-fl-tcp":
		aw := &adaptWorkload{hidden: bigArch}
		if smoke {
			aw.hidden = smallArch
		}
		return aw, 25, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (workloads: %v)", name, Workloads)
}

// Options selects one benchmark run.
type Options struct {
	Workload string
	Seed     uint64
	Seconds  float64 // length of the measured phase
	Trace    bool
	Smoke    bool   // one tiny segment, no repeated set-up: keeps the harness exercised by tests
	OutDir   string // scratch checkpoints and the span file
	Log      io.Writer
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Run executes one run of one workload: the end-to-end metrics untraced, or
// the per-layer metrics from the traced ladder.
func Run(o Options) (*Result, error) {
	runtime.GOMAXPROCS(Procs)
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.Smoke {
		o.Seconds = 0 // exactly one measured segment
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.OutDir, o.Workload+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	fmt.Fprintf(o.Log, "workload %s seed %d seconds %g trace %v GOMAXPROCS %d closed loop\n",
		o.Workload, o.Seed, o.Seconds, o.Trace, Procs)
	if o.Trace {
		return runTraced(o, scratch)
	}
	return runUntraced(o, scratch)
}

// setUp brings the workload up reps times and returns it up, with the
// duration of every set-up. One set-up is one sample of a one-shot cost; the
// median of several is what a later change is compared against.
func setUp(name string, smoke bool, scratch string) (workload, []float64, error) {
	w, reps, err := newWorkload(name, smoke)
	if err != nil {
		return nil, nil, err
	}
	if smoke {
		reps = 1
	}
	var durs []float64
	for r := 0; ; r++ {
		t0 := time.Now()
		err := w.setup(filepath.Join(scratch, fmt.Sprintf("setup%d", r)))
		durs = append(durs, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if r == reps-1 {
			return w, durs, nil
		}
		w.close()
		if w, _, err = newWorkload(name, smoke); err != nil {
			return nil, nil, err
		}
	}
}

// measured is the measured phase of a run: its segments, each one's latency
// percentiles, and the host-speed probe taken before each.
type measured struct {
	segs     []segment
	p50, p99 []float64 // per segment, ms
	within   int       // ops, over all segments, that completed within the workload's limit
	samples  int       // latency samples behind each segment's percentiles
	beyond99 int       // samples beyond each segment's p99
	spins    []float64
}

// runSegments runs identical segments until the next one would overrun the
// budget (at least minSegs).
func runSegments(w workload, tr *tracer, budget time.Duration, minSegs, firstSegNo int) measured {
	m := measured{samples: w.ops()}
	lat := make([]int64, w.ops())
	start := time.Now()
	for i := 0; ; i++ {
		iter := time.Now()
		m.spins = append(m.spins, ms(spin()))
		seg := w.segment(lat, tr, firstSegNo+i)
		m.segs = append(m.segs, seg)
		slices.Sort(lat)
		// A failed op is recorded with a latency too, but never counts as
		// within the limit: failures are taken off the fastest ops' count.
		n, _ := slices.BinarySearch(lat, int64(w.limit())+1)
		m.within += max(n-seg.failed, 0)
		p50, _ := percentile(lat, 0.50)
		p99, beyond := percentile(lat, 0.99)
		m.p50, m.p99, m.beyond99 = append(m.p50, float64(p50)/1e6), append(m.p99, float64(p99)/1e6), beyond
		if len(m.segs) >= minSegs && time.Since(start)+time.Since(iter) > budget {
			return m
		}
	}
}

// over maps every segment to one number, for a median across segments.
func (m measured) over(f func(segment) float64) []float64 {
	out := make([]float64, len(m.segs))
	for i, s := range m.segs {
		out[i] = f(s)
	}
	return out
}

// total sums the segments.
func (m measured) total() (all segment) {
	for _, s := range m.segs {
		all.tally.add(s.tally)
		all.mallocs += s.mallocs
		all.allocBytes += s.allocBytes
		all.wall += s.wall
		all.cpu += s.cpu
	}
	return all
}

func cpuPerOp(s segment) float64 { return float64(s.cpu.Nanoseconds()) / 1e3 / float64(s.attempted) }

func runUntraced(o Options, scratch string) (*Result, error) {
	w, setups, err := setUp(o.Workload, o.Smoke, scratch)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.prepare(o.Seed); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	minSegs := 3
	if o.Smoke {
		minSegs = 1
	}
	warm := w.segment(make([]int64, w.ops()), nil, -1) // discarded: caches fill, pools and connections grow
	w.markStart()
	runtime.GC()
	m := runSegments(w, nil, time.Duration(o.Seconds*float64(time.Second)), minSegs, 0)

	all := m.total()
	ops := float64(all.attempted)
	res := &Result{
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics: map[string]Metric{
			"setup_s":            {median(setups), "s"},
			"within_limit_share": {float64(m.within) / ops, "share"},
			"allocs_per_op":      {float64(all.mallocs) / ops, "1"},
			"alloc_kb_per_op":    {float64(all.allocBytes) / 1024 / ops, "kB"},
			"accuracy":           {w.accuracy(), "share"},
			"peak_rss_mb":        {peakRSSMB(), "MB"},
		},
	}

	var problems []string
	if !o.Smoke { // a smoke segment is shorter than the caches, so their hit shares mean nothing
		problems = w.check()
	}
	if warm.failed > 0 {
		problems = append(problems, fmt.Sprintf("warm-up segment: %d of %d ops failed", warm.failed, warm.attempted))
	}
	if all.failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d ops failed or disagreed with the oracle", all.failed, all.attempted))
	}
	if want, ok := recordedAccuracy[o.Workload][o.Seed]; ok && !o.Smoke && want != w.accuracy() {
		problems = append(problems, fmt.Sprintf("accuracy %v differs from the value recorded for seed %d, %v", w.accuracy(), o.Seed, want))
	}
	res.Correct = len(problems) == 0

	fmt.Fprintf(o.Log, "set-up x%d: %.3f s each %v\n", len(setups), median(setups), setups)
	for i, s := range m.segs {
		fmt.Fprintf(o.Log, "segment %2d: attempted %d succeeded %d failed %d  %.3f s  %.1f ops/s  p50 %.4f ms  p99 %.4f ms  cpu %.2f us/op  steal %d ticks  spin %.1f ms\n",
			i, s.attempted, s.attempted-s.failed, s.failed, s.wall.Seconds(), s.rate(), m.p50[i], m.p99[i], cpuPerOp(s), s.steal, m.spins[i])
	}
	fmt.Fprintf(o.Log, "timing, median over %d segments (diagnostic on this host, gated nowhere; the traced run reports it as client.*): throughput %.1f ops/s, p50 %.4f ms, p99 %.4f ms, cpu %.2f us/op\n",
		len(m.segs), median(m.over(segment.rate)), median(m.p50), median(m.p99), median(m.over(cpuPerOp)))
	fmt.Fprintf(o.Log, "quietest segment %.1f ops/s, whole-run mean %.1f ops/s; latency limit %v\n",
		m.segs[quietest(m.segs)].rate(), all.rate(), w.limit())
	fmt.Fprintf(o.Log, "each segment's percentiles rest on %d latency samples, %d of them beyond its p99; error share %g\n",
		m.samples, m.beyond99, all.errorShare())
	for _, p := range problems {
		fmt.Fprintln(o.Log, "INCORRECT:", p)
	}
	return res, nil
}

// recordedAccuracy is the exact accuracy of each workload for the two seeds
// the README names: 42, the seed to develop against, and 7, the held-out one.
// Accuracy is a count of deterministic decisions, so it repeats to the last
// bit; a run that disagrees changed the arithmetic, not the speed.
var recordedAccuracy = map[string]map[uint64]float64{
	"serve-cold":      {42: 0.4439916666666667, 7: 0.44340833333333335},
	"serve-warm-swap": {42: 0.47948875, 7: 0.479735},
	"gateway-http":    {42: 0.5280625, 7: 0.5270625},
	"adapt-fl-tcp":    {42: 0.75625, 7: 0.7546875},
}

// PrintMetrics lists every metric by name with its unit.
func PrintMetrics(w io.Writer, r *Result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %v %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}
