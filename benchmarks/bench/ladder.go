package bench

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/tensor"
)

// ladder is the traced run. It replays the workload's own inputs (its arch,
// its stream, its client count) through every layer of the stack, bottom up,
// each rung adding one layer to the rung below — kernels, serve.Server,
// the replica over HTTP, the gateway with an empty chain, the gateway with
// the full chain; and on the adaptation side training kernels, a pass over
// the in-process transport, the same pass over TCP — so a layer's own cost is
// its rung minus the rung below. It ends by running the workload itself with
// and without spans, which gives the cost of tracing.
//
// Every traced run climbs the whole ladder, whichever workload it is for:
// the layers a workload does not use are still measured on its arch and
// stream, and README.md says which cells a change is predicted to leave alone.
type ladder struct {
	o        Options
	scratch  string
	hidden   []int
	clients  int // in-process client count: the workload's own
	tr       *tracer
	out      map[string]Metric
	problems []string
}

// Rung sizes: fixed operation counts of about a second each on the reference
// host. Per-layer metrics carry no bound, so a rung is sized to be readable,
// not to repeat within a tenth.
const (
	kernelIters  = 2_000
	kernelBatch  = 32 // serve.Config's default MaxBatch
	trainIters   = 1_000
	trainBatch   = 16 // shiftex.DefaultConfig's Train.BatchSize
	codecIters   = 20_000
	inProcessOps = 100_000
	httpOps      = 8_000
	swapRounds   = 10
)

func runTraced(o Options, scratch string) (*Result, error) {
	l := &ladder{o: o, scratch: scratch, hidden: smallArch, clients: serveClients, out: make(map[string]Metric)}
	distinct := coldDistinct
	switch o.Workload {
	case "serve-cold", "adapt-fl-tcp":
		l.hidden = bigArch
	case "serve-warm-swap":
		distinct = hotDistinct
	case "gateway-http":
		l.clients = httpConns
	}
	if o.Smoke && o.Workload == "adapt-fl-tcp" {
		l.hidden = smallArch
	}
	w, _, err := newWorkload(o.Workload, o.Smoke)
	if err != nil {
		return nil, err
	}
	// Room for two traced workload segments, the full-chain rung's three
	// spans a request and the adaptation passes; a long run's later traced
	// segments are counted as dropped rather than held.
	l.tr = newTracer(2*w.ops()*spansPerOp(o.Workload) + 4*httpOps + 1<<16)

	t0 := time.Now()
	if err := l.adaptRungs(); err != nil {
		return nil, fmt.Errorf("adaptation rungs: %w", err)
	}
	if err := l.servingRungs(distinct); err != nil {
		return nil, fmt.Errorf("serving rungs: %w", err)
	}
	budget := time.Duration(o.Seconds*float64(time.Second)) - time.Since(t0)
	total, err := l.workloadRung(w, budget)
	if err != nil {
		return nil, fmt.Errorf("workload rung: %w", err)
	}
	path, err := l.tr.write(o.OutDir, "spans-"+o.Workload+".jsonl")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Log, "%d spans recorded (%d dropped), first %d written to %s\n",
		len(l.tr.recorded()), l.tr.dropped.Load(), min(len(l.tr.recorded()), maxSpansWritten), path)
	for _, p := range l.problems {
		fmt.Fprintln(o.Log, "INCORRECT:", p)
	}
	return &Result{Correct: len(l.problems) == 0, Attempted: total.attempted, Failed: total.failed, Metrics: l.out}, nil
}

func spansPerOp(workload string) int {
	if workload == "adapt-fl-tcp" {
		return 512 // stage and wire-call spans under each window
	}
	return 1
}

func (l *ladder) scale(n int) int {
	if l.o.Smoke {
		return max(n/100, 8)
	}
	return n
}

func (l *ladder) set(name string, v float64, unit string) { l.out[name] = Metric{v, unit} }

func (l *ladder) problem(format string, args ...any) {
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timeIt returns the wall time and allocations of fn.
func timeIt(fn func() error) (time.Duration, uint64, error) {
	m0 := mallocs()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	return d, mallocs() - m0, err
}

// adaptRungs measures the adaptation side: scenario generation, the training
// kernel alone, one pass over the in-process transport and the same pass over
// loopback TCP, both under the timed policy and the counting transport. The
// two passes must decide identically — the service layer's bit-identity
// contract is the oracle here.
func (l *ladder) adaptRungs() error {
	var sc *dataset.Scenario
	d, _, err := timeIt(func() (err error) { sc, err = buildScenario(); return err })
	if err != nil {
		return err
	}
	l.set("dataset.build_scenario_ms", ms(d), "ms")
	opts := runtimeOptions(sc, l.hidden, timedPolicy)

	if err := l.trainKernel(sc, opts.Arch); err != nil {
		return err
	}

	lat := make([]int64, windows)
	local, err := localFleet(sc, l.o.Seed)
	if err != nil {
		return err
	}
	lt := &countedTransport{Transport: local}
	var rtLocal *service.Runtime
	dLocal, _, err := timeIt(func() (err error) { rtLocal, _, err = pass(lt, opts, lat, l.tr, -2); return err })
	if err != nil {
		return err
	}

	fleet, stop, err := tcpFleet(sc, l.o.Seed)
	if err != nil {
		return err
	}
	defer stop()
	tt := &countedTransport{Transport: fleet}
	first := len(l.tr.recorded())
	var rtTCP *service.Runtime
	dTCP, _, err := timeIt(func() (err error) { rtTCP, _, err = pass(tt, opts, lat, l.tr, -1); return err })
	if err != nil {
		return err
	}
	spans := l.tr.recorded()[first:]

	oLocal, oTCP := outcomeOf(rtLocal), outcomeOf(rtTCP)
	if !reflect.DeepEqual(oLocal, oTCP) {
		l.problem("LocalTransport and TCP passes diverge:\n local %+v\n   tcp %+v", oLocal, oTCP)
	}

	per := float64(windows)
	byName := sumByName(spans)
	for _, st := range []string{"detect", "calibrate", "assign", "plan", "consolidate"} {
		l.set("adapt."+st+"_ms", ms(byName["adapt."+st])/per, "ms")
	}
	calls := map[string]int64{"train": tt.train.Load(), "stats": tt.stats.Load(), "eval": tt.eval.Load()}
	for kind, n := range calls {
		l.set("fl."+kind+"_call_ms", ms(byName["fl."+kind])/float64(max(n, 1)), "ms")
		l.set("fl."+kind+"_calls_per_window", float64(n)/per, "count")
	}
	l.set("fl.payload_bytes_per_window", float64(tt.payload.Load())/per, "B")
	l.set("service.tcp_overhead_ms_per_window", ms(dTCP-dLocal)/per, "ms")
	l.set("service.retry_count", float64(tt.failed.Load()), "count")
	l.set("service.party_failure_count", float64(rtTCP.Metrics().Snapshot().PartyFailures), "count")
	l.set("shiftex.experts_created", float64(oTCP.Created), "count")
	l.set("shiftex.experts_merged", float64(oTCP.Merged), "count")
	l.set("shiftex.shifted_parties", float64(oTCP.Shifted), "count")

	var windowSelf time.Duration
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Name == "service.window" {
			windowSelf += time.Duration(self[s.ID])
		}
	}
	fmt.Fprintf(l.o.Log, "adapt pass: local %.0f ms, tcp %.0f ms; window time not under any stage or wire-call span: %.1f ms/window\n",
		ms(dLocal), ms(dTCP), ms(windowSelf)/per)
	return nil
}

// trainKernel times nn.TrainBatchWS alone on the first party's bootstrap data.
func (l *ladder) trainKernel(sc *dataset.Scenario, arch []int) error {
	exs := sc.Windows[0][0].Train[:trainBatch]
	xs, ys := dataset.Inputs(exs), dataset.Labels(exs)
	m, err := nn.NewMLP(arch, tensor.NewRNG(fixtureSeed))
	if err != nil {
		return err
	}
	ws, opt := nn.NewWorkspace(m), nn.NewSGD(0.02)
	iters := l.scale(trainIters)
	d, _, err := timeIt(func() error {
		for i := 0; i < iters; i++ {
			if _, err := nn.TrainBatchWS(ws, m, xs, ys, opt); err != nil {
				return err
			}
		}
		return nil
	})
	l.set("nn.train_batch_ns_per_sample", float64(d)/float64(iters*trainBatch), "ns")
	return err
}

// servingRungs climbs the serving side on one stack trained for the
// workload's arch: checkpoint and snapshot costs, kernels at the server's
// batch size, serve.Server in process at the workload's client count, hot
// swaps, then the three HTTP rungs on two keep-alive connections.
func (l *ladder) servingRungs(distinct int) error {
	st, err := newStack(l.hidden, filepath.Join(l.scratch, "ladder"))
	if err != nil {
		return err
	}
	defer st.close()
	if err := l.checkpointRungs(st); err != nil {
		return err
	}
	s, err := st.stream(distinct, l.o.Seed)
	if err != nil {
		return err
	}
	reqs := s.reqs
	kernels, err := l.kernelRungs(st.srv.Snapshot(), reqs)
	if err != nil {
		return err
	}

	// serve.Server in process.
	m0 := st.srv.Metrics().Snapshot()
	n := l.scale(inProcessOps)
	p50, allocs := l.rung(loadgen{clients: l.clients}, s, n, inProcess(st.srv, reqs), "serve.predict")
	m1 := st.srv.Metrics().Snapshot()
	l.set("serve.predict_ns_per_req", p50, "ns")
	l.set("serve.predict_allocs_per_req", allocs, "count")
	l.set("serve.self_ns_per_req", p50-kernels, "ns")
	l.set("serve.mean_batch", float64(n)/float64(max(m1.Batches-m0.Batches, 1)), "count")
	l.set("serve.cache_hit_share", hitShare(m0, m1), "share")
	l.set("serve.rejected_share", float64(m1.Rejected-m0.Rejected)/float64(n), "share")

	if err := l.swapRung(st, s); err != nil {
		return err
	}
	return l.httpRungs(st, s, p50)
}

// rung replays n requests of s against tgt and returns the median latency
// (ns) and allocations per request; failures are problems.
func (l *ladder) rung(g loadgen, s stream, n int, tgt target, name string) (p50, allocs float64) {
	lat := make([]int64, n)
	seg := measure(func() tally { return g.replay(s, 0, n, lat, -1, tgt) })
	if seg.failed > 0 {
		l.problem("%s rung: %d of %d requests failed or disagreed with the oracle", name, seg.failed, seg.attempted)
	}
	a, _ := percentile(sortedCopy(lat), 0.50)
	return float64(a), float64(seg.mallocs) / float64(n)
}

func (l *ladder) checkpointRungs(st *stack) error {
	path := st.paths[len(st.paths)-1]
	var cp *service.Checkpoint
	d, _, err := timeIt(func() (err error) { cp, err = service.LoadCheckpoint(path); return err })
	if err != nil {
		return err
	}
	l.set("service.checkpoint_load_ms", ms(d), "ms")
	d, _, err = timeIt(func() error { return service.SaveCheckpoint(path+".copy", cp) })
	if err != nil {
		return err
	}
	l.set("service.checkpoint_save_ms", ms(d), "ms")
	d, _, err = timeIt(func() error { _, err := serve.SnapshotFromCheckpoint(cp); return err })
	l.set("serve.snapshot_build_ms", ms(d), "ms")
	return err
}

// kernelRungs times the three steps a cold request pays inside a worker, at
// the server's batch size, single-threaded: encoder embedding, signature
// matching, expert prediction. It returns their sum in ns per request.
func (l *ladder) kernelRungs(snap *serve.Snapshot, reqs []request) (float64, error) {
	xs := make([]tensor.Vector, kernelBatch)
	for i := range xs {
		xs[i] = reqs[i%len(reqs)].x
	}
	model := snap.Fallback().Model // every model shares the arch, so any one times the kernel
	bw := nn.NewBatchWorkspaceDims(snap.Arch, kernelBatch)
	classes := make([]int, kernelBatch)
	iters := l.scale(kernelIters)
	per := func(d time.Duration) float64 { return float64(d) / float64(iters*kernelBatch) }

	var emb *tensor.Matrix
	dEmbed, _, err := timeIt(func() (err error) {
		for i := 0; i < iters && err == nil; i++ {
			emb, err = model.EmbedBatchWS(bw, xs)
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	sigs := make([]tensor.Vector, kernelBatch)
	for i := range sigs {
		sigs[i] = emb.Row(i).Clone()
	}
	dPredict, _, err := timeIt(func() (err error) {
		for i := 0; i < iters && err == nil; i++ {
			err = model.PredictBatchWS(bw, xs, classes)
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	eps := snap.RouteEpsilon()
	dMatch, _, _ := timeIt(func() error {
		for i := 0; i < iters; i++ {
			for _, sig := range sigs {
				snap.MatchEmbedding(sig, eps)
			}
		}
		return nil
	})
	l.set("nn.embed_batch_ns_per_req", per(dEmbed), "ns")
	l.set("nn.predict_batch_ns_per_req", per(dPredict), "ns")
	l.set("shiftex.match_ns_per_req", per(dMatch), "ns")
	return per(dEmbed) + per(dPredict) + per(dMatch), nil
}

// swapRung times hot swaps on a warm server and counts the route-cache misses
// the first pass over the hot set pays after one.
func (l *ladder) swapRung(st *stack, s stream) error {
	cp, err := st.checkpoint()
	if err != nil {
		return err
	}
	hot := stream{s.reqs[:min(len(s.reqs), hotDistinct)], s.want}
	g, tgt := loadgen{clients: l.clients}, inProcess(st.srv, hot.reqs)
	lat := make([]int64, len(hot.reqs))
	g.replay(hot, 0, len(hot.reqs), lat, -1, tgt) // fill the cache
	var swaps []float64
	for i := 0; i < swapRounds; i++ {
		snap, err := serve.SnapshotFromCheckpoint(cp)
		if err != nil {
			return err
		}
		d, _, err := timeIt(func() error { return st.srv.Swap(snap) })
		if err != nil {
			return err
		}
		swaps = append(swaps, ms(d))
	}
	m0 := st.srv.Metrics().Snapshot()
	if t := g.replay(hot, 0, len(hot.reqs), lat, -1, tgt); t.failed > 0 {
		l.problem("post-swap pass: %d of %d requests failed", t.failed, t.attempted)
	}
	l.set("serve.swap_ms", median(swaps), "ms")
	l.set("serve.post_swap_miss_count", float64(st.srv.Metrics().Snapshot().CacheMisses-m0.CacheMisses), "count")
	return nil
}

// httpRungs measures the codec alone, then the same stream over two
// keep-alive connections to the replica's handler, to a gateway with an empty
// chain, and to a gateway with the full chain. The last rung is then repeated
// with spans on the client and on both handlers, so the request's time is also
// split by nesting, not only by rung difference.
func (l *ladder) httpRungs(st *stack, s stream, inProc float64) error {
	bodies, err := predictBodies(s.reqs)
	if err != nil {
		return err
	}
	if err := l.codecRung(s.reqs[0]); err != nil {
		return err
	}
	ids := make(map[uint64]int64, len(bodies))
	for i, b := range bodies {
		ids[bodyHash(b)] = int64(i)
	}
	var sw atomic.Pointer[tracer] // handlers record only while the traced repeat runs
	replica, err := st.serveHTTP(spanHandler(&sw, "serve.handler", ids))
	if err != nil {
		return err
	}
	empty, gwEmpty, err := st.gatewayHTTP(replica, []string{}, nil)
	if err != nil {
		return err
	}
	full, gwFull, err := st.gatewayHTTP(replica, fullChain, spanHandler(&sw, "gateway.handler", ids))
	if err != nil {
		return err
	}
	n := min(l.scale(httpOps), len(s.reqs))
	g := loadgen{clients: httpConns}
	var p50s, allocs [3]float64
	for i, base := range []string{replica, empty, full} {
		c := newHTTPClient(httpConns)
		tgt := overHTTP(c, "http://"+base, benchToken, bodies)
		if err := st.warmHTTP(c, "http://"+base); err != nil {
			return err
		}
		p50s[i], allocs[i] = l.rung(g, s, n, tgt, base)
		if i == 2 {
			// The top rung once more with spans on, for the split by nesting;
			// the rung's own numbers above stay untraced.
			first := len(l.tr.recorded())
			sw.Store(l.tr)
			l.rung(loadgen{clients: httpConns, tr: l.tr, span: "client.predict"}, s, n, tgt, base+" traced")
			sw.Store(nil)
			l.spanSplit(l.tr.recorded()[first:])
		}
		if d := c.dials.Load(); d != httpConns {
			l.problem("http rung %d opened %d connections, want %d", i, d, httpConns)
		}
		c.close()
	}
	l.set("serve.http_ns_per_req", p50s[0], "ns")
	l.set("serve.http_allocs_per_req", allocs[0], "count")
	l.set("gateway.proxy_ns_per_req", p50s[1], "ns")
	l.set("gateway.proxy_allocs_per_req", allocs[1], "count")
	l.set("gateway.chain_ns_per_req", p50s[2]-p50s[1], "ns")
	l.set("gateway.chain_allocs_per_req", allocs[2]-allocs[1], "count")
	stFull := gwFull.State()
	l.set("gateway.session_hit_share", float64(stFull.SessionHits)/float64(max(stFull.SessionHits+stFull.SessionMisses, 1)), "share")
	l.set("gateway.failover_count", float64(stFull.Failovers+gwEmpty.State().Failovers), "count")
	if l.clients == httpConns { // the in-process rung ran at the HTTP rungs' client count, so the self times telescope
		fmt.Fprintf(l.o.Log, "http ladder at %d clients, self time p50 ns: in-process %.0f + replica http %.0f + gateway proxy %.0f + chain %.0f = top rung %.0f\n",
			httpConns, inProc, p50s[0]-inProc, p50s[1]-p50s[0], p50s[2]-p50s[1], p50s[2])
	}
	return nil
}

// codecRung times what each HTTP hop does to a request besides moving it:
// marshal a PredictRequest, unmarshal a PredictResponse.
func (l *ladder) codecRung(r request) error {
	respBody, err := json.Marshal(httpapi.PredictResponse{Class: 3, Expert: 2, Matched: true, Snapshot: 1, Model: httpapi.DefaultModel})
	if err != nil {
		return err
	}
	iters := l.scale(codecIters)
	d, allocs, err := timeIt(func() error {
		for i := 0; i < iters; i++ {
			if _, err := json.Marshal(httpapi.PredictRequest{X: r.x, Model: httpapi.DefaultModel}); err != nil {
				return err
			}
			var pr httpapi.PredictResponse
			if err := json.Unmarshal(respBody, &pr); err != nil {
				return err
			}
		}
		return nil
	})
	l.set("httpapi.codec_ns_per_req", float64(d)/float64(iters), "ns")
	l.set("httpapi.codec_allocs_per_req", float64(allocs)/float64(iters), "count")
	return err
}

// spanSplit nests the full-chain rung's spans by request — client.predict
// causes gateway.handler causes serve.handler — and prints each layer's
// median self time.
func (l *ladder) spanSplit(spans []span) {
	order := []string{"client.predict", "gateway.handler", "serve.handler"}
	byReq := make(map[int64][3]int32)
	for _, s := range spans {
		for k, name := range order {
			if s.Name == name {
				ids := byReq[s.Req]
				ids[k] = s.ID
				byReq[s.Req] = ids
			}
		}
	}
	for i := range spans {
		for k := 1; k < len(order); k++ {
			if spans[i].Name == order[k] {
				spans[i].Parent = byReq[spans[i].Req][k-1]
			}
		}
	}
	self := selfTimes(spans)
	var per [3][]int64
	for _, s := range spans {
		for k, name := range order {
			if s.Name == name {
				per[k] = append(per[k], self[s.ID])
			}
		}
	}
	fmt.Fprintf(l.o.Log, "full-chain rung, median self time by span nesting:")
	for k, name := range order {
		v, _ := percentile(sortedCopy(per[k]), 0.5)
		fmt.Fprintf(l.o.Log, " %s %d ns (%d spans)", name, v, len(per[k]))
	}
	fmt.Fprintln(l.o.Log)
}

// workloadRung runs the workload itself, alternating untraced and traced
// segments until the budget is spent (at least one of each). The medians of
// each kind give the tracing overhead; the untraced ones give the client-side
// tail and error share that are diagnostics rather than end-to-end metrics.
func (l *ladder) workloadRung(w workload, budget time.Duration) (tally, error) {
	if err := w.setup(filepath.Join(l.scratch, "workload")); err != nil {
		return tally{}, err
	}
	defer w.close()
	if err := w.prepare(l.o.Seed); err != nil {
		return tally{}, err
	}
	lat := make([]int64, w.ops())
	w.segment(lat, nil, -1)
	w.markStart()
	runtime.GC()
	var plain, spanned, p50s, p99s, cpus, spins []float64
	var total tally
	beyond := 0
	start := time.Now()
	for i := 0; ; i++ {
		iter := time.Now()
		spins = append(spins, ms(spin()))
		p := w.segment(lat, nil, 2*i)
		slices.Sort(lat)
		p50, _ := percentile(lat, 0.50)
		p99, b := percentile(lat, 0.99)
		p50s, p99s, cpus, beyond = append(p50s, float64(p50)/1e6), append(p99s, float64(p99)/1e6), append(cpus, cpuPerOp(p)), b
		s := w.segment(lat, l.tr, 2*i+1)
		plain, spanned = append(plain, p.rate()), append(spanned, s.rate())
		total.add(p.tally)
		total.add(s.tally)
		if time.Since(start)+time.Since(iter) > budget {
			break
		}
	}
	if total.failed > 0 {
		l.problem("workload rung: %d of %d ops failed", total.failed, total.attempted)
	}
	if !l.o.Smoke {
		l.problems = append(l.problems, w.check()...)
	}
	l.set("client.throughput", median(plain), "1/s")
	l.set("client.latency_p50_ms", median(p50s), "ms")
	l.set("client.latency_p99_ms", median(p99s), "ms")
	l.set("client.cpu_us_per_op", median(cpus), "us")
	l.set("client.error_share", total.errorShare(), "share")
	l.set("trace.overhead_share", 1-median(spanned)/median(plain), "share")
	l.set("host.spin_ms_best", slices.Min(spins), "ms")
	l.set("host.spin_ms_median", median(spins), "ms")
	fmt.Fprintf(l.o.Log, "workload rung: %d untraced + %d traced segments; median %.1f vs %.1f ops/s; each p99 has %d samples beyond it\n",
		len(plain), len(spanned), median(plain), median(spanned), beyond)
	return total, nil
}
