package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/httpapi"
	"repro/internal/serve"
	"repro/internal/service"
)

const benchToken = "bench-token"

// fullChain is the whole middleware vocabulary, in the order the committed
// gateway benchmark runs it.
var fullChain = []string{"logging", "auth", "ratelimit", "admission"}

// stack is a trained mixture being served: the per-window checkpoints, one
// serve.Server on the last of them, and whatever listeners and gateways were
// put in front of it.
type stack struct {
	paths []string // checkpoint after each window
	srv   *serve.Server
	stops []func() // teardown, run in reverse
}

// newStack trains the fixture checkpoint for the arch, loads it back from disk
// the way shiftex-serve does, and starts a default-configured server on it.
func newStack(hidden []int, dir string) (*stack, error) {
	paths, err := trainCheckpoint(hidden, dir)
	if err != nil {
		return nil, err
	}
	snap, err := serve.LoadSnapshot(paths[len(paths)-1])
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(snap, serve.Config{})
	if err != nil {
		return nil, err
	}
	return &stack{paths: paths, srv: srv, stops: []func(){func() { _ = srv.Close() }}}, nil
}

// close tears the stack down; it is safe on a stack whose set-up failed.
func (s *stack) close() {
	if s == nil {
		return
	}
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

// checkpoint loads the final-window checkpoint (the one being served).
func (s *stack) checkpoint() (*service.Checkpoint, error) {
	return service.LoadCheckpoint(s.paths[len(s.paths)-1])
}

// stream generates n distinct requests from the seed and the answers the
// serving snapshot must give them.
func (s *stack) stream(n int, seed uint64) (stream, error) {
	cp, err := s.checkpoint()
	if err != nil {
		return stream{}, err
	}
	reqs, err := requestStream(cp, n, seed)
	if err != nil {
		return stream{}, err
	}
	want, err := oracle(s.srv.Snapshot(), reqs)
	return stream{reqs, want}, err
}

// serveHTTP puts the replica's own handler on a loopback listener.
func (s *stack) serveHTTP(wrap func(http.Handler) http.Handler) (addr string, err error) {
	h := s.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	addr, stop, err := listen(h)
	if err != nil {
		return "", err
	}
	s.stops = append(s.stops, stop)
	return addr, nil
}

// gatewayHTTP starts a gateway with the given predict chain in front of one
// replica, limits sized never to shed, session cache and health prober on.
func (s *stack) gatewayHTTP(replica string, chain []string, wrap func(http.Handler) http.Handler) (addr string, g *gateway.Gateway, err error) {
	g, err = gateway.New(gateway.Config{
		Models:        map[string][]string{httpapi.DefaultModel: {replica}},
		Middlewares:   map[string][]string{gateway.RoutePredict: chain, gateway.RouteAdmin: {}},
		AuthTokens:    []string{benchToken},
		RatePerSecond: 1e9,
		RateBurst:     1e9,
	}, nil)
	if err != nil {
		return "", nil, err
	}
	g.Start()
	h := g.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	addr, stop, err := listen(h)
	if err != nil {
		g.Close()
		return "", nil, err
	}
	s.stops = append(s.stops, g.Close, stop)
	return addr, g, nil
}

// warmHTTP sends a few requests per connection so dialling and the
// first-request paths are behind us before anything is timed. The inputs come
// from warmSeed, a stream no run seed reproduces, so warm-up can never
// pre-fill a cache for the measured stream.
func (s *stack) warmHTTP(c *httpClient, url string) error {
	st, err := s.stream(8*httpConns, warmSeed)
	if err != nil {
		return err
	}
	bodies, err := predictBodies(st.reqs)
	if err != nil {
		return err
	}
	g, n := loadgen{clients: httpConns}, len(st.reqs)
	if t := g.replay(st, 0, n, make([]int64, n), -1, overHTTP(c, url, benchToken, bodies)); t.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", t.failed, t.attempted)
	}
	return nil
}

// spanHandler is the benchmark-side decorator that records a span around an
// http.Handler. The request is recognised by the hash of its body — the
// client and the gateway marshal a predict identically — so the spans of one
// request share its id on both hops without the program carrying a header.
// It records only while on holds a tracer.
func spanHandler(on *atomic.Pointer[tracer], name string, ids map[uint64]int64) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tr := on.Load()
			if tr == nil {
				next.ServeHTTP(w, r)
				return
			}
			start := time.Now()
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			next.ServeHTTP(w, r)
			if id, ok := ids[bodyHash(body)]; ok {
				tr.add(name, id, 0, start, time.Now())
			}
		})
	}
}

// bodyHash is FNV-1a, inlined so the decorator allocates nothing for it.
func bodyHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// serveWorkload is serve-cold and serve-warm-swap: the same server code fed
// two different streams. A segment is blocks × blockOps requests; when swap
// is set, a fresh snapshot alternating between the window-3 and window-4
// checkpoints is hot-swapped in after every block.
type serveWorkload struct {
	hidden   []int
	distinct int
	blocks   int
	blockOps int
	swap     bool
	minHit   float64 // required route-cache hit share over the measured phase
	maxHit   float64
	// latencyLimit is about four times the median latency on the reference
	// host: far enough that host drift does not move within_limit_share,
	// near enough that a change which doubles the tail does.
	latencyLimit time.Duration

	*stack
	st      stream
	kinds   [2][]expected // oracle per checkpoint: [0] window 3, [1] window 4
	cps     [2]*service.Checkpoint
	version int
	served  tally // every request sent since markStart
	m0      serve.MetricsSnapshot
}

const serveClients = 32 // the committed BENCH_serving-cold.json operating point

func (w *serveWorkload) ops() int { return w.blocks * w.blockOps }

func (w *serveWorkload) limit() time.Duration { return w.latencyLimit }

func (w *serveWorkload) setup(dir string) error {
	st, err := newStack(w.hidden, dir)
	w.stack = st
	return err
}

func (w *serveWorkload) prepare(seed uint64) (err error) {
	if w.st, err = w.stream(w.distinct, seed); err != nil {
		return err
	}
	w.kinds[1], w.version = w.st.want, 1
	if !w.swap {
		return nil
	}
	if w.cps[1], err = w.checkpoint(); err != nil {
		return err
	}
	if w.cps[0], err = service.LoadCheckpoint(w.paths[len(w.paths)-2]); err != nil {
		return err
	}
	// Route needs the radius a server stamps on adoption; a throwaway
	// server adopts the window-3 snapshot so the oracle can use it.
	snap, err := serve.SnapshotFromCheckpoint(w.cps[0])
	if err != nil {
		return err
	}
	tmp, err := serve.NewServer(snap, serve.Config{})
	if err != nil {
		return err
	}
	w.kinds[0], err = oracle(snap, w.st.reqs)
	_ = tmp.Close() // it served nothing
	return err
}

func (w *serveWorkload) markStart() {
	w.m0, w.served = w.srv.Metrics().Snapshot(), tally{}
}

func (w *serveWorkload) segment(lat []int64, tr *tracer, segNo int) segment {
	g := loadgen{clients: serveClients, tr: tr, span: "serve.predict"}
	tgt := inProcess(w.srv, w.st.reqs)
	seg := measure(func() (total tally) {
		for b := 0; b < w.blocks; b++ {
			w.st.want = w.kinds[w.version%2]
			wantVersion := -1
			if w.swap {
				wantVersion = w.version
			}
			g.reqBase = int64(segNo*w.ops() + b*w.blockOps)
			total.add(g.replay(w.st, b*w.blockOps, w.blockOps, lat[b*w.blockOps:], wantVersion, tgt))
			if w.swap {
				if err := w.hotSwap(tr, g.reqBase); err != nil {
					total.add(tally{attempted: 1, failed: 1})
				}
			}
		}
		return total
	})
	w.served.add(seg.tally)
	return seg
}

func (w *serveWorkload) accuracy() float64 { return w.served.accuracy() }

// hotSwap builds a fresh snapshot of the other checkpoint and swaps it in
// between two drained blocks, so every request's serving version — and with
// it accuracy and every count — repeats exactly.
func (w *serveWorkload) hotSwap(tr *tracer, req int64) error {
	t0 := time.Now()
	snap, err := serve.SnapshotFromCheckpoint(w.cps[(w.version+1)%2])
	if err != nil {
		return err
	}
	t1 := time.Now()
	err = w.srv.Swap(snap)
	t2 := time.Now()
	tr.add("serve.snapshot_build", req, 0, t0, t1)
	tr.add("serve.swap", req, 0, t1, t2)
	w.version++
	return err
}

// hitShare is the route cache's hit share between two metric snapshots.
func hitShare(m0, m1 serve.MetricsSnapshot) float64 {
	hits, misses := m1.CacheHits-m0.CacheHits, m1.CacheMisses-m0.CacheMisses
	return float64(hits) / float64(max(hits+misses, 1))
}

func (w *serveWorkload) check() []string {
	var problems []string
	if h := hitShare(w.m0, w.srv.Metrics().Snapshot()); h < w.minHit || h > w.maxHit {
		problems = append(problems, fmt.Sprintf("route-cache hit share %.4f outside [%g, %g]", h, w.minHit, w.maxHit))
	}
	if m := w.srv.Metrics().Snapshot(); m.Rejected != 0 || m.Errored != 0 {
		problems = append(problems, fmt.Sprintf("server counted %d rejected, %d errored", m.Rejected, m.Errored))
	}
	return problems
}

// gatewayWorkload is gateway-http: the small-arch stream, all distinct, POSTed
// over two keep-alive connections to a gateway running the full chain in
// front of one replica's HTTP handler.
type gatewayWorkload struct {
	segOps int

	*stack
	st     stream
	served tally
	client *httpClient
	tgt    target
	gw     *gateway.Gateway
	url    string
}

const (
	httpConns = 2 // = nproc on the reference host
	warmSeed  = 0xfeedfacecafebeef
)

func (w *gatewayWorkload) ops() int { return w.segOps }

// limit is five times the median on the reference host and half the
// batcher's MaxDelay: a request that waited out the flush ticker misses it.
func (w *gatewayWorkload) limit() time.Duration { return time.Millisecond }

func (w *gatewayWorkload) setup(dir string) error {
	st, err := newStack(smallArch, dir)
	if err != nil {
		return err
	}
	w.stack = st
	replica, err := st.serveHTTP(nil)
	if err != nil {
		return err
	}
	addr, g, err := st.gatewayHTTP(replica, fullChain, nil)
	if err != nil {
		return err
	}
	w.gw, w.url = g, "http://"+addr
	w.client = newHTTPClient(httpConns)
	st.stops = append(st.stops, w.client.close)
	return st.warmHTTP(w.client, w.url)
}

func (w *gatewayWorkload) prepare(seed uint64) (err error) {
	if w.st, err = w.stream(coldDistinct, seed); err != nil {
		return err
	}
	bodies, err := predictBodies(w.st.reqs)
	w.tgt = overHTTP(w.client, w.url, benchToken, bodies)
	return err
}

func (w *gatewayWorkload) markStart() { w.served = tally{} }

func (w *gatewayWorkload) segment(lat []int64, tr *tracer, segNo int) segment {
	g := loadgen{clients: httpConns, tr: tr, span: "client.predict", reqBase: int64(segNo * w.segOps)}
	seg := measure(func() tally { return g.replay(w.st, 0, w.segOps, lat, -1, w.tgt) })
	w.served.add(seg.tally)
	return seg
}

func (w *gatewayWorkload) accuracy() float64 { return w.served.accuracy() }

func (w *gatewayWorkload) check() []string {
	var problems []string
	if d := w.client.dials.Load(); d != httpConns {
		problems = append(problems, fmt.Sprintf("client opened %d connections, want %d (connections were not reused)", d, httpConns))
	}
	st := w.gw.State()
	if st.Errors != 0 || st.Rejected != 0 || st.Failovers != 0 || st.SessionHits != 0 {
		problems = append(problems, fmt.Sprintf("gateway counted %d errors, %d rejected, %d failovers, %d session hits; want 0",
			st.Errors, st.Rejected, st.Failovers, st.SessionHits))
	}
	return problems
}
