package fl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// reqKind discriminates request types on the wire.
type reqKind int

const (
	reqTrain reqKind = iota + 1
	reqStats
	reqEval
	reqHist
	reqAdvance
)

func (k reqKind) String() string {
	switch k {
	case reqTrain:
		return "train"
	case reqStats:
		return "stats"
	case reqEval:
		return "eval"
	case reqHist:
		return "hist"
	case reqAdvance:
		return "advance"
	default:
		return fmt.Sprintf("kind%d", int(k))
	}
}

// carriesParams reports whether requests of this kind are followed by a
// parameter vector sized by their Arch.
func (k reqKind) carriesParams() bool { return k == reqTrain || k == reqStats || k == reqEval }

// request is the wire envelope sent by the aggregator. Global travels as the
// frame's raw vector block, never inside the gob envelope.
type request struct {
	Kind   reqKind
	Arch   []int
	Global tensor.Vector
	Cfg    TrainConfig
	// NumClasses is used by stats and histogram requests.
	NumClasses int
	// Seed makes party-side randomness (detector subsampling) a pure
	// function of the request, so a remote party and an in-process one
	// produce identical statistics. 0 falls back to the server's own
	// stream (legacy behavior).
	Seed uint64
	// Window is the target stream window for advance requests.
	Window int
	// Traceparent carries the aggregator-side trace context (W3C
	// traceparent format) so a party-side span joins the same trace.
	// Empty when the aggregator runs untraced; gob tolerates the field
	// being absent on older peers.
	Traceparent string
}

// response is the wire envelope returned by a party. Update.Params travels as
// the frame's raw vector block.
type response struct {
	Update Update
	Stats  detect.PartyStats
	Acc    float64
	Hist   stats.Histogram
	Err    string
}

// Connection lifecycle constants. None is configurable: they bound resources,
// they do not tune behavior.
const (
	// serverCallTimeout bounds one exchange on the party side, from the
	// first byte of the request to the last byte of the response.
	serverCallTimeout = 2 * time.Minute
	// serverIdleTimeout is how long a party keeps a connection with no
	// request in flight; clientIdleLimit, well below it, is when the
	// aggregator stops reusing one — so a pooled connection the aggregator
	// picks has not been reaped by the party.
	serverIdleTimeout = 5 * time.Minute
	clientIdleLimit   = 90 * time.Second
	// handshakeTimeout bounds the preamble exchange on an accepted
	// connection.
	handshakeTimeout = 10 * time.Second
	// maxIdlePerParty bounds pooled connections per party. The fleet fans
	// out across parties, so one party sees one call at a time; the spare
	// absorbs a call abandoned by a caller-side timeout.
	maxIdlePerParty = 2
)

// PartyServer serves one party's training and shift-statistics endpoints
// over TCP. It owns a background accept loop and one goroutine per live
// connection; stop them with Close.
type PartyServer struct {
	exec *PartyExecutor

	ln net.Listener
	wg sync.WaitGroup

	tracer   atomic.Pointer[telemetry.Tracer]
	requests atomic.Int64
	accepted atomic.Int64

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool // live connections; true while an exchange is in flight
}

// SetTracer attaches a tracer; each wire request then records a
// party.<kind> span, continuing the aggregator's trace when the request
// carries a valid traceparent.
func (s *PartyServer) SetTracer(t *telemetry.Tracer) { s.tracer.Store(t) }

// Requests reports how many wire requests the server has handled.
func (s *PartyServer) Requests() int64 { return s.requests.Load() }

// Connections reports how many connections the server has accepted; with a
// pooling aggregator it stays far below Requests.
func (s *PartyServer) Connections() int64 { return s.accepted.Load() }

// NewPartyServer starts serving the party on addr (e.g. "127.0.0.1:0").
// The returned server is already accepting connections.
func NewPartyServer(addr string, party *Party, numClasses int, rng *tensor.RNG) (*PartyServer, error) {
	exec, err := NewPartyExecutor(party, numClasses, rng)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fl: listen %s: %w", addr, err)
	}
	s := &PartyServer{exec: exec, ln: ln, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// SetWindowProvider attaches a stream of per-window data; the server then
// honors window-advance requests from the aggregator.
func (s *PartyServer) SetWindowProvider(p WindowProvider) { s.exec.SetWindowProvider(p) }

// Addr returns the server's bound address.
func (s *PartyServer) Addr() string { return s.ln.Addr().String() }

// Close stops the accept loop, closes every idle connection — its handler is
// parked in a read that would otherwise hold until serverIdleTimeout — and
// waits for the exchanges in flight to be answered. Closing again is a
// no-op.
func (s *PartyServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c, busy := range s.conns {
		if !busy {
			_ = c.Close() // unblocks the handler, whose own Close reports nothing new
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *PartyServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			continue // transient accept error; keep serving
		}
		s.accepted.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// mark records whether the connection has an exchange in flight, so Close
// knows which handlers it may cut and which it must let answer; false means
// the server is closing and the handler should stop.
func (s *PartyServer) mark(conn net.Conn, busy bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = busy
	return true
}

// handle serves one connection: the preamble, then exchanges until the peer
// hangs up, the idle limit passes, or anything goes wrong — after any error
// the stream position is unknown, so the connection is never reused.
func (s *PartyServer) handle(conn net.Conn) {
	defer conn.Close()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if !s.mark(conn, false) {
		return
	}
	w := newWire(conn)
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := w.serverHandshake(); err != nil {
		return
	}
	for s.mark(conn, false) {
		_ = conn.SetDeadline(time.Now().Add(serverIdleTimeout))
		if _, err := w.br.Peek(1); err != nil || !s.mark(conn, true) {
			return
		}
		_ = conn.SetDeadline(time.Now().Add(serverCallTimeout))
		if !s.exchange(w) {
			return
		}
	}
}

// exchange reads one request, executes it and writes the response; false
// means the connection must be dropped.
func (s *PartyServer) exchange(w *wire) bool {
	var req request
	n, err := w.recv(&req)
	if err != nil {
		return false
	}
	s.requests.Add(1)
	// The vector's length is settled before a byte of it is read: exactly
	// the arch's parameter count, or nothing for kinds that carry none.
	want := 0
	if req.Kind.carriesParams() {
		want, err = checkedParamCount(req.Arch)
	}
	if err == nil && n != want {
		err = fmt.Errorf("fl: %s request carries %d parameters, want %d", req.Kind, n, want)
	}
	if err != nil {
		_ = w.send(&response{Err: err.Error()}, nil) // the unread vector leaves the stream unusable
		return false
	}
	if n > 0 {
		// The request's vector arrives in a pooled buffer, and a train
		// response leaves in the same one (see execute): it goes back to the
		// pool exactly once, when the exchange is over either way.
		buf, err := w.recvVector(takeParams(0), n)
		defer RecycleParams(buf)
		if err != nil {
			return false
		}
		req.Global = buf
	}
	resp := s.execute(&req)
	params := resp.Update.Params
	resp.Update.Params = nil
	return w.send(&resp, params) == nil
}

// execute runs one decoded request on the party executor under a
// party.<kind> span.
func (s *PartyServer) execute(req *request) (resp response) {
	var span *telemetry.Span
	if tr := s.tracer.Load(); tr != nil {
		// A malformed traceparent is replaced with a fresh root, never
		// propagated (same policy as the HTTP tiers).
		parent, _ := telemetry.ParseTraceparent(req.Traceparent)
		span = tr.StartSpan("party."+req.Kind.String(), parent)
		span.SetAttrInt("party", int64(s.exec.ID()))
	}
	var err error
	switch req.Kind {
	case reqTrain:
		// The trained model is written over the request's own buffer.
		resp.Update, err = s.exec.trainInto(req.Global, req.Arch, req.Global, req.Cfg)
	case reqStats:
		resp.Stats, err = s.exec.Stats(req.Arch, req.Global, req.Seed)
	case reqEval:
		resp.Acc, err = s.exec.Eval(req.Arch, req.Global)
	case reqHist:
		if req.NumClasses > maxEnvelope/8 {
			err = fmt.Errorf("fl: a %d-class histogram does not fit a response envelope", req.NumClasses)
		} else {
			resp.Hist = s.exec.Hist(req.NumClasses)
		}
	case reqAdvance:
		err = s.exec.Advance(req.Window)
	default:
		err = fmt.Errorf("fl: unknown request kind %d", req.Kind)
	}
	if err != nil {
		resp = response{Err: err.Error()}
	}
	if span != nil {
		span.EndErr(err)
	}
	return resp
}

// clientConn is one pooled aggregator-side connection.
type clientConn struct {
	*wire
	addr      string
	idleSince time.Time
}

// TCPTrainer is a Trainer that reaches parties over TCP, keeping a small
// pool of persistent connections per party. It starts no goroutines: a
// trainer that is dropped without Close is collected with its connections.
type TCPTrainer struct {
	mu     sync.Mutex
	addrs  map[int]string
	idle   map[int][]*clientConn
	closed bool
	// DialTimeout bounds connection establishment, handshake included; 0
	// means 5s.
	DialTimeout time.Duration
	// CallTimeout bounds one full request/response exchange (the
	// connection deadline, re-armed per call); 0 means 2m.
	CallTimeout time.Duration

	tracer atomic.Pointer[telemetry.Tracer]
}

// SetTracer attaches a tracer; each wire call then records an fl.<kind>
// span parented under the tracer's active context (the Trainer interface
// carries no ctx, so the aggregator publishes its current stage span via
// Tracer.SetActive) and stamps its traceparent onto the wire request.
func (t *TCPTrainer) SetTracer(tr *telemetry.Tracer) { t.tracer.Store(tr) }

var _ Trainer = (*TCPTrainer)(nil)

// NewTCPTrainer builds a trainer from a party-ID → address map.
func NewTCPTrainer(addrs map[int]string) *TCPTrainer {
	m := make(map[int]string, len(addrs))
	for k, v := range addrs {
		m[k] = v
	}
	return &TCPTrainer{addrs: m, idle: make(map[int][]*clientConn)}
}

// Register adds or replaces a party address. Connections pooled for a
// previous address are closed.
func (t *TCPTrainer) Register(partyID int, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.addrs[partyID] != addr {
		t.dropLocked(partyID)
	}
	t.addrs[partyID] = addr
}

// Close closes every pooled connection. Calls still in flight finish and
// close theirs; later calls dial per call.
func (t *TCPTrainer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for id := range t.idle {
		t.dropLocked(id)
	}
	return nil
}

func (t *TCPTrainer) dropLocked(partyID int) {
	for _, c := range t.idle[partyID] {
		_ = c.conn.Close() // idle: nothing in flight to lose
	}
	delete(t.idle, partyID)
}

// Ping dials the party, completes the version handshake and keeps the
// connection as a pooled one, so the first real call does not dial again.
func (t *TCPTrainer) Ping(partyID int, timeout time.Duration) error {
	c, err := t.dial(partyID, timeout)
	if err != nil {
		return err
	}
	t.put(partyID, c)
	return nil
}

// get returns a connection to the party: the most recently used pooled one
// that is still within clientIdleLimit, else a fresh one.
func (t *TCPTrainer) get(partyID int) (c *clientConn, reused bool, err error) {
	t.mu.Lock()
	for len(t.idle[partyID]) > 0 {
		pool := t.idle[partyID]
		c = pool[len(pool)-1]
		t.idle[partyID] = pool[:len(pool)-1]
		if time.Since(c.idleSince) < clientIdleLimit {
			t.mu.Unlock()
			return c, true, nil
		}
		_ = c.conn.Close() // idle too long: the party may have reaped it
	}
	t.mu.Unlock()
	c, err = t.dial(partyID, t.DialTimeout)
	return c, false, err
}

// put pools a healthy connection, or closes it when the pool is full, the
// trainer is closed, or the party has since moved.
func (t *TCPTrainer) put(partyID int, c *clientConn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.addrs[partyID] != c.addr || len(t.idle[partyID]) >= maxIdlePerParty {
		_ = c.conn.Close()
		return
	}
	c.idleSince = time.Now()
	t.idle[partyID] = append(t.idle[partyID], c)
}

func (t *TCPTrainer) dial(partyID int, timeout time.Duration) (*clientConn, error) {
	t.mu.Lock()
	addr, ok := t.addrs[partyID]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fl: no address registered for party %d", partyID)
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	deadline := time.Now().Add(timeout)
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("fl: dial party %d at %s: %w", partyID, addr, err)
	}
	c := &clientConn{wire: newWire(conn), addr: addr}
	_ = conn.SetDeadline(deadline)
	if err := c.clientHandshake(); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("fl: handshake with party %d at %s: %w", partyID, addr, err)
	}
	return c, nil
}

func (t *TCPTrainer) roundTrip(partyID int, req request) (response, error) {
	if tr := t.tracer.Load(); tr != nil {
		span := tr.StartSpan("fl."+req.Kind.String(), tr.Active())
		span.SetAttrInt("party", int64(partyID))
		req.Traceparent = telemetry.Traceparent(span.Context())
		resp, err := t.doRoundTrip(partyID, req)
		span.EndErr(err)
		return resp, err
	}
	return t.doRoundTrip(partyID, req)
}

// doRoundTrip runs one exchange. When a pooled connection turns out to be
// broken (the party restarted, or reaped it) the request is resent once on a
// fresh connection — but only for the kinds that are pure functions of the
// request and the party's data. A stats request is never resent: the party
// may have executed it before the connection broke, and a second Observe
// would compare the window against itself. Timeouts are not resent either:
// the party is slow, not gone, and is still working on the first copy.
func (t *TCPTrainer) doRoundTrip(partyID int, req request) (response, error) {
	c, reused, err := t.get(partyID)
	if err != nil {
		return response{}, err
	}
	resp, err := t.exchange(partyID, c, &req)
	var netErr net.Error
	if err != nil && reused && !(errors.As(err, &netErr) && netErr.Timeout()) {
		if req.Kind == reqStats {
			return response{}, fmt.Errorf("%w (not resent: the party may already have observed this window)", err)
		}
		if c, err = t.dial(partyID, t.DialTimeout); err != nil {
			return response{}, err
		}
		resp, err = t.exchange(partyID, c, &req)
	}
	if err != nil {
		return response{}, err
	}
	if resp.Err != "" {
		return response{}, fmt.Errorf("fl: party %d: %s", partyID, resp.Err)
	}
	return resp, nil
}

// exchange sends req on c and reads the response, returning c to the pool on
// success and closing it on any error.
func (t *TCPTrainer) exchange(partyID int, c *clientConn, req *request) (resp response, err error) {
	defer func() {
		if err != nil {
			_ = c.conn.Close()
			return
		}
		t.put(partyID, c)
	}()
	callTimeout := t.CallTimeout
	if callTimeout <= 0 {
		callTimeout = 2 * time.Minute
	}
	_ = c.conn.SetDeadline(time.Now().Add(callTimeout))
	env := *req
	env.Global = nil
	if err := c.send(&env, req.Global); err != nil {
		return response{}, fmt.Errorf("fl: encode to party %d: %w", partyID, err)
	}
	n, err := c.recv(&resp)
	if err != nil {
		return response{}, fmt.Errorf("fl: decode from party %d: %w", partyID, err)
	}
	// A train response returns exactly as many parameters as were sent;
	// every other response, and every error, returns none.
	want := 0
	if req.Kind == reqTrain && resp.Err == "" {
		want = len(req.Global)
	}
	if n != want {
		return response{}, fmt.Errorf("fl: decode from party %d: %s response carries %d parameters, want %d", partyID, req.Kind, n, want)
	}
	if n > 0 {
		// The update is received into a pooled buffer taken here, inside the
		// call, and leaves only with the returned Update: a caller that has
		// given up on this call never sees it, so never recycles it.
		buf, err := c.recvVector(takeParams(n), n)
		if err != nil {
			RecycleParams(buf)
			return response{}, fmt.Errorf("fl: decode from party %d: %w", partyID, err)
		}
		resp.Update.Params = buf
	}
	return resp, nil
}

// TrainParty implements Trainer.
func (t *TCPTrainer) TrainParty(partyID int, arch []int, global tensor.Vector, cfg TrainConfig) (Update, error) {
	resp, err := t.roundTrip(partyID, request{Kind: reqTrain, Arch: arch, Global: global, Cfg: cfg})
	if err != nil {
		return Update{}, err
	}
	return resp.Update, nil
}

// FetchStats asks a remote party for its Algorithm-1 shift statistics
// computed against the given encoder parameters. A non-zero seed pins the
// party-side subsampling RNG (see request.Seed).
func (t *TCPTrainer) FetchStats(partyID int, arch []int, global tensor.Vector, numClasses int, seed uint64) (detect.PartyStats, error) {
	resp, err := t.roundTrip(partyID, request{Kind: reqStats, Arch: arch, Global: global, NumClasses: numClasses, Seed: seed})
	if err != nil {
		return detect.PartyStats{}, err
	}
	return resp.Stats, nil
}

// HistParty asks a remote party for its current-window label histogram.
func (t *TCPTrainer) HistParty(partyID, numClasses int) (stats.Histogram, error) {
	resp, err := t.roundTrip(partyID, request{Kind: reqHist, NumClasses: numClasses})
	if err != nil {
		return nil, err
	}
	return resp.Hist, nil
}

// AdvanceParty rolls a remote streaming party forward to window w.
func (t *TCPTrainer) AdvanceParty(partyID, w int) error {
	_, err := t.roundTrip(partyID, request{Kind: reqAdvance, Window: w})
	return err
}

// EvalParty asks a remote party to evaluate parameters on its private test
// split and return only the accuracy.
func (t *TCPTrainer) EvalParty(partyID int, arch []int, global tensor.Vector) (float64, error) {
	resp, err := t.roundTrip(partyID, request{Kind: reqEval, Arch: arch, Global: global})
	if err != nil {
		return 0, err
	}
	return resp.Acc, nil
}
