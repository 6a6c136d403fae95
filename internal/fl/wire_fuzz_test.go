package fl

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/tensor"
)

// quickDeadlineConn compresses time for the handler under test: whatever
// deadline it arms (handshake, idle, per-call) lands at most fuzzDeadline
// away, so "released by its deadline" is observable in milliseconds.
type quickDeadlineConn struct{ net.Conn }

const fuzzDeadline = 5 * time.Millisecond

func (c quickDeadlineConn) SetDeadline(t time.Time) error {
	if limit := time.Now().Add(fuzzDeadline); t.After(limit) {
		t = limit
	}
	return c.Conn.SetDeadline(t)
}

// recordClient returns the bytes an aggregator puts on a new connection for
// the given exchanges: its preamble, then one frame per request.
func recordClient(t testing.TB, reqs ...request) []byte {
	t.Helper()
	client, sink := net.Pipe()
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(sink)
		got <- b
	}()
	w := newWire(client)
	if err := w.writePreamble(); err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		env := req
		env.Global = nil
		if err := w.send(&env, req.Global); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	return <-got
}

// FuzzPartyServerConn feeds an arbitrary byte stream to a party server's
// connection handler. Whatever arrives — garbage, a truncated frame, a header
// announcing far more than follows — the handler must not panic, must not
// allocate beyond what it received plus bounded slack, and must let go of
// the connection: at once when the peer hangs up, and by its own deadline
// when the peer goes silent (stall) with the connection open.
func FuzzPartyServerConn(f *testing.F) {
	add := func(stream []byte) {
		f.Add(stream, false)
		f.Add(stream, true)
	}
	spec := testSpec()
	p := buildParties(f, spec, 19)[0]
	a := []int{spec.InputDim, 6, 4, spec.NumClasses}
	global := initParams(f, a)
	cfg := validCfg()

	train := request{Kind: reqTrain, Arch: a, Global: global, Cfg: cfg, Traceparent: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"}
	stats := request{Kind: reqStats, Arch: a, Global: global, NumClasses: spec.NumClasses, Seed: 5}
	eval := request{Kind: reqEval, Arch: a, Global: global}
	hist := request{Kind: reqHist, NumClasses: spec.NumClasses}
	advance := request{Kind: reqAdvance, Window: 0}
	// Real exchanges, whole and cut short.
	session := recordClient(f, advance, train, stats, eval, hist)
	add(session)
	add(session[:len(session)/2])
	add(session[:8+8+3])
	for _, r := range []request{train, stats, eval, hist, advance} {
		add(recordClient(f, r))
	}
	// Lengths that lie. A frame header announcing the largest vector and
	// envelope with nothing behind them; a vector length that disagrees with
	// the arch; a gob message inside a small envelope claiming a gigabyte.
	preamble := recordClient(f)
	header := func(envLen, vecLen uint32) []byte {
		h := binary.LittleEndian.AppendUint32(append([]byte(nil), preamble...), envLen)
		return binary.LittleEndian.AppendUint32(h, vecLen)
	}
	add(header(maxEnvelope, maxVectorLen))
	add(header(maxEnvelope+1, 0))
	add(header(0xffffffff, 0xffffffff))
	lying := recordClient(f, eval)
	binary.LittleEndian.PutUint32(lying[len(preamble)+4:], maxVectorLen)
	add(lying)
	add(append(header(9, 0), 0xfc, 0x40, 0, 0, 0, 1, 2, 3, 4))
	// Well-framed requests whose numbers would size a buffer or a loop.
	greedy := train
	greedy.Cfg.BatchSize, greedy.Cfg.Epochs = 1<<40, 1<<40
	add(recordClient(f, greedy))
	greedy.Cfg.Epochs = 1
	add(recordClient(f, greedy, request{Kind: reqHist, NumClasses: 1 << 40}))
	add([]byte("GET / HTTP/1.1\r\n\r\n")) // not this protocol at all
	add([]byte{})

	rawParty := &Party{ID: p.ID, Train: p.Train, Test: p.Test}
	srv, err := NewPartyServer("127.0.0.1:0", rawParty, spec.NumClasses, tensor.NewRNG(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, data []byte, stall bool) {
		client, server := net.Pipe()
		defer client.Close()
		go io.Copy(io.Discard, client) // a pipe write blocks until read: drain the handler's answers

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		released := make(chan struct{})
		go func() {
			defer close(released)
			srv.handle(quickDeadlineConn{server})
		}()
		_ = client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_, _ = client.Write(data) // fails once the handler has hung up: that is an outcome, not an error
		if !stall {
			client.Close()
		}
		// A stalled client neither closes nor sends more: only the
		// handler's own deadline can release it.
		select {
		case <-released:
		case <-time.After(10 * time.Second):
			t.Fatal("handler still holds the connection long after its deadline")
		}
		runtime.ReadMemStats(&after)

		// Per-connection state, one envelope (maxEnvelope) and one growth
		// step of a vector buffer (growFloats) are the bounded slack; a
		// request that is fully received may build its model, workspace and
		// result — a small multiple of the vector bytes that arrived.
		const slack = 4 << 20
		if grew := after.TotalAlloc - before.TotalAlloc; grew > slack+32*uint64(len(data)) {
			t.Fatalf("handler allocated %d B for %d B received", grew, len(data))
		}
	})
}

// TestRecordedSessionIsServed keeps the fuzz corpus honest: the recorded
// session is a stream a party server serves to the end, request by request.
func TestRecordedSessionIsServed(t *testing.T) {
	spec := testSpec()
	p := buildParties(t, spec, 19)[0]
	a := arch(spec)
	global := initParams(t, a)
	srv := startParty(t, "127.0.0.1:0", p, spec.NumClasses)
	session := recordClient(t,
		request{Kind: reqAdvance},
		request{Kind: reqTrain, Arch: a, Global: global, Cfg: validCfg()},
		request{Kind: reqStats, Arch: a, Global: global, Seed: 5},
		request{Kind: reqEval, Arch: a, Global: global},
		request{Kind: reqHist})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	go func() { _, _ = conn.Write(session) }()
	w := newWire(conn)
	if v, ok, err := w.readPreamble(); err != nil || !ok || v != wireVersion {
		t.Fatalf("preamble: v%d, magic %v, %v", v, ok, err)
	}
	for i, wantVec := range []int{0, len(global), 0, 0, 0} {
		var resp response
		n, err := w.recv(&resp)
		if err != nil || resp.Err != "" {
			t.Fatalf("response %d: %v %s", i, err, resp.Err)
		}
		if n != wantVec {
			t.Fatalf("response %d carries %d parameters, want %d", i, n, wantVec)
		}
		if _, err := w.recvVector(nil, n); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Requests(); got != 5 {
		t.Fatalf("server handled %d requests, want 5", got)
	}
}

// TestRecvVectorGrowsWithInput pins the chunked growth the fuzz target's
// allocation bound relies on, at a size fuzzing does not reach: a peer
// announcing the largest vector makes the receiver commit at most growFloats
// beyond the floats that have arrived.
func TestRecvVectorGrowsWithInput(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	const sent = 3 * growFloats / 2
	go func() {
		_, _ = client.Write(make([]byte, 8*sent))
		client.Close()
	}()
	got, err := newWire(server).recvVector(nil, maxVectorLen)
	if err == nil {
		t.Fatal("a vector cut short must be an error")
	}
	if len(got) != sent {
		t.Fatalf("received %d floats, want the %d that were sent", len(got), sent)
	}
	if cap(got) > sent+growFloats {
		t.Fatalf("receive buffer grew to %d floats for %d received, want at most %d ahead", cap(got), sent, growFloats)
	}
}
