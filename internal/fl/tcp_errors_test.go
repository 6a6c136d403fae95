package fl

import (
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// framedServer is rawServer for faults past the handshake: it completes the
// wire preamble, then hands the framed connection to the handler.
func framedServer(t *testing.T, handler func(w *wire)) string {
	t.Helper()
	return rawServer(t, func(conn net.Conn) {
		defer conn.Close()
		w := newWire(conn)
		if err := w.serverHandshake(); err != nil {
			return
		}
		handler(w)
	})
}

// rawServer starts a TCP listener driven by a raw connection handler — used
// to fault-inject protocol violations a well-behaved PartyServer never
// produces.
func rawServer(t *testing.T, handler func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handler(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestTCPPartyKilledMidRound covers a party process dying after accepting
// the request but before responding: the connection drops mid-exchange and
// the engine completes the round on the surviving parties.
func TestTCPPartyKilledMidRound(t *testing.T) {
	spec := testSpec()
	parties := buildParties(t, spec, 21)[:2]
	a := arch(spec)

	srv, err := NewPartyServer("127.0.0.1:0", parties[0], spec.NumClasses, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Party 1 "dies" mid-round: reads the request, then the process is
	// gone — the connection closes with no response bytes.
	killed := framedServer(t, func(w *wire) {
		var req request
		_, _ = w.recv(&req)
	})

	trainer := NewTCPTrainer(map[int]string{0: srv.Addr(), 1: killed})
	eng := &Engine{Arch: a, Trainer: trainer, Workers: 2}
	global := initParams(t, a)

	next, updates, err := eng.Round(global, []int{0, 1}, validCfg())
	if err != nil {
		t.Fatalf("round should survive a killed party: %v", err)
	}
	if len(updates) != 1 || updates[0].PartyID != 0 {
		t.Fatalf("expected only party 0's update, got %+v", updates)
	}
	if next == nil {
		t.Fatal("no aggregate returned")
	}

	// The killed party's error itself names the decode failure.
	_, err = trainer.TrainParty(1, a, global, validCfg())
	if err == nil || !strings.Contains(err.Error(), "decode from party 1") {
		t.Fatalf("err = %v, want decode failure naming party 1", err)
	}
}

// TestTCPConnectionRefused covers dialing a party that is not listening.
func TestTCPConnectionRefused(t *testing.T) {
	// Bind a port, then close it so nothing is listening there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	trainer := NewTCPTrainer(map[int]string{3: addr})
	trainer.DialTimeout = 500 * time.Millisecond
	_, err = trainer.TrainParty(3, []int{2, 3, 2}, tensor.Vector{1, 2, 3}, validCfg())
	if err == nil {
		t.Fatal("connection refused should error")
	}
	if !strings.Contains(err.Error(), "dial party 3") || !strings.Contains(err.Error(), addr) {
		t.Fatalf("err should name the party and address, got: %v", err)
	}
}

// TestTCPMalformedResponse covers a party answering with bytes that are not
// a frame, a frame whose envelope is not gob, a valid frame that is
// truncated, and a response announcing a vector the exchange does not call
// for.
func TestTCPMalformedResponse(t *testing.T) {
	// readRequest consumes one whole request so the reply is the only fault.
	readRequest := func(w *wire) {
		var req request
		if n, err := w.recv(&req); err == nil {
			_, _ = w.recvVector(nil, n)
		}
	}
	garbage := framedServer(t, func(w *wire) {
		readRequest(w)
		_, _ = w.conn.Write([]byte("HTTP/1.1 200 OK\r\n\r\nnot a frame"))
	})
	notGob := framedServer(t, func(w *wire) {
		readRequest(w)
		_, _ = w.conn.Write([]byte{5, 0, 0, 0, 0, 0, 0, 0, 'h', 'e', 'l', 'l', 'o'})
	})
	short := framedServer(t, func(w *wire) {
		readRequest(w)
		// Frame a full response, then send only its first few bytes.
		pr, pw := net.Pipe()
		go func() {
			_ = newWire(pw).send(&response{Acc: 0.5}, nil)
			pw.Close()
		}()
		buf := make([]byte, 12)
		n, _ := io.ReadFull(pr, buf)
		pr.Close()
		_, _ = w.conn.Write(buf[:n])
	})
	unasked := framedServer(t, func(w *wire) {
		readRequest(w)
		_ = w.send(&response{Acc: 0.5}, []float64{1, 2, 3})
	})

	for name, addr := range map[string]string{"garbage": garbage, "notGob": notGob, "short": short, "unasked": unasked} {
		t.Run(name, func(t *testing.T) {
			trainer := NewTCPTrainer(map[int]string{0: addr})
			_, err := trainer.EvalParty(0, []int{2, 3, 2}, tensor.Vector{1, 2, 3})
			if err == nil || !strings.Contains(err.Error(), "decode from party 0") {
				t.Fatalf("err = %v, want decode failure", err)
			}
		})
	}
}

// TestTCPMalformedTrainVector covers the one response that fills a pooled
// buffer: a party answering a train request with a vector of the wrong length,
// or dying partway through the right one. Neither may hand the caller a short
// update, and the buffer the receive had taken goes back to the pool once —
// never twice, which would give two later calls the same memory.
func TestTCPMalformedTrainVector(t *testing.T) {
	a := []int{2, 3, 2}
	global := initParams(t, a)
	readRequest := func(w *wire) {
		var req request
		if n, err := w.recv(&req); err == nil {
			_, _ = w.recvVector(nil, n)
		}
	}
	wrongLength := framedServer(t, func(w *wire) {
		readRequest(w)
		_ = w.send(&response{Update: Update{NumSamples: 4}}, global[:len(global)-1])
	})
	diesMidVector := framedServer(t, func(w *wire) {
		readRequest(w)
		// A whole frame header and envelope, then half the vector it announces.
		pr, pw := net.Pipe()
		go func() {
			_ = newWire(pw).send(&response{Update: Update{NumSamples: 4}}, global)
			pw.Close()
		}()
		frame, _ := io.ReadAll(pr)
		_, _ = w.conn.Write(frame[:len(frame)-8*len(global)/2])
	})

	for name, tc := range map[string]struct{ addr, want string }{
		"wrongLength":   {wrongLength, "train response carries 16 parameters, want 17"},
		"diesMidVector": {diesMidVector, "decode from party 0"},
	} {
		t.Run(name, func(t *testing.T) {
			trainer := NewTCPTrainer(map[int]string{0: tc.addr})
			for i := 0; i < 3; i++ {
				u, err := trainer.TrainParty(0, a, global, validCfg())
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want %q", err, tc.want)
				}
				if u.Params != nil {
					t.Fatalf("a failed train call returned %d parameters", len(u.Params))
				}
			}
			// Whatever the failed receives put back, no two takers may get
			// the same memory.
			seen := make(map[*float64]bool)
			for i := 0; i < 16; i++ {
				v := takeParams(1)[:1]
				if seen[&v[0]] {
					t.Fatal("the pool handed out one buffer twice: a failed receive recycled it twice")
				}
				seen[&v[0]] = true
			}
		})
	}
}

// TestTCPRequestTimeout covers a party that accepts and never answers: the
// trainer's call deadline must cut the exchange instead of hanging.
func TestTCPRequestTimeout(t *testing.T) {
	stall := make(chan struct{})
	t.Cleanup(func() { close(stall) })
	addr := framedServer(t, func(*wire) {
		<-stall // hold the connection open, never respond
	})

	trainer := NewTCPTrainer(map[int]string{0: addr})
	trainer.CallTimeout = 300 * time.Millisecond
	start := time.Now()
	_, err := trainer.TrainParty(0, []int{2, 3, 2}, tensor.Vector{1, 2, 3}, validCfg())
	if err == nil {
		t.Fatal("stalled party should time the request out")
	}
	var netErr net.Error
	if !errors.As(err, &netErr) || !netErr.Timeout() {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %s, deadline not applied", elapsed)
	}
}

// sliceWindows is a minimal WindowProvider over in-memory windows.
type sliceWindows struct {
	train [][]dataset.Example
	test  [][]dataset.Example
}

func (s sliceWindows) NumWindows() int { return len(s.train) }
func (s sliceWindows) PartyWindow(w int) ([]dataset.Example, []dataset.Example, error) {
	return s.train[w], s.test[w], nil
}

// TestTCPWindowAdvance covers the streaming protocol: histogram before and
// after an advance, plus the advance error paths.
func TestTCPWindowAdvance(t *testing.T) {
	spec := testSpec()
	sc, err := dataset.BuildScenario(spec, dataset.DefaultShiftConfig(), 31)
	if err != nil {
		t.Fatal(err)
	}
	p := &Party{ID: 0, Train: sc.Windows[0][0].Train, Test: sc.Windows[0][0].Test}
	srv, err := NewPartyServer("127.0.0.1:0", p, spec.NumClasses, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	trainer := NewTCPTrainer(map[int]string{0: srv.Addr()})

	// No provider yet: advancing past window 0 must fail, but advance to
	// window 0 is a no-op (a legacy party already serves it).
	if err := trainer.AdvanceParty(0, 1); err == nil || !strings.Contains(err.Error(), "no window stream") {
		t.Fatalf("advance without provider: err = %v", err)
	}
	if err := trainer.AdvanceParty(0, 0); err != nil {
		t.Fatalf("advance to window 0 without provider should be a no-op: %v", err)
	}
	h0, err := trainer.HistParty(0, spec.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	want0 := dataset.LabelHistogram(sc.Windows[0][0].Train, spec.NumClasses)
	if !reflect.DeepEqual(h0, want0) {
		t.Fatalf("window-0 histogram mismatch: %v vs %v", h0, want0)
	}

	provider := sliceWindows{
		train: [][]dataset.Example{sc.Windows[0][0].Train, sc.Windows[1][0].Train},
		test:  [][]dataset.Example{sc.Windows[0][0].Test, sc.Windows[1][0].Test},
	}
	srv.SetWindowProvider(provider)

	if err := trainer.AdvanceParty(0, 1); err != nil {
		t.Fatal(err)
	}
	h1, err := trainer.HistParty(0, spec.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	want1 := dataset.LabelHistogram(sc.Windows[1][0].Train, spec.NumClasses)
	if !reflect.DeepEqual(h1, want1) {
		t.Fatalf("window-1 histogram mismatch: %v vs %v", h1, want1)
	}

	if err := trainer.AdvanceParty(0, 9); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range advance: err = %v", err)
	}
}

// TestTCPStatsSeedDeterminism: with a pinned seed, two fresh servers over
// the same data return identical statistics even when the window exceeds
// the detector's subsampling cap (the RNG is derived from the request, not
// from server state).
func TestTCPStatsSeedDeterminism(t *testing.T) {
	spec := testSpec()
	spec.SamplesPerParty = 90 // above the 64-sample detector cap
	parties1 := buildParties(t, spec, 41)
	parties2 := buildParties(t, spec, 41)
	a := arch(spec)
	global := initParams(t, a)

	run := func(p *Party, serverSeed uint64) []tensor.Vector {
		srv, err := NewPartyServer("127.0.0.1:0", p, spec.NumClasses, tensor.NewRNG(serverSeed))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		trainer := NewTCPTrainer(map[int]string{p.ID: srv.Addr()})
		st, err := trainer.FetchStats(p.ID, a, global, spec.NumClasses, 1234)
		if err != nil {
			t.Fatal(err)
		}
		return st.EmbeddingSample
	}

	// Different server-local RNGs, same request seed → same subsample.
	s1 := run(parties1[0], 7)
	s2 := run(parties2[0], 1000007)
	if len(s1) != 64 {
		t.Fatalf("subsample len = %d, want cap 64", len(s1))
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("pinned-seed stats diverge across servers")
	}
}
