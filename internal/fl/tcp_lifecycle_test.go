package fl

import (
	"encoding/gob"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// startParty serves party p on addr and closes the server with the test.
func startParty(t *testing.T, addr string, p *Party, numClasses int) *PartyServer {
	t.Helper()
	srv, err := NewPartyServer(addr, p, numClasses, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// settle waits for cond to hold: connection teardown crosses goroutines and
// the loopback, so its effects are observed by polling an event, not by a
// fixed sleep.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *PartyServer) liveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// TestTCPConnectionReuse: sequential calls of every kind to one party ride
// one connection, Ping's connection included; a second connection appears
// only when two calls overlap.
func TestTCPConnectionReuse(t *testing.T) {
	spec := testSpec()
	p := buildParties(t, spec, 13)[0]
	a := arch(spec)
	global := initParams(t, a)
	srv := startParty(t, "127.0.0.1:0", p, spec.NumClasses)
	trainer := NewTCPTrainer(map[int]string{p.ID: srv.Addr()})
	defer trainer.Close()

	if err := trainer.Ping(p.ID, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := trainer.AdvanceParty(p.ID, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := trainer.FetchStats(p.ID, a, global, 7, 5); err != nil {
			t.Fatal(err)
		}
		// A fresh envelope per decode: gob omits zero fields, so a reused
		// request struct would still say NumClasses 7 here and answer
		// with 7 bins.
		h, err := trainer.HistParty(p.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(h) != spec.NumClasses {
			t.Fatalf("hist after stats has %d bins, want the party's %d: stale envelope fields", len(h), spec.NumClasses)
		}
		u, err := trainer.TrainParty(p.ID, a, global, validCfg())
		if err != nil {
			t.Fatal(err)
		}
		want, err := LocalTrain(p, a, global, validCfg(), DeriveRNG(validCfg().Seed, p.ID))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(u, want) {
			t.Fatalf("call %d: update over the pooled connection differs from LocalTrain", i)
		}
		if _, err := trainer.EvalParty(p.ID, a, u.Params); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Requests(); got != 25 {
		t.Fatalf("server handled %d requests, want 25", got)
	}
	if got := srv.Connections(); got != 1 {
		t.Fatalf("26 sequential exchanges opened %d connections, want exactly 1", got)
	}

	// Two overlapping calls need two connections, and both are kept.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			cfg := validCfg()
			cfg.Epochs = 3
			_, err := trainer.TrainParty(p.ID, a, global, cfg)
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Connections(); got > 2 {
		t.Fatalf("two overlapping calls opened %d connections in total, want at most 2", got)
	}
}

// TestPartyServerClosePrompt: Close must not wait out the idle deadline of
// connections the aggregator keeps pooled (the benchmark's fleet teardown
// closes servers and never the client), and must leave no goroutine behind.
func TestPartyServerClosePrompt(t *testing.T) {
	spec := testSpec()
	parties := buildParties(t, spec, 14)[:3]
	before := runtime.NumGoroutine()

	trainer := NewTCPTrainer(nil)
	var servers []*PartyServer
	for _, p := range parties {
		srv, err := NewPartyServer("127.0.0.1:0", p, spec.NumClasses, tensor.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		trainer.Register(p.ID, srv.Addr())
		if err := trainer.Ping(p.ID, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := trainer.HistParty(p.ID, spec.NumClasses); err != nil {
			t.Fatal(err)
		}
	}
	for _, srv := range servers {
		settle(t, "the pooled connection to be tracked", func() bool { return srv.liveConns() == 1 })
	}
	start := time.Now()
	for _, srv := range servers {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("closing 3 servers with idle pooled clients took %s, want < 1s", took)
	}
	// The trainer is deliberately not closed: it owns no goroutines.
	settle(t, "server goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestPartyServerCloseDrainsInFlight: Close cuts idle connections but lets an
// exchange that is already executing be answered — a party told to shut down
// finishes the assignment it accepted.
func TestPartyServerCloseDrainsInFlight(t *testing.T) {
	spec := testSpec()
	p := buildParties(t, spec, 20)[0]
	a := wideArch(spec.InputDim, spec.NumClasses)
	global := initParams(t, a)
	srv := startParty(t, "127.0.0.1:0", p, spec.NumClasses)
	trainer := NewTCPTrainer(map[int]string{p.ID: srv.Addr()})
	defer trainer.Close()

	cfg := validCfg()
	cfg.Epochs = 200 // long enough for Close to arrive mid-training
	result := make(chan error, 1)
	go func() {
		_, err := trainer.TrainParty(p.ID, a, global, cfg)
		result <- err
	}()
	settle(t, "the train exchange to be in flight", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, busy := range srv.conns {
			if busy {
				return true
			}
		}
		return false
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-result; err != nil {
		t.Fatalf("train in flight when the party closed: %v, want it answered", err)
	}
}

// TestTCPTrainerCloseAndRegister: Close hangs up every pooled connection,
// and so does re-registering a party at a different address.
func TestTCPTrainerCloseAndRegister(t *testing.T) {
	spec := testSpec()
	parties := buildParties(t, spec, 15)
	old := startParty(t, "127.0.0.1:0", parties[0], spec.NumClasses)
	moved := startParty(t, "127.0.0.1:0", parties[0], spec.NumClasses)
	other := startParty(t, "127.0.0.1:0", parties[1], spec.NumClasses)
	trainer := NewTCPTrainer(map[int]string{0: old.Addr(), 1: other.Addr()})
	for id := 0; id < 2; id++ {
		if err := trainer.Ping(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, "both connections to be tracked", func() bool { return old.liveConns() == 1 && other.liveConns() == 1 })

	trainer.Register(0, old.Addr()) // unchanged address: nothing dropped
	if _, err := trainer.HistParty(0, spec.NumClasses); err != nil {
		t.Fatal(err)
	}
	if got := old.Connections(); got != 1 {
		t.Fatalf("re-registering the same address opened %d connections, want 1", got)
	}

	trainer.Register(0, moved.Addr())
	settle(t, "the old address's connection to be closed", func() bool { return old.liveConns() == 0 })
	if _, err := trainer.HistParty(0, spec.NumClasses); err != nil {
		t.Fatal(err)
	}
	if old.Requests() != 1 || moved.Requests() != 1 {
		t.Fatalf("requests after the move: old %d, new %d; want 1 and 1", old.Requests(), moved.Requests())
	}

	if err := trainer.Close(); err != nil {
		t.Fatal(err)
	}
	settle(t, "Close to hang up every pooled connection", func() bool {
		return moved.liveConns() == 0 && other.liveConns() == 0
	})
	// A closed trainer still answers, one connection per call.
	if _, err := trainer.HistParty(1, spec.NumClasses); err != nil {
		t.Fatal(err)
	}
	settle(t, "the unpooled connection to be closed", func() bool { return other.liveConns() == 0 })
}

// TestTCPPartyRestart: a party killed and restarted on the same address
// between windows. The aggregator's pooled connection is dead; the
// idempotent kinds notice, redial once and succeed without the caller seeing
// anything. Stats is different — the old process may have executed the
// request before dying — so the failure surfaces and the request reaches the
// new process at most once (here: never).
func TestTCPPartyRestart(t *testing.T) {
	spec := testSpec()
	p := buildParties(t, spec, 16)[0]
	a := arch(spec)
	global := initParams(t, a)
	srv, err := NewPartyServer("127.0.0.1:0", p, spec.NumClasses, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	trainer := NewTCPTrainer(map[int]string{p.ID: addr})
	defer trainer.Close()

	restart := func() *PartyServer {
		t.Helper()
		if _, err := trainer.HistParty(p.ID, spec.NumClasses); err != nil { // leaves a pooled connection
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		srv = startParty(t, addr, p, spec.NumClasses)
		return srv
	}

	calls := map[string]func() error{
		"train":   func() error { _, err := trainer.TrainParty(p.ID, a, global, validCfg()); return err },
		"eval":    func() error { _, err := trainer.EvalParty(p.ID, a, global); return err },
		"hist":    func() error { _, err := trainer.HistParty(p.ID, spec.NumClasses); return err },
		"advance": func() error { return trainer.AdvanceParty(p.ID, 0) },
	}
	for name, call := range calls {
		fresh := restart()
		if err := call(); err != nil {
			t.Fatalf("%s across a party restart: %v, want one transparent redial", name, err)
		}
		if fresh.Requests() != 1 || fresh.Connections() != 1 {
			t.Fatalf("%s across a restart: new process saw %d requests on %d connections, want 1 on 1",
				name, fresh.Requests(), fresh.Connections())
		}
	}

	fresh := restart()
	_, err = trainer.FetchStats(p.ID, a, global, spec.NumClasses, 9)
	if err == nil {
		t.Fatal("stats on a connection broken by a restart must surface the ambiguity, not resend")
	}
	if !strings.Contains(err.Error(), "party 0") || !strings.Contains(err.Error(), "not resent") {
		t.Fatalf("err = %v, want it to name the party and say the request was not resent", err)
	}
	if got := fresh.Requests(); got > 1 {
		t.Fatalf("new process observed the stats request %d times, want at most once", got)
	}
	// The dead connection is gone; the fleet's next stats call (next
	// window) dials fresh and finds the new process's detector at window 0.
	st, err := trainer.FetchStats(p.ID, a, global, spec.NumClasses, 9)
	if err != nil {
		t.Fatal(err)
	}
	if st.Window != 0 {
		t.Fatalf("new process's first observed window = %d, want 0: an earlier stats request reached it", st.Window)
	}
}

// TestTCPFreshConnectionNotResent: the resend rule covers only a reused
// connection. A request that fails on a connection dialled for it is not
// repeated — the failure is the party's, not staleness.
func TestTCPFreshConnectionNotResent(t *testing.T) {
	var attempts atomic.Int32
	addr := framedServer(t, func(w *wire) {
		attempts.Add(1)
		var req request
		_, _ = w.recv(&req)
	})
	trainer := NewTCPTrainer(map[int]string{0: addr})
	if err := trainer.AdvanceParty(0, 0); err == nil || !strings.Contains(err.Error(), "decode from party 0") {
		t.Fatalf("err = %v, want a decode failure naming party 0", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("request was sent %d times on fresh connections, want 1", n)
	}
}

// TestWireVersionMismatch: a mixed-version pair fails at once, on the first
// exchange, with an error that says why — in both directions.
func TestWireVersionMismatch(t *testing.T) {
	t.Run("v1 aggregator, v2 party", func(t *testing.T) {
		spec := testSpec()
		srv := startParty(t, "127.0.0.1:0", buildParties(t, spec, 17)[0], spec.NumClasses)
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		// The version-1 client: one bare gob request, one bare gob response.
		if err := gob.NewEncoder(conn).Encode(&request{Kind: reqAdvance}); err != nil {
			t.Fatal(err)
		}
		var resp response
		if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
			t.Fatalf("v1 client could not read the party's answer: %v", err)
		}
		if !strings.Contains(resp.Err, "wire version mismatch") {
			t.Fatalf("resp.Err = %q, want a wire version mismatch", resp.Err)
		}
		if srv.Requests() != 0 {
			t.Fatal("a v1 request must not be executed")
		}
	})
	t.Run("v2 aggregator, v1 party", func(t *testing.T) {
		// The version-1 server: decode one bare gob request, answer, close.
		addr := rawServer(t, func(conn net.Conn) {
			defer conn.Close()
			var req request
			if err := gob.NewDecoder(conn).Decode(&req); err != nil {
				return
			}
			_ = gob.NewEncoder(conn).Encode(&response{})
		})
		trainer := NewTCPTrainer(map[int]string{4: addr})
		start := time.Now()
		err := trainer.Ping(4, 0)
		if err == nil || !strings.Contains(err.Error(), "party 4") || !strings.Contains(err.Error(), "preamble") {
			t.Fatalf("err = %v, want a handshake failure naming party 4 and the preamble", err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("mismatch took %s to surface, want immediate (not the dial timeout)", took)
		}
	})
	t.Run("v3 aggregator, v2 party", func(t *testing.T) {
		spec := testSpec()
		srv := startParty(t, "127.0.0.1:0", buildParties(t, spec, 18)[0], spec.NumClasses)
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(append(wireMagic[:], 3, 0, 0, 0)); err != nil {
			t.Fatal(err)
		}
		// The party states its own version, then hangs up.
		v, ok, err := newWire(conn).readPreamble()
		if err != nil || !ok || v != wireVersion {
			t.Fatalf("party answered (v%d, magic %v, %v), want its own version %d", v, ok, err, wireVersion)
		}
		settle(t, "the party to drop the mismatched connection", func() bool { return srv.liveConns() == 0 })
	})
}
