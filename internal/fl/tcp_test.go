package fl

import (
	"strings"
	"testing"
	"time"

	"repro/internal/tensor"
)

func TestTCPFederationEndToEnd(t *testing.T) {
	spec := testSpec()
	parties := buildParties(t, spec, 10)[:4]
	a := arch(spec)

	trainer := NewTCPTrainer(nil)
	var servers []*PartyServer
	for _, p := range parties {
		srv, err := NewPartyServer("127.0.0.1:0", p, spec.NumClasses, tensor.NewRNG(uint64(p.ID)+100))
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		trainer.Register(p.ID, srv.Addr())
	}
	defer func() {
		for _, s := range servers {
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	}()

	eng := &Engine{Arch: a, Trainer: trainer, Workers: 2}
	global := initParams(t, a)
	selected := []int{0, 1, 2, 3}
	cfg := validCfg()
	cfg.Epochs = 2

	var before float64
	for _, p := range parties {
		acc, err := trainer.EvalParty(p.ID, a, global)
		if err != nil {
			t.Fatal(err)
		}
		before += acc
	}
	for round := 0; round < 4; round++ {
		cfg.Seed = uint64(round)
		next, updates, err := eng.Round(global, selected, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(updates) != 4 {
			t.Fatalf("round %d updates = %d", round, len(updates))
		}
		global = next
	}
	var after float64
	for _, p := range parties {
		acc, err := trainer.EvalParty(p.ID, a, global)
		if err != nil {
			t.Fatal(err)
		}
		after += acc
	}
	if after <= before {
		t.Fatalf("TCP federation did not improve: %g -> %g", before/4, after/4)
	}
}

func TestTCPStats(t *testing.T) {
	spec := testSpec()
	p := buildParties(t, spec, 11)[0]
	a := arch(spec)
	srv, err := NewPartyServer("127.0.0.1:0", p, spec.NumClasses, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	trainer := NewTCPTrainer(map[int]string{p.ID: srv.Addr()})
	global := initParams(t, a)
	st, err := trainer.FetchStats(p.ID, a, global, spec.NumClasses, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.PartyID != p.ID || st.NumSamples != len(p.Train) {
		t.Fatalf("stats = %+v", st)
	}
	if st.MMD != 0 {
		t.Fatalf("first-window MMD = %g, want 0", st.MMD)
	}
	// Second fetch compares against the first window's state.
	st2, err := trainer.FetchStats(p.ID, a, global, spec.NumClasses, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Window != 1 {
		t.Fatalf("window = %d, want 1", st2.Window)
	}
}

func TestTCPUnknownParty(t *testing.T) {
	trainer := NewTCPTrainer(nil)
	_, err := trainer.TrainParty(7, []int{2, 3, 2}, tensor.Vector{1}, validCfg())
	if err == nil || !strings.Contains(err.Error(), "no address registered") {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	trainer := NewTCPTrainer(map[int]string{0: "127.0.0.1:1"}) // nothing listening
	trainer.DialTimeout = 200 * time.Millisecond
	if _, err := trainer.TrainParty(0, []int{2, 3, 2}, tensor.Vector{1}, validCfg()); err == nil {
		t.Fatal("dial to dead address should error")
	}
}

func TestTCPRemoteErrorPropagates(t *testing.T) {
	spec := testSpec()
	p := buildParties(t, spec, 12)[0]
	p.Train = nil // remote training will fail
	srv, err := NewPartyServer("127.0.0.1:0", p, spec.NumClasses, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	trainer := NewTCPTrainer(map[int]string{p.ID: srv.Addr()})
	_, err = trainer.TrainParty(p.ID, arch(spec), initParams(t, arch(spec)), validCfg())
	if err == nil || !strings.Contains(err.Error(), "no training data") {
		t.Fatalf("err = %v", err)
	}
}

func TestPartyServerNilParty(t *testing.T) {
	if _, err := NewPartyServer("127.0.0.1:0", nil, 3, tensor.NewRNG(1)); err == nil {
		t.Fatal("nil party should error")
	}
}

// BenchmarkRoundTCP is one federated round of four participants over loopback
// at the repo benchmark's large architecture, the updates handed back the way
// service.Fleet does before its next round. B/op is what a round leaves for the
// collector: with every parameter vector written once per hop into a pooled
// buffer it is the FedAvg aggregate plus per-call bookkeeping.
func BenchmarkRoundTCP(b *testing.B) {
	spec := testSpec()
	a := []int{spec.InputDim, 128, 64, spec.NumClasses}
	trainer := NewTCPTrainer(nil)
	defer trainer.Close()
	selected := []int{0, 1, 2, 3}
	for _, p := range buildParties(b, spec, 10)[:len(selected)] {
		srv, err := NewPartyServer("127.0.0.1:0", p, spec.NumClasses, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		trainer.Register(p.ID, srv.Addr())
	}
	eng := &Engine{Arch: a, Trainer: trainer, Workers: 2}
	global := initParams(b, a)
	cfg := validCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		_, updates, err := eng.Round(global, selected, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, u := range updates {
			RecycleParams(u.Params)
		}
	}
}
