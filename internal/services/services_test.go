package services

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/lsh"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/socialgraph"
	"repro/internal/workload"
)

// drive sends one request into a backend at time zero and returns the
// server departure time.
func drive(t *testing.T, b Backend, payload any) (sim.Time, *Request) {
	t.Helper()
	engine := sim.NewEngine()
	for _, m := range b.Machines() {
		m.ResetRun(rng.New(10))
	}
	b.ResetRun(engine, rng.New(11))
	req := &Request{ID: 1, Payload: payload}
	var departed sim.Time
	req.SetCompletion(func(_ *Request, at sim.Time) { departed = at })
	engine.At(0, func(now sim.Time) { b.Arrive(req, now) })
	engine.Run()
	if departed == 0 {
		t.Fatal("request never completed")
	}
	return departed, req
}

// kv builds the request ETC.Next emits for rank: the key both as a rank
// and as its interned string.
func kv(op workload.Op, rank, valueSize int) workload.KVRequest {
	return workload.KVRequest{Op: op, Key: workload.ETCKeys(rank + 1)[rank], Rank: rank, ValueSize: valueSize}
}

// storedSize reads rank's current value size from m's store.
func storedSize(t *testing.T, m *Memcached, rank int) int {
	t.Helper()
	size, ok := m.Store().ValueSize(rank)
	if !ok {
		t.Fatalf("rank %d missing from the store", rank)
	}
	return size
}

func TestMemcachedConfigValidation(t *testing.T) {
	cfg := DefaultMemcachedConfig()
	cfg.Workers = 0
	if _, err := NewMemcached(cfg); err == nil {
		t.Error("zero workers accepted")
	}
	cfg = DefaultMemcachedConfig()
	cfg.Keys = 0
	if _, err := NewMemcached(cfg); err == nil {
		t.Error("zero keys accepted")
	}
}

func TestMemcachedServesGetAndSet(t *testing.T) {
	cfg := DefaultMemcachedConfig()
	cfg.Keys = 1000 // small preload for test speed
	m, err := NewMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "memcached" {
		t.Errorf("name = %s", m.Name())
	}
	// GET of a preloaded key: hit, service ≈ 10µs, response carries value.
	dep, req := drive(t, m, kv(workload.OpGet, 42, 0))
	if got := time.Duration(dep); got < 5*time.Microsecond || got > 60*time.Microsecond {
		t.Errorf("GET service time %v, want ≈10µs", got)
	}
	if req.ResponseBytes <= 24 {
		t.Errorf("GET hit response = %d bytes, want value payload", req.ResponseBytes)
	}
	if m.Store().Stats().Hits == 0 {
		t.Error("real store recorded no hit")
	}

	// GET of a rank past the key space: miss, small response.
	misses := m.Store().Stats().Misses
	_, req = drive(t, m, kv(workload.OpGet, cfg.Keys, 0))
	if req.ResponseBytes != 24 {
		t.Errorf("miss response = %d bytes, want 24", req.ResponseBytes)
	}
	if m.Store().Stats().Misses != misses+1 {
		t.Error("real store recorded no miss")
	}

	// SET stores for real: a later GET sees the written size.
	drive(t, m, kv(workload.OpSet, 7, 128))
	if got := storedSize(t, m, 7); got != 128 {
		t.Errorf("after SET, stored size = %d, want 128", got)
	}
}

func TestMemcachedRejectsWrongPayload(t *testing.T) {
	cfg := DefaultMemcachedConfig()
	cfg.Keys = 10
	m, err := NewMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong payload did not panic")
		}
	}()
	drive(t, m, "not a kv request")
}

func TestMemcachedResetRunRestoresStore(t *testing.T) {
	cfg := DefaultMemcachedConfig()
	cfg.Keys = 100
	m, err := NewMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rank = 7
	orig := storedSize(t, m, rank)

	// A run SETs the key with a different value size; a GET's modelled
	// cost depends on that size, so without a restore the next run would
	// observe this run's write.
	drive(t, m, kv(workload.OpSet, rank, orig+999))
	if got := storedSize(t, m, rank); got != orig+999 {
		t.Fatalf("set not applied: size=%d", got)
	}

	m.ResetRun(sim.NewEngine(), rng.New(5))
	if got := storedSize(t, m, rank); got != orig {
		t.Errorf("after ResetRun value size = %d, want preloaded %d", got, orig)
	}
}

func TestMemcachedMeanServiceTimeScale(t *testing.T) {
	cfg := DefaultMemcachedConfig()
	cfg.Keys = 10
	m, err := NewMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper cites ~10µs server-side processing for Memcached.
	st := m.MeanServiceTime()
	if st < 5e-6 || st > 20e-6 {
		t.Errorf("mean service time %v s, want ≈1e-5", st)
	}

	// Pin the corrected composition: GET base + mean ETC value copy-out +
	// SMT-off stack share. The ETC mean value is σ/(1−k)+1 ≈ 330 B, so at
	// 4 ns/B the calibrated total is ≈9.62 µs.
	meanVal := m.ETCConfig().MeanValueSize()
	if meanVal < 329 || meanVal > 331 {
		t.Errorf("ETC mean value size = %.2f B, want ≈330", meanVal)
	}
	want := (memcachedGetBase + time.Duration(meanVal*memcachedPerByte) + stackCostSMTOff).Seconds()
	if st != want {
		t.Errorf("mean service time %v, want composed %v", st, want)
	}
	if st < 9.5e-6 || st > 9.8e-6 {
		t.Errorf("mean service time %v s, want ≈9.62µs", st)
	}
}

// TestMemcachedInstancesShareSnapshot pins the copy-on-write preload:
// instances with the same workload parameters fork one frozen base, and
// one instance's writes never reach a sibling.
func TestMemcachedInstancesShareSnapshot(t *testing.T) {
	cfg := DefaultMemcachedConfig()
	cfg.Keys = 500
	a, err := NewMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Store().Base() != b.Store().Base() {
		t.Fatal("same-config instances do not share a preload snapshot")
	}
	// An SMT-variant server still shares it (preload is workload-keyed).
	cfg2 := cfg
	cfg2.ServerHW = cfg.ServerHW.WithSMT(true)
	c, err := NewMemcached(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Store().Base() != c.Store().Base() {
		t.Error("server-config variant rebuilt the preload")
	}
	// A different key space does not.
	cfg3 := cfg
	cfg3.Keys = 600
	d, err := NewMemcached(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Store().Base() == d.Store().Base() {
		t.Error("different key spaces share a snapshot")
	}

	const rank = 9
	orig := storedSize(t, a, rank)
	drive(t, a, kv(workload.OpSet, rank, orig+123))
	if got := storedSize(t, b, rank); got != orig {
		t.Errorf("sibling instance sees a's write: size=%d, want %d", got, orig)
	}
}

func TestSyntheticDelayAccounting(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Delay = 300 * time.Microsecond
	s, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, _ := drive(t, s, struct{}{})
	got := time.Duration(dep)
	// base (~9µs noisy) + exactly 300µs busy-wait + stack.
	if got < 300*time.Microsecond || got > 330*time.Microsecond {
		t.Errorf("synthetic service time %v, want ≈310µs", got)
	}
	if s.Delay() != 300*time.Microsecond {
		t.Errorf("Delay() = %v", s.Delay())
	}
}

func TestSyntheticValidation(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Workers = 0
	if _, err := NewSynthetic(cfg); err == nil {
		t.Error("zero workers accepted")
	}
	cfg = DefaultSyntheticConfig()
	cfg.Delay = -time.Microsecond
	if _, err := NewSynthetic(cfg); err == nil {
		t.Error("negative delay accepted")
	}
	cfg = DefaultSyntheticConfig()
	cfg.Base = 0
	if _, err := NewSynthetic(cfg); err == nil {
		t.Error("zero base accepted")
	}
}

func TestHDSearchThreeTierFlow(t *testing.T) {
	cfg := DefaultHDSearchConfig()
	cfg.DatasetSize = 2000 // fast index build
	h, err := NewHDSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Machines()) != 2 {
		t.Errorf("hdsearch machines = %d, want 2 (midtier + bucket)", len(h.Machines()))
	}
	q := h.NewQuery(rng.New(5))
	if len(q) != cfg.Dim {
		t.Fatalf("query dim = %d", len(q))
	}
	dep, req := drive(t, h, q)
	got := time.Duration(dep)
	// parse + hop + search + hop + merge ≈ several hundred µs.
	if got < 250*time.Microsecond || got > 2*time.Millisecond {
		t.Errorf("hdsearch end-to-end service %v, want ≈300µs–1ms", got)
	}
	if req.ResponseBytes <= 64 {
		t.Errorf("response bytes = %d, want results payload", req.ResponseBytes)
	}
}

func TestHDSearchValidation(t *testing.T) {
	cfg := DefaultHDSearchConfig()
	cfg.MidtierWorkers = 0
	if _, err := NewHDSearch(cfg); err == nil {
		t.Error("zero midtier workers accepted")
	}
	cfg = DefaultHDSearchConfig()
	cfg.TopK = 0
	if _, err := NewHDSearch(cfg); err == nil {
		t.Error("zero topK accepted")
	}
}

func TestHDSearchRejectsWrongPayload(t *testing.T) {
	cfg := DefaultHDSearchConfig()
	cfg.DatasetSize = 100
	h, err := NewHDSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong payload did not panic")
		}
	}()
	drive(t, h, 42)
}

func TestSocialNetChainFlow(t *testing.T) {
	s, err := NewSocialNet(DefaultSocialNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph().NumPosts() == 0 {
		t.Fatal("database not seeded before the run (paper fills it with compose-post)")
	}
	user := s.RandomUser(rng.New(6))
	dep, req := drive(t, s, user)
	got := time.Duration(dep)
	// nginx → timeline → storage → cache → nginx ≈ 2–3ms.
	if got < time.Millisecond || got > 8*time.Millisecond {
		t.Errorf("socialnet end-to-end service %v, want ≈2–3ms", got)
	}
	if req.ResponseBytes < 256 {
		t.Errorf("response bytes = %d", req.ResponseBytes)
	}
}

func TestSocialNetValidation(t *testing.T) {
	cfg := DefaultSocialNetConfig()
	cfg.TimelineRead = 0
	if _, err := NewSocialNet(cfg); err == nil {
		t.Error("zero timeline read accepted")
	}
}

func TestSocialNetUsesRealGraph(t *testing.T) {
	s, err := NewSocialNet(DefaultSocialNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := s.Graph()
	if g.NumUsers() != 962 {
		t.Errorf("users = %d, want 962 (Reed98 scale)", g.NumUsers())
	}
	if g.NumEdges() != 18812 {
		t.Errorf("edges = %d, want 18812 (Reed98 scale)", g.NumEdges())
	}
}

func TestBackendC1EVariantPaysServerWake(t *testing.T) {
	// A C1E-enabled server pays a deeper wake than the C1 baseline when a
	// request arrives after a long idle (the Fig. 3 server mechanism).
	run := func(maxC string) time.Duration {
		cfg := DefaultSyntheticConfig()
		cfg.ServerHW = hw.ServerBaselineConfig()
		cfg.ServerHW.MaxCState = maxC
		s, err := NewSynthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engine := sim.NewEngine()
		for _, m := range s.Machines() {
			m.ResetRun(rng.New(20))
		}
		s.ResetRun(engine, rng.New(21))
		// Train the worker with long idle gaps, then measure.
		var last sim.Time
		at := sim.Time(0)
		for i := 0; i < 12; i++ {
			req := &Request{ID: uint64(i), Payload: struct{}{}, Conn: 0}
			start := at
			req.SetCompletion(func(_ *Request, done sim.Time) { last = done - start })
			engine.At(at, func(now sim.Time) {
				r := req
				s.Arrive(r, now)
			})
			at = at.Add(2 * time.Millisecond)
		}
		engine.Run()
		return time.Duration(last)
	}
	c1 := run("C1")
	c1e := run("C1E")
	if c1e <= c1 {
		t.Errorf("C1E-enabled service time %v not above C1 baseline %v", c1e, c1)
	}
}

// Ensure every backend satisfies the interfaces (compile-time check):
// Backend for the service contract, JobSink for typed tier completions,
// and sim.EventSink for the multi-hop services' link deliveries.
var (
	_ Backend = (*Memcached)(nil)
	_ Backend = (*Synthetic)(nil)
	_ Backend = (*HDSearch)(nil)
	_ Backend = (*SocialNet)(nil)

	_ JobSink = (*Memcached)(nil)
	_ JobSink = (*Synthetic)(nil)
	_ JobSink = (*HDSearch)(nil)
	_ JobSink = (*SocialNet)(nil)

	_ sim.EventSink = (*Tier)(nil)
	_ sim.EventSink = (*HDSearch)(nil)
	_ sim.EventSink = (*SocialNet)(nil)

	_ = lsh.Vector(nil)
	_ = socialgraph.UserID(0)
)
