package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func newETC(t *testing.T, seed uint64) *ETC {
	t.Helper()
	e, err := NewETC(DefaultETCConfig(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestETCGetSetRatio(t *testing.T) {
	e := newETC(t, 1)
	gets := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if e.Next().Op == OpGet {
			gets++
		}
	}
	ratio := float64(gets) / n
	if math.Abs(ratio-0.967) > 0.01 {
		t.Errorf("GET ratio = %v, want ≈0.967 (ETC)", ratio)
	}
}

func TestETCPopularitySkew(t *testing.T) {
	e := newETC(t, 2)
	counts := make(map[string]int)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[e.Next().Key]++
	}
	// Hot key dominates: rank 0 should be far above a uniform share.
	hot := counts["etc-000000000000"]
	uniform := float64(n) / float64(DefaultETCConfig().Keys)
	if float64(hot) < 100*uniform {
		t.Errorf("hot-key count %d not Zipf-skewed (uniform share %.2f)", hot, uniform)
	}
}

func TestETCValueSizes(t *testing.T) {
	e := newETC(t, 3)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := e.ValueSize()
		if v < 1 || v > 1<<20 {
			t.Fatalf("value size %d out of [1, 1MiB]", v)
		}
		sum += float64(v)
	}
	mean := sum / n
	// GPD(0, 214.476, 0.348) has mean σ/(1−k) ≈ 329 B.
	if mean < 250 || mean > 450 {
		t.Errorf("mean value size = %v B, want ≈330 B (ETC)", mean)
	}
}

func TestETCMeanValueSize(t *testing.T) {
	cfg := DefaultETCConfig()
	// Analytic value: σ/(1−k) + 1 for the published ETC constants.
	want := cfg.ValueScale/(1-cfg.ValueShape) + 1
	if got := cfg.MeanValueSize(); got != want {
		t.Errorf("MeanValueSize = %v, want %v", got, want)
	}
	if got := cfg.MeanValueSize(); got < 329 || got > 331 {
		t.Errorf("MeanValueSize = %v B, want ≈330 B (ETC)", got)
	}

	// The analytic mean must agree with the empirical draw it models.
	e := newETC(t, 17)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(e.ValueSize())
	}
	empirical := sum / n
	if math.Abs(empirical-cfg.MeanValueSize())/cfg.MeanValueSize() > 0.05 {
		t.Errorf("empirical mean %v differs from analytic %v by >5%%", empirical, cfg.MeanValueSize())
	}

	// A shape ≥ 1 has no finite mean.
	cfg.ValueShape = 1
	if !math.IsInf(cfg.MeanValueSize(), 1) {
		t.Errorf("MeanValueSize with shape 1 = %v, want +Inf", cfg.MeanValueSize())
	}
}

func TestETCKeySizes(t *testing.T) {
	e := newETC(t, 4)
	for i := 0; i < 10000; i++ {
		k := e.KeySize()
		if k < 16 || k > 250 {
			t.Fatalf("key size %d out of ETC range [16, 250]", k)
		}
	}
}

func TestETCSetsCarryValueSize(t *testing.T) {
	e := newETC(t, 5)
	for i := 0; i < 10000; i++ {
		r := e.Next()
		if r.Op == OpSet && r.ValueSize < 1 {
			t.Fatal("SET without value size")
		}
		if r.Op == OpGet && r.ValueSize != 0 {
			t.Fatal("GET with value size")
		}
		if !strings.HasPrefix(r.Key, "etc-") {
			t.Fatalf("unexpected key %q", r.Key)
		}
	}
}

// TestETCKeysMatchSprintf pins the key table to the "etc-%012d" format,
// including keys appended when the shared table grows.
func TestETCKeysMatchSprintf(t *testing.T) {
	keyTableMu.Lock()
	n1 := len(keyTable) + 11
	keyTableMu.Unlock()
	first := ETCKeys(n1)
	n2 := n1 + 1000
	keys := ETCKeys(n2) // grows the table past first
	for _, i := range []int{0, 9, 10, n1 - 1, n1, n2 - 1} {
		if want := fmt.Sprintf("etc-%012d", i); keys[i] != want {
			t.Errorf("key %d = %q, want %q", i, keys[i], want)
		}
	}
	for i, k := range keys {
		if want := fmt.Sprintf("etc-%012d", i); k != want {
			t.Fatalf("key %d = %q, want %q", i, k, want)
		}
	}
	for i, k := range first {
		if k != keys[i] {
			t.Fatalf("key %d changed across a grow: %q → %q", i, k, keys[i])
		}
	}
}

// Property: every request Next emits names its key both ways, and the
// two agree: Key == ETCKeys(n)[Rank].
func TestETCKeyMatchesRank(t *testing.T) {
	f := func(seed uint64, keySpace uint16) bool {
		cfg := DefaultETCConfig()
		cfg.Keys = 1 + int(keySpace)%5000
		e, err := NewETC(cfg, rng.New(seed))
		if err != nil {
			return false
		}
		keys := ETCKeys(cfg.Keys)
		for i := 0; i < 200; i++ {
			r := e.Next()
			if r.Rank < 0 || r.Rank >= cfg.Keys || keys[r.Rank] != r.Key {
				t.Logf("keys=%d: rank %d key %q", cfg.Keys, r.Rank, r.Key)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestETCConfigValidation(t *testing.T) {
	bad := DefaultETCConfig()
	bad.Keys = 0
	if _, err := NewETC(bad, rng.New(1)); err == nil {
		t.Error("zero keys accepted")
	}
	bad = DefaultETCConfig()
	bad.GetRatio = 1.5
	if _, err := NewETC(bad, rng.New(1)); err == nil {
		t.Error("GET ratio >1 accepted")
	}
	for _, alpha := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = DefaultETCConfig()
		bad.ZipfAlpha = alpha
		if _, err := NewETC(bad, rng.New(1)); err == nil {
			t.Errorf("alpha %v accepted", alpha)
		}
	}
	bad = DefaultETCConfig()
	bad.GetRatio = math.NaN()
	if _, err := NewETC(bad, rng.New(1)); err == nil {
		t.Error("NaN GET ratio accepted")
	}
}

func TestExponentialArrivalsMeanRate(t *testing.T) {
	ia, err := NewExponentialArrivals(100000, rng.New(6)) // 100 KQPS → mean 10µs
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	const n = 100000
	for i := 0; i < n; i++ {
		d := ia.Next()
		if d < 0 {
			t.Fatal("negative interarrival")
		}
		total += d
	}
	mean := total / n
	if mean < 9700*time.Nanosecond || mean > 10300*time.Nanosecond {
		t.Errorf("mean interarrival = %v, want ≈10µs", mean)
	}
	if ia.Rate() != 100000 {
		t.Errorf("Rate = %v", ia.Rate())
	}
}

func TestFixedArrivals(t *testing.T) {
	ia, err := NewFixedArrivals(1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got := ia.Next(); got != time.Millisecond {
			t.Fatalf("fixed interarrival = %v, want 1ms", got)
		}
	}
	if math.Abs(ia.Rate()-1000) > 1e-9 {
		t.Errorf("Rate = %v, want 1000", ia.Rate())
	}
}

func TestArrivalValidation(t *testing.T) {
	if _, err := NewExponentialArrivals(0, rng.New(1)); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewFixedArrivals(-5); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestLittleLaw(t *testing.T) {
	// The paper's synthetic setup: 20K QPS at 410µs residence → L = 8.2,
	// below the 10 available cores.
	l := LittleLawConcurrency(20000, 410*time.Microsecond)
	if math.Abs(l-8.2) > 1e-9 {
		t.Errorf("L = %v, want 8.2", l)
	}
	r := MaxRateForConcurrency(10, 410*time.Microsecond)
	if math.Abs(r-10/410e-6) > 1e-6 {
		t.Errorf("max rate = %v", r)
	}
	if !math.IsInf(MaxRateForConcurrency(10, 0), 1) {
		t.Error("zero residence should allow infinite rate")
	}
}

func TestUtilization(t *testing.T) {
	// Paper: Memcached at 500 KQPS with ~10µs service on 10 workers ≈ 50%.
	u := Utilization(500000, 10*time.Microsecond, 10)
	if math.Abs(u-0.5) > 1e-9 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
	if !math.IsInf(Utilization(1, time.Second, 0), 1) {
		t.Error("zero servers should be infinite utilization")
	}
}

func TestOpString(t *testing.T) {
	if OpGet.String() != "GET" || OpSet.String() != "SET" {
		t.Error("op names wrong")
	}
}
