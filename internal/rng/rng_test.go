package rng

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams with different seeds produced %d identical draws", same)
	}
}

func TestLabeledStreamsIndependent(t *testing.T) {
	a := NewLabeled(7, "interarrival")
	b := NewLabeled(7, "service")
	if a.Uint64() == b.Uint64() {
		t.Error("labeled streams from the same seed are correlated")
	}
	// Same label, same seed must reproduce.
	c := NewLabeled(7, "interarrival")
	a2 := NewLabeled(7, "interarrival")
	if c.Uint64() != a2.Uint64() {
		t.Error("identical labels did not reproduce the stream")
	}
}

func TestSplitProducesIndependentStream(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	if parent.Uint64() == child.Uint64() {
		t.Error("split child mirrors parent")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ≈0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := make(map[int]int)
	for i := 0; i < 60000; i++ {
		v := s.Intn(6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn(6) = %d out of range", v)
		}
		seen[v]++
	}
	for v := 0; v < 6; v++ {
		if seen[v] < 9000 || seen[v] > 11000 {
			t.Errorf("Intn(6) value %d appeared %d times out of 60000, want ≈10000", v, seen[v])
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	s := New(6)
	const rate = 0.25 // mean 4
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-4) > 0.05 {
		t.Errorf("Exp mean = %v, want ≈4", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(7)
	const n = 200000
	const wantMean, wantSD = 10.0, 3.0
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(wantMean, wantSD)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-wantMean) > 0.05 {
		t.Errorf("Normal mean = %v, want ≈%v", mean, wantMean)
	}
	if math.Abs(sd-wantSD) > 0.05 {
		t.Errorf("Normal stddev = %v, want ≈%v", sd, wantSD)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(8)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.LogNormal(2, 0.5)
	}
	// Median of lognormal(mu, sigma) is exp(mu).
	median := quickSelectMedian(vals)
	want := math.Exp(2)
	if math.Abs(median-want)/want > 0.02 {
		t.Errorf("LogNormal median = %v, want ≈%v", median, want)
	}
}

func quickSelectMedian(v []float64) float64 {
	// Sort a copy; the previous insertion sort was O(n²) and dominated
	// the package's test time at n ≈ 100k.
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c[len(c)/2]
}

func TestParetoSupport(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		v := s.Pareto(2, 5)
		if v < 5 {
			t.Fatalf("Pareto(2,5) = %v below scale", v)
		}
	}
}

func TestGeneralizedParetoZeroShapeIsExponential(t *testing.T) {
	s := New(10)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.GeneralizedPareto(0, 2, 0)
	}
	mean := sum / n
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("GPD(0,2,0) mean = %v, want ≈2 (exponential)", mean)
	}
}

func TestGeneralizedParetoLocationShift(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		if v := s.GeneralizedPareto(100, 5, 0.1); v < 100 {
			t.Fatalf("GPD located at 100 produced %v", v)
		}
	}
}

func TestPoissonSmallMean(t *testing.T) {
	s := New(12)
	const n = 200000
	const mean = 3.5
	sum := 0
	for i := 0; i < n; i++ {
		sum += s.Poisson(mean)
	}
	got := float64(sum) / n
	if math.Abs(got-mean) > 0.05 {
		t.Errorf("Poisson(%v) mean = %v", mean, got)
	}
}

func TestPoissonLargeMean(t *testing.T) {
	s := New(13)
	const n = 100000
	const mean = 200.0
	sum := 0
	for i := 0; i < n; i++ {
		sum += s.Poisson(mean)
	}
	got := float64(sum) / n
	if math.Abs(got-mean) > 1 {
		t.Errorf("Poisson(%v) mean = %v", mean, got)
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	s := New(14)
	if got := s.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := s.Poisson(-1); got != 0 {
		t.Errorf("Poisson(-1) = %d, want 0", got)
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(15)
	z := NewZipf(s, 1000, 1.0)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[500] {
		t.Errorf("Zipf not rank-skewed: c0=%d c10=%d c500=%d", counts[0], counts[10], counts[500])
	}
	// Rank 0 should hold roughly 1/H(1000) ≈ 13% of draws.
	frac := float64(counts[0]) / n
	if frac < 0.10 || frac > 0.17 {
		t.Errorf("Zipf rank-0 fraction = %v, want ≈0.13", frac)
	}
}

func TestDiscreteRespectsWeights(t *testing.T) {
	s := New(16)
	d := NewDiscrete(s, []float64{1, 0, 3})
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[d.Draw()]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight outcome drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.8 || ratio > 3.2 {
		t.Errorf("weight ratio = %v, want ≈3", ratio)
	}
}

func TestDiscretePanics(t *testing.T) {
	s := New(17)
	for _, weights := range [][]float64{nil, {0, 0}, {1, -1}} {
		func() {
			defer func() { recover() }()
			NewDiscrete(s, weights)
			t.Errorf("NewDiscrete(%v) did not panic", weights)
		}()
	}
}

// Property: Exp is always non-negative and finite for any positive rate.
func TestPropertyExpFinite(t *testing.T) {
	f := func(seed uint64, rateRaw uint8) bool {
		rate := float64(rateRaw%100) + 0.5
		s := New(seed)
		for i := 0; i < 100; i++ {
			v := s.Exp(rate)
			if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Intn(n) is always within [0, n).
func TestPropertyIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Exp(1e5)
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	// 100000 is the ETC key count the Memcached runs draw from.
	for _, n := range []int{100000, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			z := NewZipf(New(1), n, 0.99)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRank = z.Draw()
			}
		})
	}
}

var (
	sinkRank int
	sinkZipf *Zipf
)

// BenchmarkNewZipf times a first call, which builds the shared table, and
// a cached call, which only looks it up.
func BenchmarkNewZipf(b *testing.B) {
	const n, alpha = 100000, 0.99
	s := New(1)
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			zipfMu.Lock()
			delete(zipfTables, zipfKey{n: n, alpha: math.Float64bits(alpha)})
			zipfMu.Unlock()
			sinkZipf = NewZipf(s, n, alpha)
		}
	})
	b.Run("cached", func(b *testing.B) {
		NewZipf(s, n, alpha)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkZipf = NewZipf(s, n, alpha)
		}
	})
}
