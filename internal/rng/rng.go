// Package rng provides deterministic, splittable random number streams and
// the sampling distributions used throughout the testbed simulation.
//
// Every stochastic component of the simulation (inter-arrival times, service
// times, network jitter, workload key popularity) draws from its own Stream,
// derived from the experiment seed and a component label. Streams are
// independent by construction, so adding a new consumer of randomness never
// perturbs the draws seen by existing components — a property the paper's
// methodology depends on when comparing configurations ("reset the
// environment between runs", §III).
package rng

import (
	"math"
	"math/bits"
	"sync"
)

// splitmix64 advances a 64-bit state and returns a well-mixed output. It is
// used both as a seeding function and as the stream-splitting function.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic pseudo-random stream (xoshiro256**). It is not
// safe for concurrent use; the simulation is single-threaded by design.
type Stream struct {
	s [4]uint64

	// cached spare normal variate from the polar method
	hasSpare bool
	spare    float64
}

// New returns a stream seeded from seed. Distinct seeds give independent
// streams.
func New(seed uint64) *Stream {
	st := &Stream{}
	sm := seed
	for i := range st.s {
		st.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

// NewLabeled returns a stream derived from a base seed and a label, so that
// components can obtain independent streams by name.
func NewLabeled(seed uint64, label string) *Stream {
	h := seed
	for _, b := range []byte(label) {
		h ^= uint64(b)
		h *= 0x100000001b3 // FNV-1a prime
	}
	return New(h)
}

// Split derives a new independent stream from s, advancing s once.
func (s *Stream) Split() *Stream {
	state := s.Uint64()
	return New(state)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (s *Stream) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	hi, lo := bits.Mul64(s.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = bits.Mul64(s.Uint64(), bound)
		}
	}
	return int(hi)
}

// Exp returns an exponentially distributed variate with the given rate
// (events per unit). The mean of the returned variate is 1/rate.
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := s.Float64()
	// 1-u is in (0,1], so the log is finite.
	return -math.Log(1-u) / rate
}

// Normal returns a normally distributed variate with the given mean and
// standard deviation, using the Marsaglia polar method.
func (s *Stream) Normal(mean, stddev float64) float64 {
	if s.hasSpare {
		s.hasSpare = false
		return mean + stddev*s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.hasSpare = true
		return mean + stddev*u*f
	}
}

// LogNormal returns a log-normally distributed variate where the underlying
// normal has parameters mu and sigma.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Gamma returns a Gamma(shape, scale) variate with mean shape·scale,
// using the Marsaglia–Tsang squeeze method (with the standard boost for
// shape < 1). Gamma inter-arrival times are how bursty arrival processes
// are parameterized: a coefficient of variation above 1 clusters
// requests into bursts, below 1 regularizes them.
func (s *Stream) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma with non-positive parameter")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) · U^(1/a).
		u := s.Float64()
		return s.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.Normal(0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Weibull returns a Weibull(shape, scale) variate by inversion, with
// mean scale·Γ(1+1/shape). Shape < 1 gives a heavy-tailed inter-arrival
// distribution (long gaps separating clusters of requests); shape > 1
// approaches regular pacing.
func (s *Stream) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Weibull with non-positive parameter")
	}
	u := s.Float64()
	// 1-u is in (0,1], so the log is finite.
	return scale * math.Pow(-math.Log(1-u), 1/shape)
}

// Pareto returns a Pareto(shape, scale) variate with support [scale, ∞).
func (s *Stream) Pareto(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Pareto with non-positive parameter")
	}
	u := s.Float64()
	return scale / math.Pow(1-u, 1/shape)
}

// GeneralizedPareto returns a GPD(location, scale, shape) variate. The ETC
// workload characterization of Facebook's Memcached pools models value sizes
// with a generalized Pareto tail (Atikoglu et al., SIGMETRICS'12), which is
// why the workload package needs it.
func (s *Stream) GeneralizedPareto(location, scale, shape float64) float64 {
	u := s.Float64()
	if math.Abs(shape) < 1e-12 {
		return location - scale*math.Log(1-u)
	}
	return location + scale*(math.Pow(1-u, -shape)-1)/shape
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and normal approximation with rejection
// for large means.
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// PTRS-style transformed rejection would be ideal; a clamped normal
	// approximation is adequate for mean ≥ 30 in this simulation.
	for {
		x := s.Normal(mean, math.Sqrt(mean))
		if x >= 0 {
			return int(x + 0.5)
		}
	}
}

// Zipf draws ranks in [0, n) following a Zipf distribution with exponent
// alpha > 0 (rank 0 most popular). The rank table behind it is shared: it is
// built once per distinct (n, alpha) and kept, immutable, for the life of the
// process, so every sampler over the same ranks reads the same memory. A
// Zipf holds only that table and its caller's stream; draws are O(1)
// expected through the table's guide.
type Zipf struct {
	t *zipfTable
	s *Stream
}

// zipfTable is the immutable rank table of one (n, alpha). cdf[i] is the
// probability of a rank ≤ i. guide[j], for j in [0, len(cdf)], is the
// smallest i with cdf[i] >= j/len(cdf), so a uniform u falls in bucket
// j = ⌊u·len(cdf)⌋ and its rank is near [guide[j], guide[j+1]].
type zipfTable struct {
	cdf   []float64
	guide []int32
}

type zipfKey struct {
	n     int
	alpha uint64 // math.Float64bits of the exponent
}

// The process-wide table cache. Building is deterministic, so every
// caller of one key agrees on the contents whichever builds it.
var (
	zipfMu     sync.Mutex
	zipfTables = map[zipfKey]*zipfTable{}
)

// NewZipf returns a Zipf sampler over n ranks with exponent alpha that draws
// from s. The first call for a given (n, alpha) builds the shared table;
// later calls reuse it and allocate only the sampler.
func NewZipf(s *Stream, n int, alpha float64) *Zipf {
	if n <= 0 || n > math.MaxInt32 {
		panic("rng: Zipf with n outside [1, MaxInt32]")
	}
	key := zipfKey{n: n, alpha: math.Float64bits(alpha)}
	zipfMu.Lock()
	t := zipfTables[key]
	if t == nil {
		t = newZipfTable(n, alpha)
		zipfTables[key] = t
	}
	zipfMu.Unlock()
	return &Zipf{t: t, s: s}
}

func newZipfTable(n int, alpha float64) *zipfTable {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return newGuidedTable(cdf)
}

// newGuidedTable wraps a non-decreasing CDF that ends at 1 with its guide.
func newGuidedTable(cdf []float64) *zipfTable {
	n := len(cdf)
	guide := make([]int32, n+1)
	i := 0
	for j := range guide {
		edge := float64(j) / float64(n)
		for i < n-1 && cdf[i] < edge {
			i++
		}
		guide[j] = int32(i)
	}
	return &zipfTable{cdf: cdf, guide: guide}
}

// Draw returns the next rank.
func (z *Zipf) Draw() int {
	return z.t.rank(z.s.Float64())
}

// rank returns the smallest i with cdf[i] >= u, or the last rank if there is
// none: the rank a lower-bound search over the whole CDF returns. The guide
// bounds the search to u's bucket; the two loops widen that range until
// cdf[lo-1] < u <= cdf[hi] (or hi is the last rank). Rounding in u·n and in
// the bucket edges can otherwise put u a rank outside its bucket, as can a
// u above 1 when the CDF reaches 1 before the last rank. The search inside
// the range then finds the same rank the full search would.
func (t *zipfTable) rank(u float64) int {
	last := len(t.cdf) - 1
	j := int(u * float64(len(t.cdf)))
	if j > last {
		j = last
	}
	lo, hi := int(t.guide[j]), int(t.guide[j+1])
	for lo > 0 && t.cdf[lo-1] >= u {
		lo--
	}
	for hi < last && t.cdf[hi] < u {
		hi++
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Discrete samples from an explicit finite distribution given by weights.
type Discrete struct {
	cdf []float64
	s   *Stream
}

// NewDiscrete builds a sampler over len(weights) outcomes with the given
// relative weights. Weights must be non-negative with a positive sum.
func NewDiscrete(s *Stream, weights []float64) *Discrete {
	if len(weights) == 0 {
		panic("rng: Discrete with no outcomes")
	}
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("rng: Discrete with negative weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum <= 0 {
		panic("rng: Discrete with zero total weight")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Discrete{cdf: cdf, s: s}
}

// Draw returns the next outcome index.
func (d *Discrete) Draw() int {
	u := d.s.Float64()
	lo, hi := 0, len(d.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
