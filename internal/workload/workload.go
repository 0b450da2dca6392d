// Package workload models the request populations the paper's generators
// replay: the Facebook ETC key-value workload for Memcached (Atikoglu et
// al., SIGMETRICS'12 [5], the workload Mutilate is configured to recreate,
// §IV-B), feature-vector queries for HDSearch, read-user-timeline requests
// for Social Network, and the tunable-delay synthetic workload. It also
// provides the inter-arrival time distributions (the paper's "load
// intensity") and Little's-law helpers used to size experiments (§V-B).
package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
)

// Op is a key-value operation type.
type Op int

const (
	OpGet Op = iota
	OpSet
)

func (o Op) String() string {
	if o == OpGet {
		return "GET"
	}
	return "SET"
}

// KVRequest is one generated key-value request. Rank is the key's
// popularity rank, which addresses the Memcached store; Key is the same
// key as a string (Key == ETCKeys(n)[Rank]), which the consistent-hash
// router hashes and the wire size counts.
type KVRequest struct {
	Op        Op
	Key       string
	Rank      int
	ValueSize int // bytes; 0 for GET
}

// ETCConfig parameterizes the ETC workload model. The constants follow the
// published characterization: small keys (16–250 B, mostly 20–45 B),
// generalized-Pareto value sizes, a ~30:1 GET:SET ratio, and a Zipfian
// popularity skew.
type ETCConfig struct {
	Keys       int     // key-space size
	GetRatio   float64 // fraction of GETs (ETC: ≈0.97)
	ZipfAlpha  float64 // popularity skew (≈0.99 for caching workloads)
	ValueScale float64 // GPD σ for value sizes (ETC: 214.476)
	ValueShape float64 // GPD k for value sizes (ETC: 0.348238)
}

// DefaultETCConfig returns the ETC parameters from the SIGMETRICS'12
// characterization with a 1M-key space.
func DefaultETCConfig() ETCConfig {
	return ETCConfig{
		Keys:       1 << 20,
		GetRatio:   0.967,
		ZipfAlpha:  0.99,
		ValueScale: 214.476,
		ValueShape: 0.348238,
	}
}

// Validate reports configuration errors.
func (c ETCConfig) Validate() error {
	if c.Keys < 1 {
		return fmt.Errorf("workload: key space must be ≥1, got %d", c.Keys)
	}
	if c.GetRatio < 0 || c.GetRatio > 1 || math.IsNaN(c.GetRatio) {
		return fmt.Errorf("workload: GET ratio %v outside [0,1]", c.GetRatio)
	}
	if c.ZipfAlpha <= 0 || math.IsNaN(c.ZipfAlpha) || math.IsInf(c.ZipfAlpha, 0) {
		return fmt.Errorf("workload: Zipf alpha must be positive and finite, got %v", c.ZipfAlpha)
	}
	return nil
}

// Interned ETC key table. Key strings are a pure function of rank
// ("etc-%012d"), so every generator thread and every run can share one
// immutable table instead of formatting a fresh string per request —
// the last per-request allocation on the key-value hot path. The table
// grows monotonically to the largest key space requested and is never
// mutated after publication; ETCKeys hands out sub-slices of it.
var (
	keyTableMu sync.Mutex
	keyTable   []string
)

// ETCKeys returns the interned key strings for ranks [0, n): index i is
// the key for rank i. The returned slice is shared and must not be
// modified. Building is deterministic, so concurrent callers always
// agree on the contents.
func ETCKeys(n int) []string {
	keyTableMu.Lock()
	defer keyTableMu.Unlock()
	if n > len(keyTable) {
		grown := make([]string, n)
		copy(grown, keyTable)
		appendKeys(grown, len(keyTable))
		keyTable = grown
	}
	return keyTable[:n:n]
}

// appendKeys fills keys[from:] with "etc-%012d" of each index. The new
// keys are substrings of one shared backing buffer, so building a table
// costs one allocation for all of its bytes rather than one per key.
func appendKeys(keys []string, from int) {
	const prefix, width = "etc-", 12
	var b strings.Builder
	b.Grow((len(keys) - from) * (len(prefix) + width))
	var digits [20]byte
	for i := from; i < len(keys); i++ {
		start := b.Len()
		d := strconv.AppendInt(digits[:0], int64(i), 10)
		b.WriteString(prefix)
		for pad := len(d); pad < width; pad++ {
			b.WriteByte('0')
		}
		b.Write(d)
		// String does not copy: every key views the builder's buffer.
		keys[i] = b.String()[start:]
	}
}

// ETC draws requests following the ETC model. Not safe for concurrent use;
// derive one per generator connection group.
type ETC struct {
	cfg    ETCConfig
	stream *rng.Stream
	zipf   *rng.Zipf
	keys   []string // interned key table, index = popularity rank
}

// NewETC builds an ETC request source.
func NewETC(cfg ETCConfig, stream *rng.Stream) (*ETC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ETC{cfg: cfg, stream: stream, zipf: rng.NewZipf(stream, cfg.Keys, cfg.ZipfAlpha),
		keys: ETCKeys(cfg.Keys)}, nil
}

// Next draws one request. The key is an interned string from the shared
// table — drawing a request allocates nothing.
func (e *ETC) Next() KVRequest {
	rank := e.zipf.Draw()
	key := e.keys[rank]
	if e.stream.Float64() < e.cfg.GetRatio {
		return KVRequest{Op: OpGet, Key: key, Rank: rank}
	}
	return KVRequest{Op: OpSet, Key: key, Rank: rank, ValueSize: e.ValueSize()}
}

// ValueSize draws a value size in bytes from the generalized-Pareto ETC
// model, clamped to [1 B, 1 MiB] (memcached's item limit).
func (e *ETC) ValueSize() int {
	v := e.stream.GeneralizedPareto(0, e.cfg.ValueScale, e.cfg.ValueShape)
	size := int(v) + 1
	if size < 1 {
		size = 1
	}
	if size > 1<<20 {
		size = 1 << 20
	}
	return size
}

// MeanValueSize returns the expected value size in bytes under the
// configuration's generalized-Pareto model: E[GPD(0, σ, k)] = σ/(1−k)
// for k < 1, plus the +1 the draw in ValueSize applies. The [1 B, 1 MiB]
// clamp is ignored (its probability mass is negligible at the ETC
// parameters). For the published ETC constants this is ≈330 B — the mean
// response payload behind Memcached's calibrated ~10 µs service time.
func (c ETCConfig) MeanValueSize() float64 {
	if c.ValueShape >= 1 {
		return math.Inf(1) // heavy-tailed beyond a finite mean
	}
	return c.ValueScale/(1-c.ValueShape) + 1
}

// KeySize draws an ETC-like key size in bytes (16–250, centered ≈31).
func (e *ETC) KeySize() int {
	k := int(e.stream.LogNormal(3.43, 0.25)) // median ≈ 31 bytes
	if k < 16 {
		k = 16
	}
	if k > 250 {
		k = 250
	}
	return k
}

// Interarrival produces the time between successive requests — the paper's
// "load intensity" dimension of a workload generator (§II).
type Interarrival interface {
	// Next returns the gap before the next request.
	Next() time.Duration
	// Rate returns the nominal request rate in requests/second.
	Rate() float64
}

// exponentialArrivals models a Poisson arrival process (open-loop
// generators in the paper: Mutilate, the HDSearch client, wrk2).
type exponentialArrivals struct {
	rate   float64
	stream *rng.Stream
}

// NewExponentialArrivals returns Poisson arrivals at the given rate (QPS).
func NewExponentialArrivals(rate float64, stream *rng.Stream) (Interarrival, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive, got %v", rate)
	}
	return &exponentialArrivals{rate: rate, stream: stream}, nil
}

func (e *exponentialArrivals) Next() time.Duration {
	return time.Duration(e.stream.Exp(e.rate) * float64(time.Second))
}

func (e *exponentialArrivals) Rate() float64 { return e.rate }

// fixedArrivals emits requests at exact intervals (deterministic pacing).
type fixedArrivals struct {
	interval time.Duration
}

// NewFixedArrivals returns deterministic arrivals at the given rate (QPS).
func NewFixedArrivals(rate float64) (Interarrival, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive, got %v", rate)
	}
	return &fixedArrivals{interval: time.Duration(float64(time.Second) / rate)}, nil
}

func (f *fixedArrivals) Next() time.Duration { return f.interval }
func (f *fixedArrivals) Rate() float64       { return float64(time.Second) / float64(f.interval) }

// LittleLawConcurrency returns the mean number of in-flight requests for an
// open system with arrival rate λ (QPS) and mean residence time W — the
// L = λ·W rule the paper uses to choose synthetic-workload QPS values where
// concurrency stays below the worker count (§V-B).
func LittleLawConcurrency(rate float64, meanResidence time.Duration) float64 {
	return rate * meanResidence.Seconds()
}

// MaxRateForConcurrency inverts Little's law: the largest arrival rate that
// keeps mean concurrency at or below maxConcurrency.
func MaxRateForConcurrency(maxConcurrency float64, meanResidence time.Duration) float64 {
	if meanResidence <= 0 {
		return math.Inf(1)
	}
	return maxConcurrency / meanResidence.Seconds()
}

// Utilization returns offered utilization λ·S/k for arrival rate λ, mean
// service time S and k servers — the 5 %–55 % figures the paper quotes for
// the Memcached sweeps.
func Utilization(rate float64, meanService time.Duration, servers int) float64 {
	if servers <= 0 {
		return math.Inf(1)
	}
	return rate * meanService.Seconds() / float64(servers)
}
