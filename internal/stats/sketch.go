package stats

import (
	"fmt"
	"math"
	"sort"
)

// This file holds the streaming (sketch-based) counterparts of the
// package's batch estimators: an online moment accumulator and a
// log-bucketed quantile histogram. They are what internal/metrics builds
// its bounded-memory Streaming recorder from; the batch functions above
// remain the exact reference the sketches are tested against.

// Welford accumulates count, mean, variance, minimum and maximum of a
// sample stream in O(1) memory using Welford's online algorithm. The
// mean and the unbiased variance it reports are exact up to floating
// point (and numerically better conditioned than a naive sum of
// squares). The zero value is an empty accumulator.
type Welford struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add consumes one sample.
func (w *Welford) Add(v float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = v, v
	} else {
		if v < w.min {
			w.min = v
		}
		if v > w.max {
			w.max = v
		}
	}
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

// N returns the number of samples consumed.
func (w *Welford) N() int { return w.n }

// Merge folds another accumulator into w, as if w had also consumed
// every sample o consumed (Chan et al.'s parallel variance update). The
// result is exact up to floating point — merged mean and variance match
// a single accumulator over the concatenated streams — which is what
// lets cross-run aggregate moments be built from per-run accumulators
// without retaining any samples. o is unchanged.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// Mean returns the running mean. It returns NaN for an empty accumulator.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased (n−1) sample variance. It returns NaN
// for fewer than two samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest sample seen. It returns NaN when empty.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest sample seen. It returns NaN when empty.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// logHistogramMinValue is the magnitude below which samples are counted
// in the zero bucket: 1e-9 is far below the µs-scale resolution of any
// latency this repository measures.
const logHistogramMinValue = 1e-9

// LogHistogram is a fixed-relative-resolution quantile sketch in the
// style of DDSketch (Masson et al., VLDB'19): samples are counted in
// geometrically sized buckets whose width is set by a relative accuracy
// α, so any quantile estimate q̂ satisfies
//
//	|q̂ − q| ≤ α·q
//
// where q is the corresponding order statistic of the recorded stream
// (the documented error bound callers may rely on). Bucket i covers
// (γ^(i−1), γ^i] with γ = (1+α)/(1−α) and reports the estimate
// 2γ^i/(γ+1), the point with equal relative error to both bucket edges.
// Negative samples land in a mirrored set of buckets and magnitudes
// below 1e-9 in a zero bucket, so the sketch accepts any float64 series;
// an infinite magnitude counts in the bucket of the largest finite one.
//
// Counters are dense: each sign keeps one slice spanning the bucket
// indices seen so far, so Add is a slice increment. Memory is
// O(index span) = O(log(max/min)/log γ), independent of the sample
// count: the 1 ns – 1000 s span at α=1% needs under ~1400 counters, and
// the whole float64 range at most ~37k per sign. That is what turns
// per-run measurement memory from O(samples) into O(1).
type LogHistogram struct {
	alpha    float64
	gamma    float64
	invLogG  float64 // 1 / ln(γ)
	estScale float64 // 2/(γ+1): estimate(i) = estScale · γ^i
	pos, neg denseCounts
	zero     int
	n        int
}

// denseCounts is a bucket-index-addressed counter array: counts[k]
// counts bucket offset+k. It grows by doubling toward whichever end an
// index falls outside, and tracks how many of its counters are non-zero.
type denseCounts struct {
	offset   int
	counts   []int
	resident int
}

// add adds c > 0 to bucket i.
func (d *denseCounts) add(i, c int) {
	k := i - d.offset
	if k < 0 || k >= len(d.counts) {
		d.grow(i)
		k = i - d.offset
	}
	if d.counts[k] == 0 {
		d.resident++
	}
	d.counts[k] += c
}

// grow widens the span to cover bucket i, at least doubling its length
// so that repeated growth is amortized O(1).
func (d *denseCounts) grow(i int) {
	if d.counts == nil {
		// A first span of 64 around the first index covers about a
		// factor of two either side at α=1% before any growth.
		d.offset, d.counts = i-32, make([]int, 64)
		return
	}
	lo, end := d.offset, d.offset+len(d.counts)
	n := max(2*len(d.counts), end-i, i+1-lo)
	if i < lo {
		// Growing downward: keep the old top, put the slack below.
		lo = end - n
	}
	counts := make([]int, n)
	copy(counts[d.offset-lo:], d.counts)
	d.offset, d.counts = lo, counts
}

// merge adds every counter of o into d.
func (d *denseCounts) merge(o *denseCounts) {
	for k, c := range o.counts {
		if c != 0 {
			d.add(o.offset+k, c)
		}
	}
}

// NewLogHistogram returns an empty sketch with relative accuracy alpha
// (0 < alpha < 1). Typical use: 0.01 for a 1% quantile error bound.
func NewLogHistogram(alpha float64) (*LogHistogram, error) {
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("stats: log histogram accuracy must be in (0,1), got %v", alpha)
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &LogHistogram{
		alpha:    alpha,
		gamma:    gamma,
		invLogG:  1 / math.Log(gamma),
		estScale: 2 / (gamma + 1),
	}, nil
}

// RelativeAccuracy returns the α the sketch was built with.
func (h *LogHistogram) RelativeAccuracy() float64 { return h.alpha }

// index returns the bucket for magnitude v > 0: the smallest i with
// γ^i ≥ v, i.e. ⌈ln v / ln γ⌉. An infinite v maps to the bucket of the
// largest finite float64.
func (h *LogHistogram) index(v float64) int {
	return int(math.Ceil(math.Log(min(v, math.MaxFloat64)) * h.invLogG))
}

// estimate returns bucket i's representative value.
func (h *LogHistogram) estimate(i int) float64 {
	return h.estScale * math.Pow(h.gamma, float64(i))
}

// Add consumes one sample.
func (h *LogHistogram) Add(v float64) {
	h.n++
	switch {
	case v > logHistogramMinValue:
		h.pos.add(h.index(v), 1)
	case v < -logHistogramMinValue:
		h.neg.add(h.index(-v), 1)
	default:
		h.zero++
	}
}

// N returns the number of samples consumed.
func (h *LogHistogram) N() int { return h.n }

// Merge folds another sketch into h. Both sketches must have been built
// with the same relative accuracy: their buckets then align exactly, the
// merge is a per-bucket counter sum, and the merged sketch is identical
// to one that consumed both streams directly — so the α error bound
// holds for quantiles of the combined distribution. This is what makes
// cross-run aggregate latency distributions O(buckets) instead of
// O(total samples): runs keep sketches, not reservoirs. o is unchanged.
func (h *LogHistogram) Merge(o *LogHistogram) error {
	if o.alpha != h.alpha {
		return fmt.Errorf("stats: cannot merge log histograms with accuracies %v and %v", h.alpha, o.alpha)
	}
	h.pos.merge(&o.pos)
	h.neg.merge(&o.neg)
	h.zero += o.zero
	h.n += o.n
	return nil
}

// Buckets returns the number of resident (non-zero) buckets — the
// sketch's occupancy in units of one counter, bounded by the dynamic
// range of the data and independent of N.
func (h *LogHistogram) Buckets() int { return h.pos.resident + h.neg.resident }

// Quantile returns the estimate for the p-th percentile (p in [0,100])
// of the recorded stream, within the sketch's relative error bound of
// the true order statistic. It returns NaN when the sketch is empty.
func (h *LogHistogram) Quantile(p float64) float64 {
	return h.Quantiles(p)[0]
}

// Quantiles evaluates several percentiles in one ordered walk over the
// buckets. Results are index-aligned with ps.
func (h *LogHistogram) Quantiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if h.n == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	// Target ranks, using the same floor(p/100·(n−1)) convention as
	// Percentile; the sketch cannot interpolate within a bucket, so the
	// estimate is the bucket holding the target order statistic.
	type target struct {
		rank int
		pos  int
	}
	targets := make([]target, len(ps))
	for i, p := range ps {
		r := 0
		switch {
		case p <= 0:
			r = 0
		case p >= 100:
			r = h.n - 1
		default:
			r = int(p / 100 * float64(h.n-1))
		}
		targets[i] = target{rank: r, pos: i}
	}
	sort.Slice(targets, func(a, b int) bool { return targets[a].rank < targets[b].rank })

	ti := 0
	cum := 0
	advance := func(count int, value float64) {
		cum += count
		for ti < len(targets) && targets[ti].rank < cum {
			out[targets[ti].pos] = value
			ti++
		}
	}
	// Walk buckets in ascending value order: negatives (descending
	// magnitude), zero, positives (ascending magnitude).
	for k := len(h.neg.counts) - 1; k >= 0; k-- {
		if c := h.neg.counts[k]; c != 0 {
			advance(c, -h.estimate(h.neg.offset+k))
		}
	}
	advance(h.zero, 0)
	for k, c := range h.pos.counts {
		if c != 0 {
			advance(c, h.estimate(h.pos.offset+k))
		}
	}
	return out
}
