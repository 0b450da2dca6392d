package stats

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rng"
)

// mapLogHistogram is the map-backed LogHistogram the dense counters
// replaced, kept as the reference they are differential-tested against.
// It shares the production sketch's bucket geometry (index, estimate).
type mapLogHistogram struct {
	geom     *LogHistogram
	pos, neg map[int]int
	zero, n  int
}

func newMapLogHistogram(t *testing.T, alpha float64) *mapLogHistogram {
	t.Helper()
	geom, err := NewLogHistogram(alpha)
	if err != nil {
		t.Fatal(err)
	}
	return &mapLogHistogram{geom: geom, pos: map[int]int{}, neg: map[int]int{}}
}

func (h *mapLogHistogram) Add(v float64) {
	h.n++
	switch {
	case v > logHistogramMinValue:
		h.pos[h.geom.index(v)]++
	case v < -logHistogramMinValue:
		h.neg[h.geom.index(-v)]++
	default:
		h.zero++
	}
}

func (h *mapLogHistogram) Merge(o *mapLogHistogram) {
	for k, c := range o.pos {
		h.pos[k] += c
	}
	for k, c := range o.neg {
		h.neg[k] += c
	}
	h.zero += o.zero
	h.n += o.n
}

func (h *mapLogHistogram) Buckets() int { return len(h.pos) + len(h.neg) }

func (h *mapLogHistogram) Quantiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if h.n == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	type target struct{ rank, pos int }
	targets := make([]target, len(ps))
	for i, p := range ps {
		r := 0
		switch {
		case p <= 0:
		case p >= 100:
			r = h.n - 1
		default:
			r = int(p / 100 * float64(h.n-1))
		}
		targets[i] = target{rank: r, pos: i}
	}
	sort.Slice(targets, func(a, b int) bool { return targets[a].rank < targets[b].rank })
	negKeys := make([]int, 0, len(h.neg))
	for k := range h.neg {
		negKeys = append(negKeys, k)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(negKeys)))
	posKeys := make([]int, 0, len(h.pos))
	for k := range h.pos {
		posKeys = append(posKeys, k)
	}
	sort.Ints(posKeys)
	ti, cum := 0, 0
	advance := func(count int, value float64) {
		cum += count
		for ti < len(targets) && targets[ti].rank < cum {
			out[targets[ti].pos] = value
			ti++
		}
	}
	for _, k := range negKeys {
		advance(h.neg[k], -h.geom.estimate(k))
	}
	advance(h.zero, 0)
	for _, k := range posKeys {
		advance(h.pos[k], h.geom.estimate(k))
	}
	return out
}

// TestLogHistogramDenseMatchesMap feeds random streams — positive and
// negative values over many decades, exact zeros and sub-1e-9
// magnitudes — to the dense sketch and the map reference, merges them
// into accumulators in both forms (including empty and self merges),
// and requires identical N, Buckets and Quantiles throughout, with each
// merged-in sketch left unchanged by the merge.
func TestLogHistogramDenseMatchesMap(t *testing.T) {
	ps := []float64{0, 0.1, 1, 5, 10, 25, 50, 75, 90, 95, 99, 99.9, 100}
	for _, alpha := range []float64{0.01, 0.02, 0.1} {
		s := rng.New(math.Float64bits(alpha))
		dAcc, _ := NewLogHistogram(alpha)
		mAcc := newMapLogHistogram(t, alpha)
		same := func(what string, d *LogHistogram, m *mapLogHistogram) {
			t.Helper()
			if d.N() != m.n || d.Buckets() != m.Buckets() {
				t.Fatalf("alpha=%v %s: dense N %d buckets %d, map N %d buckets %d",
					alpha, what, d.N(), d.Buckets(), m.n, m.Buckets())
			}
			dq, mq := d.Quantiles(ps...), m.Quantiles(ps...)
			for i := range dq {
				if dq[i] != mq[i] && !(math.IsNaN(dq[i]) && math.IsNaN(mq[i])) {
					t.Fatalf("alpha=%v %s: p%v dense %v, map %v", alpha, what, ps[i], dq[i], mq[i])
				}
			}
		}
		for round := 0; round < 40; round++ {
			d, _ := NewLogHistogram(alpha)
			m := newMapLogHistogram(t, alpha)
			// Each round draws from its own scale, so merges reach past
			// both ends of the accumulator's span.
			center := s.Normal(0, 8)
			for i, n := 0, int(s.Uint64()%3000); i < n; i++ {
				var v float64
				switch s.Uint64() % 10 {
				case 0:
					v = 0
				case 1:
					v = (s.Float64() - 0.5) * 2e-9
				default:
					v = math.Exp(center + s.Normal(0, 3))
					if s.Uint64()%3 == 0 {
						v = -v
					}
				}
				d.Add(v)
				m.Add(v)
			}
			same("stream", d, m)
			before := *d
			beforeCounts := append([]int(nil), d.pos.counts...)
			if err := dAcc.Merge(d); err != nil {
				t.Fatal(err)
			}
			mAcc.Merge(m)
			if d.N() != before.N() || d.pos.offset != before.pos.offset ||
				!reflect.DeepEqual(d.pos.counts, beforeCounts) {
				t.Fatalf("alpha=%v round %d: Merge changed its argument", alpha, round)
			}
			same("merged", dAcc, mAcc)
			if round%10 == 9 {
				// A self merge doubles every counter.
				if err := dAcc.Merge(dAcc); err != nil {
					t.Fatal(err)
				}
				mAcc.Merge(mAcc)
				same("self-merged", dAcc, mAcc)
			}
		}
		empty, _ := NewLogHistogram(alpha)
		if err := dAcc.Merge(empty); err != nil {
			t.Fatal(err)
		}
		same("empty-merged", dAcc, mAcc)
	}
}

// TestLogHistogramSpanBound pins the dense memory bound: the whole
// positive float64 range at α=1% — the smallest magnitude above the zero
// bucket to the largest finite value, and an infinity, which counts with
// the largest — fits in at most ~37k counters.
func TestLogHistogramSpanBound(t *testing.T) {
	h, _ := NewLogHistogram(0.01)
	h.Add(math.Nextafter(logHistogramMinValue, 1))
	h.Add(math.MaxFloat64)
	h.Add(math.Inf(1))
	if got := len(h.pos.counts); got > 37_000 {
		t.Errorf("full float64 range spans %d counters, want ≤ 37000", got)
	}
	if h.Buckets() != 2 {
		t.Errorf("buckets = %d, want 2 (infinity shares the largest finite bucket)", h.Buckets())
	}
	if q := h.Quantile(100); !(q > 1e307) {
		t.Errorf("p100 = %v, want the top bucket's estimate", q)
	}
}
