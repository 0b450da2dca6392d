package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"
)

// fullSearchRank is the reference sampler: a lower-bound search over the
// whole CDF. The guided draw must return the same rank for every u.
func fullSearchRank(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func TestZipfGuidedRankMatchesFullSearch(t *testing.T) {
	randomU := 1000000
	if testing.Short() {
		randomU = 100000
	}
	for _, n := range []int{1, 2, 3, 1000, 100000} {
		for _, alpha := range []float64{0.5, 0.8, 0.99, 1.0, 2.0} {
			tab := NewZipf(New(1), n, alpha).t
			check := func(u float64) {
				if got, want := tab.rank(u), fullSearchRank(tab.cdf, u); got != want {
					t.Fatalf("n=%d alpha=%v u=%v: guided rank %d, full search %d", n, alpha, u, got, want)
				}
			}
			check(0)
			for _, c := range tab.cdf {
				check(c)
				check(math.Nextafter(c, math.Inf(-1)))
				check(math.Nextafter(c, math.Inf(1)))
			}
			s := New(uint64(n) ^ math.Float64bits(alpha))
			for i := 0; i < randomU; i++ {
				check(s.Float64())
			}
		}
	}
}

// TestGuidedRankAtBucketEdges builds CDFs whose values sit on the guide's
// bucket edges and one or two ulps either side, where rounding in u·n and
// in the edges decides the bucket, and checks every u near every edge.
func TestGuidedRankAtBucketEdges(t *testing.T) {
	near := func(x float64, ulps int) float64 {
		dir := math.Inf(1)
		if ulps < 0 {
			dir, ulps = math.Inf(-1), -ulps
		}
		for ; ulps > 0; ulps-- {
			x = math.Nextafter(x, dir)
		}
		return x
	}
	for _, n := range []int{3, 7, 10, 49, 1000} {
		for shift := -2; shift <= 2; shift++ {
			cdf := make([]float64, n)
			for i := range cdf {
				cdf[i] = near(float64(i+1)/float64(n), shift+i%3-1)
			}
			cdf[n-1] = 1
			tab := newGuidedTable(cdf)
			for j := 0; j <= n; j++ {
				for ulps := -3; ulps <= 3; ulps++ {
					u := near(float64(j)/float64(n), ulps)
					if u < 0 {
						continue
					}
					if got, want := tab.rank(u), fullSearchRank(cdf, u); got != want {
						t.Fatalf("n=%d shift=%d u=%v: guided rank %d, full search %d", n, shift, u, got, want)
					}
				}
			}
		}
	}
	// Ranks past the first CDF value of 1 are unreachable for u <= 1,
	// but the full search clamps u > 1 to the last rank.
	cdf := []float64{0.25, 1, 1, 1}
	for _, u := range []float64{1, math.Nextafter(1, 2)} {
		if got, want := newGuidedTable(cdf).rank(u), fullSearchRank(cdf, u); got != want {
			t.Errorf("trailing ones, u=%v: guided rank %d, full search %d", u, got, want)
		}
	}
}

// TestZipfDrawGolden pins seeded Draw sequences recorded from the
// full-search sampler with a private CDF per sampler: the first 16 ranks
// and an FNV-1a hash of the next 100000.
func TestZipfDrawGolden(t *testing.T) {
	for _, c := range []struct {
		seed  uint64
		n     int
		alpha float64
		first []int
		hash  uint64
	}{
		{7, 100000, 0.99, []int{3112, 18, 15828, 80613, 90109, 23233, 0, 1, 87, 3, 467, 4498, 49781, 25505, 157, 590}, 0x25acb6ba6cd1195c},
		{11, 1000, 0.5, []int{57, 11, 68, 208, 10, 103, 273, 991, 409, 60, 6, 124, 730, 8, 151, 708}, 0x26bb95418c1c24a},
		{13, 3, 2, []int{0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0}, 0x6f0d861052e10c87},
		{17, 1 << 20, 0.99, []int{9460, 14946, 459140, 676348, 10638, 475235, 179619, 214451, 1803, 9995, 0, 549644, 305, 14, 87, 2}, 0x4d221628b1d592c6},
	} {
		z := NewZipf(New(c.seed), c.n, c.alpha)
		first := make([]int, len(c.first))
		for i := range first {
			first[i] = z.Draw()
		}
		if !reflect.DeepEqual(first, c.first) {
			t.Errorf("n=%d alpha=%v: first draws %v, want %v", c.n, c.alpha, first, c.first)
		}
		h := fnv.New64a()
		var b [8]byte
		for i := 0; i < 100000; i++ {
			binary.LittleEndian.PutUint64(b[:], uint64(z.Draw()))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.hash {
			t.Errorf("n=%d alpha=%v: draw hash %#x, want %#x", c.n, c.alpha, got, c.hash)
		}
	}
}

// TestZipfTableShared checks that concurrent samplers over one (n, alpha)
// share a single table, that a cached NewZipf allocates only the sampler,
// and that drawing leaves the table untouched. Run it under -race.
func TestZipfTableShared(t *testing.T) {
	// A (n, alpha) no other test uses, so the first build happens here.
	const n, alpha, workers = 4099, 1.37, 16
	samplers := make([]*Zipf, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			samplers[w] = NewZipf(New(uint64(w)), n, alpha)
		}(w)
	}
	wg.Wait()
	tab := samplers[0].t
	for w, z := range samplers {
		if z.t != tab {
			t.Fatalf("sampler %d got its own table", w)
		}
	}

	cdf := append([]float64(nil), tab.cdf...)
	guide := append([]int32(nil), tab.guide...)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(z *Zipf) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				if r := z.Draw(); r < 0 || r >= n {
					t.Errorf("rank %d outside [0, %d)", r, n)
					return
				}
			}
		}(samplers[w])
	}
	wg.Wait()
	if !reflect.DeepEqual(tab.cdf, cdf) || !reflect.DeepEqual(tab.guide, guide) {
		t.Error("drawing modified the shared table")
	}

	s := New(1)
	if allocs := testing.AllocsPerRun(100, func() { NewZipf(s, n, alpha) }); allocs > 1 {
		t.Errorf("cached NewZipf allocates %v times, want ≤1", allocs)
	}
}
