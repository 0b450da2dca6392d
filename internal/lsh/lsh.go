// Package lsh implements a locality-sensitive-hash index for cosine
// similarity over dense feature vectors — the data structure at the heart
// of HDSearch, the MicroSuite image-similarity service the paper evaluates
// (§IV-B: "It uses Locality-Sensitive Hash (LSH) tables to traverse the
// search space of the problem efficiently").
//
// The index uses random-hyperplane signatures (Charikar, STOC'02): each of
// L tables hashes a vector to a B-bit signature whose bits are the signs of
// projections onto random hyperplanes; vectors with small angular distance
// collide with high probability. A query probes its bucket in every table,
// gathers candidates, and ranks them by exact cosine similarity.
//
// The query kernel allocates only the slice it returns. Add caches each
// vector's norm, so scoring a candidate costs one dot product. Candidates
// are visited table by table, each bucket in stored order, and
// deduplicated with a bitset over vector indices. The top k are kept in a
// typed min-heap that follows container/heap's sift rules, so ties resolve
// exactly as a container/heap top-k would. The bitset and the heap are
// per-query scratch, reused through a sync.Pool. Query is safe for
// concurrent use; Add is not safe concurrently with Query.
package lsh

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/rng"
)

// Vector is a dense feature vector.
type Vector []float64

// Dot returns the inner product of two equal-length vectors.
func (v Vector) Dot(u Vector) float64 {
	s := 0.0
	u = u[:len(v)] // one bounds check up front instead of one per element
	for i, x := range v {
		s += x * u[i]
	}
	return s
}

// Norm returns the Euclidean norm.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// CosineSimilarity returns v·u / (|v||u|), or 0 for zero vectors.
func CosineSimilarity(v, u Vector) float64 {
	nv, nu := v.Norm(), u.Norm()
	if nv == 0 || nu == 0 {
		return 0
	}
	return v.Dot(u) / (nv * nu)
}

// Config sizes the index.
type Config struct {
	Dim    int // vector dimensionality
	Tables int // number of hash tables (L)
	Bits   int // signature bits per table (B), ≤ 64
	Seed   uint64
}

// Index is an LSH index over cosine similarity. Build once with Add, then
// Query concurrently (Add is not safe concurrently with Query).
type Index struct {
	cfg     Config
	planes  [][]Vector // [table][bit] hyperplane normals
	tables  []map[uint64][]int
	data    []Vector
	norms   []float64 // norms[i] = data[i].Norm(), cached at Add
	ids     []string
	scratch sync.Pool // *queryScratch
}

// queryScratch is the per-query working set Query borrows from the pool.
type queryScratch struct {
	seen []uint64 // bitset over vector indices, all zero between queries
	top  topK
}

// New creates an empty index.
func New(cfg Config) (*Index, error) {
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("lsh: dimension must be ≥1, got %d", cfg.Dim)
	}
	if cfg.Tables < 1 || cfg.Bits < 1 || cfg.Bits > 64 {
		return nil, fmt.Errorf("lsh: need ≥1 table and 1..64 bits, got L=%d B=%d", cfg.Tables, cfg.Bits)
	}
	idx := &Index{cfg: cfg}
	stream := rng.NewLabeled(cfg.Seed, "lsh-hyperplanes")
	idx.planes = make([][]Vector, cfg.Tables)
	idx.tables = make([]map[uint64][]int, cfg.Tables)
	for t := 0; t < cfg.Tables; t++ {
		idx.planes[t] = make([]Vector, cfg.Bits)
		for b := 0; b < cfg.Bits; b++ {
			plane := make(Vector, cfg.Dim)
			for d := range plane {
				plane[d] = stream.Normal(0, 1)
			}
			idx.planes[t][b] = plane
		}
		idx.tables[t] = make(map[uint64][]int)
	}
	return idx, nil
}

// Len returns the number of indexed vectors.
func (idx *Index) Len() int { return len(idx.data) }

// signature hashes v in table t.
func (idx *Index) signature(t int, v Vector) uint64 {
	var sig uint64
	for b, plane := range idx.planes[t] {
		if plane.Dot(v) >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// Add indexes a vector under an identifier. The vector is not copied and
// must not be modified afterwards: its norm is cached here.
func (idx *Index) Add(id string, v Vector) error {
	if len(v) != idx.cfg.Dim {
		return fmt.Errorf("lsh: vector dimension %d ≠ index dimension %d", len(v), idx.cfg.Dim)
	}
	n := len(idx.data)
	idx.data = append(idx.data, v)
	idx.norms = append(idx.norms, v.Norm())
	idx.ids = append(idx.ids, id)
	for t := range idx.tables {
		sig := idx.signature(t, v)
		idx.tables[t][sig] = append(idx.tables[t][sig], n)
	}
	return nil
}

// Result is one ranked neighbour.
type Result struct {
	ID         string
	Similarity float64
}

// QueryStats reports the work a query performed, which the HDSearch service
// model uses to derive a data-dependent service time.
type QueryStats struct {
	Candidates int // distinct vectors scored
	Probes     int // buckets touched
}

// Query returns the top-k indexed vectors by cosine similarity to q among
// the LSH candidates. Results are ordered most-similar first.
func (idx *Index) Query(q Vector, k int) ([]Result, QueryStats, error) {
	if len(q) != idx.cfg.Dim {
		return nil, QueryStats{}, fmt.Errorf("lsh: query dimension %d ≠ index dimension %d", len(q), idx.cfg.Dim)
	}
	if k < 1 {
		return nil, QueryStats{}, fmt.Errorf("lsh: k must be ≥1, got %d", k)
	}
	s, _ := idx.scratch.Get().(*queryScratch)
	if s == nil {
		s = &queryScratch{}
	}
	if words := (len(idx.data) + 63) / 64; len(s.seen) < words {
		s.seen = make([]uint64, words)
	}
	top := s.top[:0]
	var stats QueryStats
	nq := q.Norm()
	for t := range idx.tables {
		bucket := idx.tables[t][idx.signature(t, q)]
		if len(bucket) > 0 {
			stats.Probes++
		}
		for _, i := range bucket {
			w, bit := i/64, uint64(1)<<(i%64)
			if s.seen[w]&bit != 0 {
				continue
			}
			s.seen[w] |= bit
			stats.Candidates++
			sim := idx.score(q, nq, i)
			if len(top) < k {
				top = top.push(scored{i, sim})
			} else if sim > top[0].sim {
				top[0] = scored{i, sim}
				top.down(0)
			}
		}
	}
	out := make([]Result, len(top))
	for i := len(out) - 1; i >= 0; i-- {
		var c scored
		top, c = top.pop()
		out[i] = Result{ID: idx.ids[c.i], Similarity: c.sim}
	}
	clear(s.seen)
	s.top = top
	idx.scratch.Put(s)
	return out, stats, nil
}

// score is CosineSimilarity(q, data[i]) with both norms precomputed; the
// expression is the same, so the bits are too.
func (idx *Index) score(q Vector, nq float64, i int) float64 {
	ni := idx.norms[i]
	if nq == 0 || ni == 0 {
		return 0
	}
	return q.Dot(idx.data[i]) / (nq * ni)
}

// BruteForce returns the exact top-k by scanning every vector — the
// ground-truth baseline used to measure LSH recall.
func (idx *Index) BruteForce(q Vector, k int) ([]Result, error) {
	if len(q) != idx.cfg.Dim {
		return nil, fmt.Errorf("lsh: query dimension %d ≠ index dimension %d", len(q), idx.cfg.Dim)
	}
	nq := q.Norm()
	all := make([]Result, len(idx.data))
	for i := range idx.data {
		all[i] = Result{ID: idx.ids[i], Similarity: idx.score(q, nq, i)}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Similarity > all[b].Similarity })
	if k > len(all) {
		k = len(all)
	}
	return all[:k], nil
}

// Recall computes |lsh ∩ exact| / |exact| for two result lists.
func Recall(lshResults, exact []Result) float64 {
	if len(exact) == 0 {
		return 0
	}
	in := make(map[string]struct{}, len(exact))
	for _, r := range exact {
		in[r.ID] = struct{}{}
	}
	hits := 0
	for _, r := range lshResults {
		if _, ok := in[r.ID]; ok {
			hits++
		}
	}
	return float64(hits) / float64(len(exact))
}

// scored is one candidate: its index in data and its similarity.
type scored struct {
	i   int
	sim float64
}

// topK is a min-heap by similarity (root = weakest of the top k). Its
// sift rules are container/heap's, which fixes the order of exact ties.
type topK []scored

// push adds c and sifts it towards the root.
func (h topK) push(c scored) topK {
	h = append(h, c)
	for j := len(h) - 1; j > 0; {
		p := (j - 1) / 2
		if !(h[j].sim < h[p].sim) {
			break
		}
		h[p], h[j] = h[j], h[p]
		j = p
	}
	return h
}

// down sifts h[i] towards the leaves.
func (h topK) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h[r].sim < h[j].sim {
			j = r
		}
		if !(h[j].sim < h[i].sim) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// pop removes and returns the root.
func (h topK) pop() (topK, scored) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	h[:n].down(0)
	return h[:n], h[n]
}

// GenerateDataset creates n random unit-ish vectors for tests, benchmarks,
// and the HDSearch service model, clustered so LSH has structure to find:
// vectors are drawn around `clusters` random centroids.
func GenerateDataset(n, dim, clusters int, seed uint64) []Vector {
	stream := rng.NewLabeled(seed, "lsh-dataset")
	if clusters < 1 {
		clusters = 1
	}
	centroids := make([]Vector, clusters)
	for c := range centroids {
		centroids[c] = make(Vector, dim)
		for d := range centroids[c] {
			centroids[c][d] = stream.Normal(0, 1)
		}
	}
	out := make([]Vector, n)
	for i := range out {
		c := centroids[stream.Intn(clusters)]
		v := make(Vector, dim)
		for d := range v {
			v[d] = c[d] + stream.Normal(0, 0.3)
		}
		out[i] = v
	}
	return out
}
