package lsh

import (
	"container/heap"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/rng"
)

func TestVectorOps(t *testing.T) {
	v := Vector{3, 4}
	if v.Norm() != 5 {
		t.Errorf("Norm = %v, want 5", v.Norm())
	}
	u := Vector{1, 0}
	if got := v.Dot(u); got != 3 {
		t.Errorf("Dot = %v, want 3", got)
	}
	if got := CosineSimilarity(v, v); math.Abs(got-1) > 1e-12 {
		t.Errorf("self-similarity = %v, want 1", got)
	}
	if got := CosineSimilarity(Vector{1, 0}, Vector{0, 1}); math.Abs(got) > 1e-12 {
		t.Errorf("orthogonal similarity = %v, want 0", got)
	}
	if got := CosineSimilarity(Vector{0, 0}, v); got != 0 {
		t.Errorf("zero-vector similarity = %v, want 0", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Dim: 0, Tables: 1, Bits: 8}); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := New(Config{Dim: 8, Tables: 0, Bits: 8}); err == nil {
		t.Error("zero tables accepted")
	}
	if _, err := New(Config{Dim: 8, Tables: 1, Bits: 65}); err == nil {
		t.Error("65 bits accepted")
	}
}

func TestAddDimensionMismatch(t *testing.T) {
	idx, err := New(Config{Dim: 4, Tables: 2, Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Add("x", Vector{1, 2}); err == nil {
		t.Error("wrong-dimension vector accepted")
	}
}

func TestExactMatchIsTopResult(t *testing.T) {
	idx, err := New(Config{Dim: 16, Tables: 8, Bits: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDataset(500, 16, 5, 2)
	for i, v := range data {
		if err := idx.Add(fmt.Sprintf("v%d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	// Querying with an indexed vector must return it first (it collides
	// with itself in every table).
	res, stats, err := idx.Query(data[42], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != "v42" {
		t.Fatalf("top result = %+v, want v42", res)
	}
	if math.Abs(res[0].Similarity-1) > 1e-9 {
		t.Errorf("self similarity = %v, want 1", res[0].Similarity)
	}
	if stats.Candidates == 0 || stats.Probes == 0 {
		t.Errorf("stats empty: %+v", stats)
	}
}

func TestResultsSortedDescending(t *testing.T) {
	idx, _ := New(Config{Dim: 8, Tables: 6, Bits: 6, Seed: 3})
	data := GenerateDataset(300, 8, 3, 4)
	for i, v := range data {
		idx.Add(fmt.Sprintf("v%d", i), v)
	}
	res, _, err := idx.Query(data[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Similarity > res[i-1].Similarity {
			t.Fatalf("results not sorted: %v", res)
		}
	}
}

func TestRecallAgainstBruteForce(t *testing.T) {
	idx, _ := New(Config{Dim: 32, Tables: 16, Bits: 8, Seed: 5})
	data := GenerateDataset(2000, 32, 8, 6)
	for i, v := range data {
		idx.Add(fmt.Sprintf("v%d", i), v)
	}
	queries := GenerateDataset(20, 32, 8, 6)
	totalRecall := 0.0
	for _, q := range queries {
		approx, _, err := idx.Query(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := idx.BruteForce(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		totalRecall += Recall(approx, exact)
	}
	avg := totalRecall / float64(len(queries))
	// Clustered data with 16 tables should retrieve most true neighbours.
	if avg < 0.5 {
		t.Errorf("average recall = %v, want ≥0.5", avg)
	}
}

func TestQueryErrors(t *testing.T) {
	idx, _ := New(Config{Dim: 4, Tables: 2, Bits: 4, Seed: 7})
	idx.Add("a", Vector{1, 2, 3, 4})
	if _, _, err := idx.Query(Vector{1}, 5); err == nil {
		t.Error("wrong-dimension query accepted")
	}
	if _, _, err := idx.Query(Vector{1, 2, 3, 4}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := idx.BruteForce(Vector{1}, 5); err == nil {
		t.Error("wrong-dimension brute force accepted")
	}
}

func TestQueryFewerThanK(t *testing.T) {
	idx, _ := New(Config{Dim: 4, Tables: 4, Bits: 4, Seed: 8})
	idx.Add("only", Vector{1, 0, 0, 0})
	res, _, err := idx.Query(Vector{1, 0, 0, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("got %d results, want 1", len(res))
	}
}

func TestRecallEdgeCases(t *testing.T) {
	if Recall(nil, nil) != 0 {
		t.Error("Recall with empty exact should be 0")
	}
	a := []Result{{ID: "x"}}
	if Recall(a, a) != 1 {
		t.Error("identical lists should have recall 1")
	}
}

func TestSignatureDeterministic(t *testing.T) {
	mk := func() *Index {
		idx, _ := New(Config{Dim: 8, Tables: 4, Bits: 16, Seed: 42})
		return idx
	}
	a, b := mk(), mk()
	v := GenerateDataset(1, 8, 1, 9)[0]
	for tbl := 0; tbl < 4; tbl++ {
		if a.signature(tbl, v) != b.signature(tbl, v) {
			t.Fatal("same seed produced different signatures")
		}
	}
}

func TestNearbyVectorsCollideMoreThanFarOnes(t *testing.T) {
	idx, _ := New(Config{Dim: 32, Tables: 1, Bits: 16, Seed: 10})
	stream := rng.New(11)
	base := make(Vector, 32)
	for d := range base {
		base[d] = stream.Normal(0, 1)
	}
	near := make(Vector, 32)
	far := make(Vector, 32)
	for d := range base {
		near[d] = base[d] + stream.Normal(0, 0.05)
		far[d] = stream.Normal(0, 1)
	}
	sigBase := idx.signature(0, base)
	sigNear := idx.signature(0, near)
	sigFar := idx.signature(0, far)
	hamming := func(a, b uint64) int {
		x := a ^ b
		n := 0
		for x != 0 {
			n++
			x &= x - 1
		}
		return n
	}
	if hamming(sigBase, sigNear) >= hamming(sigBase, sigFar) {
		t.Errorf("near hamming %d not smaller than far hamming %d",
			hamming(sigBase, sigNear), hamming(sigBase, sigFar))
	}
}

func TestGenerateDatasetShape(t *testing.T) {
	data := GenerateDataset(100, 16, 4, 1)
	if len(data) != 100 {
		t.Fatalf("n = %d, want 100", len(data))
	}
	for _, v := range data {
		if len(v) != 16 {
			t.Fatalf("dim = %d, want 16", len(v))
		}
	}
	// Deterministic per seed.
	again := GenerateDataset(100, 16, 4, 1)
	if again[0][0] != data[0][0] {
		t.Error("dataset generation not deterministic")
	}
}

// referenceQuery is the original Query: a map for dedup, CosineSimilarity
// per candidate and a container/heap top-k. Query must match it bit for
// bit, ties included.
func referenceQuery(idx *Index, q Vector, k int) ([]Result, QueryStats, error) {
	if len(q) != idx.cfg.Dim {
		return nil, QueryStats{}, fmt.Errorf("lsh: query dimension %d ≠ index dimension %d", len(q), idx.cfg.Dim)
	}
	if k < 1 {
		return nil, QueryStats{}, fmt.Errorf("lsh: k must be ≥1, got %d", k)
	}
	var stats QueryStats
	seen := make(map[int]struct{})
	h := &resultHeap{}
	heap.Init(h)
	for t := range idx.tables {
		sig := idx.signature(t, q)
		bucket := idx.tables[t][sig]
		if len(bucket) > 0 {
			stats.Probes++
		}
		for _, i := range bucket {
			if _, dup := seen[i]; dup {
				continue
			}
			seen[i] = struct{}{}
			sim := CosineSimilarity(q, idx.data[i])
			if h.Len() < k {
				heap.Push(h, Result{ID: idx.ids[i], Similarity: sim})
			} else if sim > (*h)[0].Similarity {
				(*h)[0] = Result{ID: idx.ids[i], Similarity: sim}
				heap.Fix(h, 0)
			}
		}
	}
	stats.Candidates = len(seen)
	out := make([]Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Result)
	}
	return out, stats, nil
}

// resultHeap is a min-heap by similarity (root = weakest of the top-k).
type resultHeap []Result

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return h[i].Similarity < h[j].Similarity }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)        { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() any          { old := *h; n := len(old); r := old[n-1]; *h = old[:n-1]; return r }

// The HDSearch service's index: the configuration, dataset and IDs
// services.NewHDSearch builds.
var (
	serviceOnce    sync.Once
	serviceIdx     *Index
	serviceDataset []Vector
)

func serviceIndex(tb testing.TB) (*Index, []Vector) {
	tb.Helper()
	serviceOnce.Do(func() {
		idx, err := New(Config{Dim: 64, Tables: 8, Bits: 12, Seed: 777})
		if err != nil {
			panic(err)
		}
		data := GenerateDataset(20000, 64, 32, 778)
		for i, v := range data {
			if err := idx.Add(fmt.Sprintf("img-%d", i), v); err != nil {
				panic(err)
			}
		}
		serviceIdx, serviceDataset = idx, data
	})
	return serviceIdx, serviceDataset
}

// serviceQueries draws n queries the way HDSearch.NewQuery does: a random
// indexed vector plus N(0, 0.15) noise per dimension.
func serviceQueries(data []Vector, n int, seed uint64) []Vector {
	stream := rng.New(seed)
	qs := make([]Vector, n)
	for j := range qs {
		base := data[stream.Intn(len(data))]
		q := make(Vector, len(base))
		for i := range q {
			q[i] = base[i] + stream.Normal(0, 0.15)
		}
		qs[j] = q
	}
	return qs
}

// assertMatchesReference checks Query against referenceQuery for every
// query and k.
func assertMatchesReference(t *testing.T, idx *Index, name string, qs []Vector, ks []int) {
	t.Helper()
	for j, q := range qs {
		for _, k := range ks {
			got, gotStats, err := idx.Query(q, k)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats, err := referenceQuery(idx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if gotStats != wantStats {
				t.Fatalf("%s query %d k=%d: stats %+v, want %+v", name, j, k, gotStats, wantStats)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s query %d k=%d: results differ\n got %v\nwant %v", name, j, k, got, want)
			}
		}
	}
}

func TestQueryMatchesReference(t *testing.T) {
	idx, data := serviceIndex(t)
	n := 2000
	if testing.Short() {
		n = 200
	}
	qs := serviceQueries(data, n, 1)
	// k = 1 and 10 keep a full heap; len(data)+1 exceeds any candidate set.
	ks := []int{1, 10, len(data) + 1}
	assertMatchesReference(t, idx, "service", qs, ks)

	// Edge cases on the service index: the zero query (every similarity
	// 0) and queries equal to indexed vectors (similarity 1).
	zero := make(Vector, 64)
	assertMatchesReference(t, idx, "service edge", []Vector{zero, data[0], data[12345]}, ks)
}

// TestQueryMatchesReferenceEdgeCases runs the exact-tie cases on an index
// with 16 buckets per table, so the zero query's bucket (all signature
// bits set) is well populated.
func TestQueryMatchesReferenceEdgeCases(t *testing.T) {
	idx, err := New(Config{Dim: 64, Tables: 8, Bits: 4, Seed: 777})
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDataset(2000, 64, 32, 778)
	zero := make(Vector, 64)
	dup := data[7]
	data = append(data, zero, dup, dup)
	for i, v := range data {
		if err := idx.Add(fmt.Sprintf("v%d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	_, stats, err := idx.Query(zero, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Candidates < 100 {
		t.Fatalf("zero query scored only %d candidates; the tie-order case needs many", stats.Candidates)
	}
	qs := []Vector{
		zero,    // every similarity is 0: pure tie order
		dup,     // equal to three indexed vectors: a three-way tie at the top
		data[0], // equal to one indexed vector
	}
	qs = append(qs, serviceQueries(data, 50, 2)...)
	ks := []int{1, 2, 3, 10, 100, len(data) + 1}
	assertMatchesReference(t, idx, "edge", qs, ks)
}

func TestQueryConcurrent(t *testing.T) {
	idx, data := serviceIndex(t)
	n := 400
	if testing.Short() {
		n = 80
	}
	qs := serviceQueries(data, n, 3)
	type answer struct {
		res   []Result
		stats QueryStats
	}
	want := make([]answer, len(qs))
	for j, q := range qs {
		res, stats, err := idx.Query(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = answer{res, stats}
	}
	const workers = 8
	got := make([]answer, len(qs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(qs); j += workers {
				res, stats, err := idx.Query(qs[j], 10)
				if err != nil {
					t.Error(err)
					return
				}
				got[j] = answer{res, stats}
			}
		}(w)
	}
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent queries differ from sequential ones")
	}
}

// TestQueryAllocs gates the query kernel's allocations: the returned slice
// is the only one.
func TestQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate: skipped under -race (sync.Pool drops items at random)")
	}
	idx, data := serviceIndex(t)
	qs := serviceQueries(data, 64, 4)
	j := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := idx.Query(qs[j%len(qs)], 10); err != nil {
			t.Fatal(err)
		}
		j++
	})
	if allocs > 1 {
		t.Fatalf("Query allocates %.1f times per call, want ≤ 1 (the returned slice)", allocs)
	}
}

func BenchmarkQuery(b *testing.B) {
	idx, _ := New(Config{Dim: 64, Tables: 8, Bits: 12, Seed: 1})
	data := GenerateDataset(10000, 64, 16, 2)
	for i, v := range data {
		idx.Add(fmt.Sprintf("v%d", i), v)
	}
	q := GenerateDataset(1, 64, 16, 3)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := idx.Query(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBruteForce(b *testing.B) {
	idx, _ := New(Config{Dim: 64, Tables: 1, Bits: 1, Seed: 1})
	data := GenerateDataset(10000, 64, 16, 2)
	for i, v := range data {
		idx.Add(fmt.Sprintf("v%d", i), v)
	}
	q := GenerateDataset(1, 64, 16, 3)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.BruteForce(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryHDSearch queries the HDSearch service's index with
// service-shaped queries (~570 candidates each on average).
func BenchmarkQueryHDSearch(b *testing.B) {
	idx, data := serviceIndex(b)
	qs := serviceQueries(data, 1024, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := idx.Query(qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
}
