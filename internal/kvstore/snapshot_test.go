package kvstore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// sizedSnapshot builds a snapshot of n keys, each valueSize bytes.
func sizedSnapshot(t testing.TB, n, valueSize int) *Snapshot {
	t.Helper()
	sn, err := NewSnapshot(n, func(int) int { return valueSize })
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// wantSize asserts that rank reads back as a hit of want bytes.
func wantSize(t *testing.T, f *Fork, rank, want int) {
	t.Helper()
	if got, ok := f.ValueSize(rank); !ok || got != want {
		t.Errorf("ValueSize(%d) = %d, %v; want %d, true", rank, got, ok, want)
	}
}

func TestSnapshotIsDeepFrozen(t *testing.T) {
	sizes := make([]int, 100)
	for i := range sizes {
		sizes[i] = 32
	}
	calls := 0
	sn, err := NewSnapshot(len(sizes), func(rank int) int {
		if rank != calls {
			t.Fatalf("size called for rank %d, want %d (rank order)", rank, calls)
		}
		calls++
		return sizes[rank]
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 100 || sn.Len() != 100 || sn.Bytes() != 100*32 {
		t.Fatalf("calls=%d len=%d bytes=%d, want 100/100/3200", calls, sn.Len(), sn.Bytes())
	}

	// Mutating the source of the sizes after the build must not leak
	// through: the snapshot owns its table.
	sizes[0], sizes[1] = 5, 7

	f := sn.Fork()
	wantSize(t, f, 0, 32)
	wantSize(t, f, 1, 32)
	if _, ok := f.ValueSize(100); ok {
		t.Error("rank past the key space reads as a hit")
	}

	// A size outside [0, MaxValueSize] fails the build.
	if _, err := NewSnapshot(3, func(int) int { return MaxValueSize + 1 }); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized preload value: want ErrTooLarge, got %v", err)
	}
	if _, err := NewSnapshot(3, func(int) int { return -1 }); err == nil {
		t.Error("negative preload value size accepted")
	}
}

func TestForkWritesInvisibleToSiblingsAndBase(t *testing.T) {
	sn := sizedSnapshot(t, 50, 16)
	a, b := sn.Fork(), sn.Fork()

	if err := a.Set(3, 99); err != nil {
		t.Fatal(err)
	}
	if err := a.Set(4, 0); err != nil {
		t.Fatal(err)
	}

	// Fork a sees its own state.
	wantSize(t, a, 3, 99)
	wantSize(t, a, 4, 0)
	wantSize(t, a, 5, 16)

	// Sibling b sees the pristine base.
	for rank := 0; rank < 50; rank++ {
		wantSize(t, b, rank, 16)
	}

	// The base itself is untouched.
	if sn.Len() != 50 || sn.Bytes() != 50*16 {
		t.Errorf("base mutated: len=%d bytes=%d", sn.Len(), sn.Bytes())
	}

	// Counters are per fork.
	if st := a.Stats(); st.Hits != 3 || st.Misses != 0 {
		t.Errorf("a stats = %+v, want 3 hits", st)
	}
	if st := b.Stats(); st.Hits != 50 || st.Misses != 0 {
		t.Errorf("b stats = %+v, want 50 hits", st)
	}
}

func TestForkResetDropsOverlay(t *testing.T) {
	sn := sizedSnapshot(t, 40, 16)
	f := sn.Fork()

	for i := 0; i < 10; i++ {
		if err := f.Set(i, 50); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Set(3, 51); err != nil { // rewrite: still one dirty rank
		t.Fatal(err)
	}
	if f.Dirty() != 10 {
		t.Errorf("dirty = %d, want 10", f.Dirty())
	}

	f.Reset()
	if f.Dirty() != 0 {
		t.Errorf("dirty after reset = %d", f.Dirty())
	}
	for rank := 0; rank < 40; rank++ {
		wantSize(t, f, rank, 16)
	}

	// The overlay is reusable after a reset.
	if err := f.Set(3, 8); err != nil {
		t.Fatal(err)
	}
	wantSize(t, f, 3, 8)
	if f.Dirty() != 1 {
		t.Errorf("dirty after reuse = %d, want 1", f.Dirty())
	}
}

func TestForkRejectsOversizedValue(t *testing.T) {
	sn := sizedSnapshot(t, 4, 16)
	f := sn.Fork()
	if err := f.Set(0, MaxValueSize+1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized value: want ErrTooLarge, got %v", err)
	}
	if err := f.Set(0, -1); err == nil {
		t.Error("negative value size accepted")
	}
	for _, rank := range []int{-1, 4} {
		if err := f.Set(rank, 8); !errors.Is(err, ErrRankRange) {
			t.Errorf("Set(%d): want ErrRankRange, got %v", rank, err)
		}
	}
	if f.Dirty() != 0 {
		t.Errorf("rejected sets dirtied the fork: %d", f.Dirty())
	}
	wantSize(t, f, 0, 16)
	if err := f.Set(1, MaxValueSize); err != nil {
		t.Errorf("value at the size limit rejected: %v", err)
	}
}

// TestForkGenerationWraparound pins the one non-O(1) path of Reset: when
// the generation wraps, slots stamped with an old generation must not
// come back to life.
func TestForkGenerationWraparound(t *testing.T) {
	sn := sizedSnapshot(t, 8, 16)
	f := sn.Fork()

	// Stamp rank 3 with generation 1, then jump to the last generation
	// as if 2^32−2 resets had happened.
	if err := f.Set(3, 300); err != nil {
		t.Fatal(err)
	}
	f.gen = math.MaxUint32 - 1
	f.dirty = 0
	if err := f.Set(1, 100); err != nil {
		t.Fatal(err)
	}
	f.Reset() // gen = MaxUint32
	if err := f.Set(2, 200); err != nil {
		t.Fatal(err)
	}
	wantSize(t, f, 1, 16)
	wantSize(t, f, 2, 200)
	wantSize(t, f, 3, 16)

	f.Reset() // wraps back to generation 1
	if f.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", f.gen)
	}
	if f.Dirty() != 0 {
		t.Errorf("dirty after wrap = %d", f.Dirty())
	}
	for rank := 0; rank < 8; rank++ {
		wantSize(t, f, rank, 16) // rank 3 in particular: no revival
	}

	if err := f.Set(4, 5); err != nil {
		t.Fatal(err)
	}
	wantSize(t, f, 4, 5)
	if f.Dirty() != 1 {
		t.Errorf("dirty after a post-wrap set = %d, want 1", f.Dirty())
	}
}

// TestForkMatchesStringKeyedReference runs random GET/SET/Reset scripts
// against the rank table and the string-keyed fork it replaced, built
// from the same preload, and requires the same outcome for every
// operation and the same counters.
func TestForkMatchesStringKeyedReference(t *testing.T) {
	const keys = 64
	key := func(rank int) string { return fmt.Sprintf("etc-%012d", rank) }
	zero := make([]byte, MaxValueSize+1)

	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		sizes := make([]int, keys)
		store := New(Config{Shards: 8})
		for rank := range sizes {
			sizes[rank] = 1 + rnd.Intn(2000)
			if err := store.Set(key(rank), zero[:sizes[rank]], 0); err != nil {
				t.Fatal(err)
			}
		}
		ref := refSnapshotOf(store).fork()
		sn, err := NewSnapshot(keys, func(rank int) int { return sizes[rank] })
		if err != nil {
			t.Fatal(err)
		}
		f := sn.Fork()

		for step := 0; step < 2000; step++ {
			switch op := rnd.Intn(100); {
			case op < 70: // GET, sometimes outside the key space
				rank := rnd.Intn(keys+6) - 3
				want, refErr := ref.valueSize(key(rank))
				got, ok := f.ValueSize(rank)
				if ok != (refErr == nil) || got != want {
					t.Fatalf("seed %d step %d: GET %d = %d, %v; reference %d, %v", seed, step, rank, got, ok, want, refErr)
				}
			case op < 97: // SET, sometimes over the size limit
				rank, size := rnd.Intn(keys), rnd.Intn(3000)
				if rnd.Intn(50) == 0 {
					size = MaxValueSize + 1
				}
				refErr := ref.setShared(key(rank), zero[:size])
				if err := f.Set(rank, size); (err == nil) != (refErr == nil) {
					t.Fatalf("seed %d step %d: SET %d size %d: err %v, reference %v", seed, step, rank, size, err, refErr)
				}
			default:
				ref.reset()
				f.Reset()
			}
		}
		if got, want := f.Stats(), ref.stats(); got != want {
			t.Fatalf("seed %d: stats %+v, reference %+v", seed, got, want)
		}
	}
}

// TestConcurrentForks exercises many forks of one snapshot from parallel
// goroutines (run under -race): sibling isolation must hold with the base
// read concurrently and each fork mutated from its own goroutine.
func TestConcurrentForks(t *testing.T) {
	sn := sizedSnapshot(t, 200, 24)

	const forks = 8
	var wg sync.WaitGroup
	errs := make(chan error, forks)
	for g := 0; g < forks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := sn.Fork()
			mySize := 10 + g
			for round := 0; round < 50; round++ {
				for rank := 0; rank < 20; rank++ {
					if err := f.Set(rank, mySize); err != nil {
						errs <- err
						return
					}
					if n, ok := f.ValueSize(rank); !ok || n != mySize {
						errs <- fmt.Errorf("fork %d: got %d, %v; want %d", g, n, ok, mySize)
						return
					}
				}
				// Untouched ranks must always read back pristine.
				if n, ok := f.ValueSize(100); !ok || n != 24 {
					errs <- fmt.Errorf("fork %d: pristine rank %d, %v", g, n, ok)
					return
				}
				f.Reset()
				if n, ok := f.ValueSize(0); !ok || n != 24 {
					errs <- fmt.Errorf("fork %d: rank 0 = %d, %v after reset", g, n, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if sn.Len() != 200 || sn.Bytes() != 200*24 {
		t.Errorf("base mutated by concurrent forks: len=%d bytes=%d", sn.Len(), sn.Bytes())
	}
}

// BenchmarkSweepMemoryPerCell reports the per-cell memory cost of giving
// one concurrent Memcached-style sweep cell its own view of a 100k-key
// preloaded store. cow-fork is the copy-on-write path (fork the shared
// snapshot, dirty ~1k keys like a run's SETs, reset); full-preload is the
// unshared path (every cell rebuilds and re-preloads a private store).
// Compare B/op and allocs/op between the two.
func BenchmarkSweepMemoryPerCell(b *testing.B) {
	const (
		keys      = 100_000
		valueSize = 330 // ≈ the ETC mean value size
		dirty     = 1_000
	)

	b.Run("cow-fork", func(b *testing.B) {
		sn := sizedSnapshot(b, keys, valueSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := sn.Fork()
			for rank := 0; rank < dirty; rank++ {
				if err := f.Set(rank, valueSize); err != nil {
					b.Fatal(err)
				}
			}
			f.Reset()
		}
	})

	b.Run("full-preload", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, valueSize)
		for i := 0; i < b.N; i++ {
			s := New(Config{Shards: 64})
			for k := 0; k < keys; k++ {
				if err := s.Set(fmt.Sprintf("etc-%012d", k), buf, 0); err != nil {
					b.Fatal(err)
				}
			}
			if s.Len() != keys {
				b.Fatal("preload incomplete")
			}
		}
	})
}
