// Rank-addressed copy-on-write snapshots. A Snapshot is a frozen key
// space: one value size per key, indexed by the key's integer rank
// (for the ETC workload, its popularity rank). Fork derives cheap
// mutable overlays from it. The pattern is what lets N concurrent
// Memcached experiment cells share one preloaded key space instead of N
// private copies: the preload is built once, every cell forks it, and a
// run reset advances the overlay's generation instead of replaying the
// run's dirty keys.
//
// The simulated service prices a request by the size of the value it
// touches and never reads the bytes, so the table stores sizes, not
// values, and a lookup is a slice index rather than a string hash.

package kvstore

import (
	"errors"
	"fmt"
	"sync"
)

// ErrRankRange reports a write to a rank outside the snapshot's key
// space. Reads of such ranks are plain misses.
var ErrRankRange = errors.New("kvstore: key rank outside the key space")

// Snapshot is an immutable table of value sizes indexed by key rank. It
// carries no locks and is safe for unlimited concurrent readers — which
// is exactly how sibling Forks use it.
type Snapshot struct {
	sizes []int32
	bytes int64
}

// NewSnapshot builds a snapshot of keys entries. size is called once per
// rank, in increasing rank order, and returns that key's value size in
// bytes; a size outside [0, MaxValueSize] fails the build. Calling size
// in rank order lets a preload feed its value-size draws straight from
// a random stream.
func NewSnapshot(keys int, size func(rank int) int) (*Snapshot, error) {
	if keys < 0 {
		return nil, fmt.Errorf("kvstore: negative key count %d", keys)
	}
	sn := &Snapshot{sizes: make([]int32, keys)}
	for rank := range sn.sizes {
		n := size(rank)
		if err := checkSize(n); err != nil {
			return nil, fmt.Errorf("rank %d: %w", rank, err)
		}
		sn.sizes[rank] = int32(n)
		sn.bytes += int64(n)
	}
	return sn, nil
}

func checkSize(n int) error {
	if n < 0 {
		return fmt.Errorf("kvstore: negative value size %d", n)
	}
	if n > MaxValueSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	return nil
}

// Len returns the number of keys: ranks [0, Len()) are present.
func (sn *Snapshot) Len() int { return len(sn.sizes) }

// Bytes returns the total frozen value bytes.
func (sn *Snapshot) Bytes() int64 { return sn.bytes }

// Fork derives a mutable copy-on-write view: reads fall through to the
// snapshot, writes land in a private overlay. Forks of the same
// snapshot are fully independent — one fork's writes are invisible to
// its siblings and to the base.
func (sn *Snapshot) Fork() *Fork {
	return &Fork{base: sn, slots: make([]slot, len(sn.sizes)), gen: 1}
}

// slot is one overlay entry; it is live only while gen equals its
// fork's current generation.
type slot struct {
	size int32
	gen  uint32
}

// Fork is a mutable overlay over an immutable Snapshot. It is safe for
// concurrent use, though the intended deployment is one fork per
// experiment environment (a single sim-engine goroutine) with only the
// shared base read concurrently.
//
// The key space is fixed (a write outside it is an error, a read outside
// it a miss), and there is no eviction and no TTL. The hit and miss
// counters accumulate for the fork's lifetime: Reset drops data
// changes, not counters, as a memcached server's counters persist
// across experiment runs.
type Fork struct {
	mu    sync.Mutex
	base  *Snapshot
	slots []slot // one per rank
	gen   uint32 // current generation; never 0, so zeroed slots are dead
	dirty int    // ranks written in the current generation

	hits, misses uint64
}

// Base returns the snapshot this fork overlays.
func (f *Fork) Base() *Snapshot { return f.base }

// ValueSize returns the size in bytes of the value visible under rank,
// counting a hit, or reports false and counts a miss when rank is
// outside the key space.
func (f *Fork) ValueSize(rank int) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if uint(rank) >= uint(len(f.base.sizes)) {
		f.misses++
		return 0, false
	}
	f.hits++
	if s := f.slots[rank]; s.gen == f.gen {
		return int(s.size), true
	}
	return int(f.base.sizes[rank]), true
}

// Set stores a value of size bytes under rank in the overlay.
func (f *Fork) Set(rank, size int) error {
	if err := checkSize(size); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if uint(rank) >= uint(len(f.base.sizes)) {
		return fmt.Errorf("%w: rank %d of %d", ErrRankRange, rank, len(f.base.sizes))
	}
	s := &f.slots[rank]
	if s.gen != f.gen {
		f.dirty++
	}
	*s = slot{size: int32(size), gen: f.gen}
	return nil
}

// Dirty returns the number of ranks written since the last Reset.
func (f *Fork) Dirty() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dirty
}

// Stats returns the fork's hit and miss counters.
func (f *Fork) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{Hits: f.hits, Misses: f.misses}
}

// Reset returns the fork to the pristine snapshot state in O(1): it
// advances the generation, which retires every overlay slot at once.
// Only when the generation wraps are the slots cleared, so a slot
// written 2^32 resets ago can never come back to life. Counters are not
// cleared (they are lifetime statistics).
func (f *Fork) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gen++
	if f.gen == 0 {
		clear(f.slots)
		f.gen = 1
	}
	f.dirty = 0
}
