// Package kvstore implements a memcached-like in-memory key-value store:
// a sharded hash table with per-shard LRU eviction, optional TTL expiry,
// and hit/miss statistics. Its measured per-operation CPU cost calibrates
// the ~10 µs service-time scale the paper cites for Memcached ([4], [7]).
//
// The simulated Memcached service runs on the package's other half
// (snapshot.go): a frozen, rank-addressed table of preloaded value sizes
// and per-instance copy-on-write forks of it. The service executes every
// GET and SET against its fork, so hits, misses and the stored value's
// size are genuine rather than assumed.
package kvstore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
)

// Common errors.
var (
	ErrNotFound = errors.New("kvstore: key not found")
	ErrTooLarge = errors.New("kvstore: value exceeds item size limit")
)

// MaxValueSize is the largest storable value, matching memcached's default
// 1 MiB item limit.
const MaxValueSize = 1 << 20

// entry is one stored item, linked into its shard's LRU list.
type entry struct {
	key        string
	value      []byte
	expiresAt  int64 // virtual nanoseconds; 0 = no expiry
	prev, next *entry
}

// shard is one hash-table partition with its own lock and LRU list.
type shard struct {
	mu    sync.Mutex
	items map[string]*entry
	// LRU list: head = most recent, tail = least recent.
	head, tail *entry
	bytes      int64
	maxBytes   int64

	hits, misses, evictions, expirations uint64
}

// Store is a sharded LRU key-value store, safe for concurrent use.
type Store struct {
	shards []*shard
	mask   uint32
}

// Config sizes the store.
type Config struct {
	// Shards is the number of hash partitions; it is rounded up to a
	// power of two. More shards reduce lock contention.
	Shards int
	// MaxBytesPerShard bounds each shard's value bytes; 0 means unbounded.
	MaxBytesPerShard int64
}

// New creates a store. A zero Config yields 16 unbounded shards.
func New(cfg Config) *Store {
	n := cfg.Shards
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two for mask-based indexing.
	p := 1
	for p < n {
		p <<= 1
	}
	s := &Store{shards: make([]*shard, p), mask: uint32(p - 1)}
	for i := range s.shards {
		s.shards[i] = &shard{items: make(map[string]*entry), maxBytes: cfg.MaxBytesPerShard}
	}
	return s
}

func (s *Store) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[h.Sum32()&s.mask]
}

// Set stores value under key with an optional expiry (virtual nanoseconds;
// 0 = never). The value is copied.
func (s *Store) Set(key string, value []byte, expiresAt int64) error {
	if len(value) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(value))
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	if e, ok := sh.items[key]; ok {
		sh.bytes += int64(len(value)) - int64(len(e.value))
		e.value = append(e.value[:0], value...)
		e.expiresAt = expiresAt
		sh.moveToFront(e)
	} else {
		e := &entry{key: key, value: append([]byte(nil), value...), expiresAt: expiresAt}
		sh.items[key] = e
		sh.pushFront(e)
		sh.bytes += int64(len(value))
	}
	sh.evictIfNeeded()
	return nil
}

// Get returns a copy of the value stored under key. now is the caller's
// virtual clock, used for TTL expiry.
func (s *Store) Get(key string, now int64) ([]byte, error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	e, ok := sh.items[key]
	if !ok {
		sh.misses++
		return nil, ErrNotFound
	}
	if e.expiresAt != 0 && now >= e.expiresAt {
		sh.removeLocked(e)
		sh.expirations++
		sh.misses++
		return nil, ErrNotFound
	}
	sh.hits++
	sh.moveToFront(e)
	return append([]byte(nil), e.value...), nil
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.items[key]
	if !ok {
		return false
	}
	sh.removeLocked(e)
	return true
}

// Len returns the total number of stored items.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the total stored value bytes.
func (s *Store) Bytes() int64 {
	var b int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		b += sh.bytes
		sh.mu.Unlock()
	}
	return b
}

// Stats aggregates counters across shards.
type Stats struct {
	Hits, Misses, Evictions, Expirations uint64
}

// HitRate returns hits / (hits+misses), or 0 with no traffic.
func (st Stats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Expirations += sh.expirations
		sh.mu.Unlock()
	}
	return st
}

// --- shard internals (callers hold sh.mu) ---

func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

func (sh *shard) removeLocked(e *entry) {
	sh.unlink(e)
	delete(sh.items, e.key)
	sh.bytes -= int64(len(e.value))
}

func (sh *shard) evictIfNeeded() {
	if sh.maxBytes <= 0 {
		return
	}
	for sh.bytes > sh.maxBytes && sh.tail != nil {
		victim := sh.tail
		sh.removeLocked(victim)
		sh.evictions++
	}
}
