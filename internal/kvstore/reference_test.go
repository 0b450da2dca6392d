package kvstore

import "sync"

// Reference model: the string-keyed copy-on-write fork that the rank
// table replaced, kept for differential tests. Its base is a deep copy
// of a Store's contents and its overlay a map keyed by string; it keeps
// the old Set/ValueSize/Reset/Stats semantics, minus TTL, which no
// caller of the fork ever set.

type refSnapshot struct {
	items map[string][]byte
}

// refSnapshotOf freezes s the way Store.Snapshot did: every value is
// deep-copied.
func refSnapshotOf(s *Store) *refSnapshot {
	sn := &refSnapshot{items: make(map[string][]byte)}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for k, e := range sh.items {
			sn.items[k] = append([]byte(nil), e.value...)
		}
		sh.mu.Unlock()
	}
	return sn
}

func (sn *refSnapshot) fork() *refFork {
	return &refFork{base: sn, overlay: make(map[string][]byte)}
}

type refFork struct {
	mu           sync.Mutex
	base         *refSnapshot
	overlay      map[string][]byte
	hits, misses uint64
}

func (f *refFork) visible(key string) ([]byte, bool) {
	if v, ok := f.overlay[key]; ok {
		return v, true
	}
	v, ok := f.base.items[key]
	return v, ok
}

func (f *refFork) valueSize(key string) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.visible(key)
	if !ok {
		f.misses++
		return 0, ErrNotFound
	}
	f.hits++
	return len(v), nil
}

func (f *refFork) setShared(key string, value []byte) error {
	if len(value) > MaxValueSize {
		return ErrTooLarge
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.overlay[key] = value
	return nil
}

func (f *refFork) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.overlay)
}

func (f *refFork) stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{Hits: f.hits, Misses: f.misses}
}
