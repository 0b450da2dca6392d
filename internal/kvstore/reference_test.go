package kvstore

import "sync"

// Reference model: the string-keyed copy-on-write fork that the rank
// table replaced, kept for differential tests. Its base is a map of
// deep-copied values and its overlay a map keyed by string; it keeps
// the old Set/ValueSize/Reset/Stats semantics, minus TTL, which no
// caller of the fork ever set.

type refSnapshot struct {
	items map[string][]byte
}

// refSnapshotOf freezes a preload the way the string-keyed store did:
// every value is deep-copied.
func refSnapshotOf(preload map[string][]byte) *refSnapshot {
	sn := &refSnapshot{items: make(map[string][]byte, len(preload))}
	for k, v := range preload {
		sn.items[k] = append([]byte(nil), v...)
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

func (f *refFork) valueSize(key string) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.visible(key)
	if !ok {
		f.misses++
		return 0, false
	}
	f.hits++
	return len(v), true
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
