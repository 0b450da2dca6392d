// Package kvstore holds the key space the simulated Memcached service
// runs on: a frozen, rank-addressed table of preloaded value sizes and
// per-instance copy-on-write forks of it (snapshot.go). The service
// executes every GET and SET against its fork, so hits, misses and the
// stored value's size are genuine rather than assumed.
package kvstore

import "errors"

// ErrTooLarge reports a value over the item size limit.
var ErrTooLarge = errors.New("kvstore: value exceeds item size limit")

// MaxValueSize is the largest storable value, matching memcached's default
// 1 MiB item limit.
const MaxValueSize = 1 << 20

// Stats counts a fork's lookups.
type Stats struct {
	Hits, Misses uint64
}
