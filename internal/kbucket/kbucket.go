// Package kbucket implements the Kademlia routing table of §2.3: the
// 256-bit SHA256 key space is split into i = 256 buckets of k = 20
// nodes each, ordered by XOR distance from the local peer.
package kbucket

import (
	"bytes"
	"crypto/sha256"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/peer"
)

// Defaults from §2.3.
const (
	DefaultK   = 20  // bucket size / replication factor
	NumBuckets = 256 // one per bit of the SHA256 key space
	KeyLen     = 32  // bytes
)

// Key is a 256-bit DHT key.
type Key [KeyLen]byte

// KeyForPeer derives the DHT key of a peer: SHA256 of its binary PeerID.
func KeyForPeer(id peer.ID) Key {
	// A stack buffer holds any ordinary PeerID, so hashing one does not
	// allocate; a []byte(id) conversion would, past 32 bytes.
	var buf [64]byte
	return sha256.Sum256(append(buf[:0], id...))
}

// KeyForBytes derives the DHT key for arbitrary bytes (e.g. a binary
// CID): CIDs and PeerIDs share the key space via SHA256 (§2.3).
func KeyForBytes(b []byte) Key {
	return sha256.Sum256(b)
}

// XOR returns the Kademlia distance between two keys.
func XOR(a, b Key) Key {
	var out Key
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// Less reports whether distance a is smaller than distance b.
func Less(a, b Key) bool { return bytes.Compare(a[:], b[:]) < 0 }

// CommonPrefixLen returns the number of leading bits a and b share,
// which selects the bucket index.
func CommonPrefixLen(a, b Key) int {
	for i := 0; i < KeyLen; i++ {
		if x := a[i] ^ b[i]; x != 0 {
			return i*8 + bits.LeadingZeros8(x)
		}
	}
	return NumBuckets
}

// Entry is one routing-table slot.
type Entry struct {
	ID peer.ID
}

// Table is a thread-safe Kademlia routing table.
type Table struct {
	mu      sync.RWMutex
	self    Key
	selfID  peer.ID
	k       int
	buckets [NumBuckets][]Entry // index = common prefix length; LRU order, front = oldest
}

// NewTable creates a routing table for the local peer. k <= 0 selects
// the default of 20.
func NewTable(self peer.ID, k int) *Table {
	if k <= 0 {
		k = DefaultK
	}
	return &Table{self: KeyForPeer(self), selfID: self, k: k}
}

// K returns the bucket size.
func (t *Table) K() int { return t.k }

func (t *Table) bucketIndex(key Key) int {
	cpl := CommonPrefixLen(t.self, key)
	if cpl >= NumBuckets {
		cpl = NumBuckets - 1
	}
	return cpl
}

// Add inserts a peer, returning true if it was added or refreshed.
// Full buckets reject newcomers (plain Kademlia keeps long-lived peers,
// which §5.3's churn analysis motivates). The local peer is never added.
func (t *Table) Add(id peer.ID) bool {
	if id == t.selfID {
		return false
	}
	key := KeyForPeer(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := t.bucketIndex(key)
	bucket := t.buckets[idx]
	for i, e := range bucket {
		if e.ID == id {
			// Move to back: most recently seen.
			copy(bucket[i:], bucket[i+1:])
			bucket[len(bucket)-1] = e
			return true
		}
	}
	if len(bucket) >= t.k {
		return false
	}
	t.buckets[idx] = append(bucket, Entry{ID: id})
	return true
}

// Remove deletes a peer (e.g. after a failed dial).
func (t *Table) Remove(id peer.ID) {
	key := KeyForPeer(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := t.bucketIndex(key)
	bucket := t.buckets[idx]
	for i, e := range bucket {
		if e.ID == id {
			t.buckets[idx] = append(bucket[:i:i], bucket[i+1:]...)
			return
		}
	}
}

// Contains reports whether id is in the table.
func (t *Table) Contains(id peer.ID) bool {
	key := KeyForPeer(id)
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, e := range t.buckets[t.bucketIndex(key)] {
		if e.ID == id {
			return true
		}
	}
	return false
}

// Len returns the total number of peers in the table.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, b := range t.buckets {
		n += len(b)
	}
	return n
}

// NearestPeers returns up to count peers closest to key by XOR
// distance, closest first.
//
// The buckets order the answer without hashing the whole table. Let c
// be the bucket index of key. A peer in bucket i < c first differs from
// key at bit i; a peer in a bucket deeper than c first differs at bit c;
// a peer in bucket c first differs further down. So every peer of
// bucket c is closer than every peer of the deeper buckets, which are
// all closer than bucket c-1, then c-2, … 0. Buckets are read in that
// order until count peers are collected, and only those are sorted.
func (t *Table) NearestPeers(key Key, count int) []peer.ID {
	if count <= 0 {
		return []peer.ID{}
	}
	c := t.bucketIndex(key)
	ids := make([]peer.ID, 0, min(count, 2*t.k))
	t.mu.RLock()
	ids = appendIDs(ids, t.buckets[c])
	if len(ids) < count {
		for _, b := range t.buckets[c+1:] {
			ids = appendIDs(ids, b)
		}
	}
	for i := c - 1; i >= 0 && len(ids) < count; i-- {
		ids = appendIDs(ids, t.buckets[i])
	}
	t.mu.RUnlock()
	SortByDistance(ids, key)
	if len(ids) > count {
		ids = ids[:count]
	}
	return ids
}

func appendIDs(ids []peer.ID, bucket []Entry) []peer.ID {
	for _, e := range bucket {
		ids = append(ids, e.ID)
	}
	return ids
}

// AllPeers returns every peer in the table. The crawler uses this to
// enumerate k-buckets (§4.1).
func (t *Table) AllPeers() []peer.ID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var all []peer.ID
	for _, b := range t.buckets {
		all = appendIDs(all, b)
	}
	return all
}

// BucketSizes returns the occupancy of each non-empty bucket keyed by
// common-prefix length, for diagnostics.
func (t *Table) BucketSizes() map[int]int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[int]int)
	for i, b := range t.buckets {
		if len(b) > 0 {
			out[i] = len(b)
		}
	}
	return out
}

// byDist pairs a peer with its distance to a query key, so a sort
// hashes each peer once rather than on every comparison.
type byDist struct {
	dist Key
	id   peer.ID
}

// SortByDistance sorts ids in place by XOR distance from key.
func SortByDistance(ids []peer.ID, key Key) {
	if len(ids) < 2 {
		return
	}
	buf := make([]byDist, len(ids))
	for i, id := range ids {
		buf[i] = byDist{XOR(KeyForPeer(id), key), id}
	}
	slices.SortFunc(buf, func(a, b byDist) int { return bytes.Compare(a.dist[:], b.dist[:]) })
	for i := range buf {
		ids[i] = buf[i].id
	}
}

// Closer reports whether a is strictly closer to key than b.
func Closer(a, b peer.ID, key Key) bool {
	return Less(XOR(KeyForPeer(a), key), XOR(KeyForPeer(b), key))
}
