package kbucket

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/peer"
)

func newPeers(n int, seed int64) []peer.ID {
	rng := rand.New(rand.NewSource(seed))
	out := make([]peer.ID, n)
	for i := range out {
		out[i] = peer.MustNewIdentity(rng).ID
	}
	return out
}

func TestXORProperties(t *testing.T) {
	f := func(a, b [32]byte) bool {
		ka, kb := Key(a), Key(b)
		// Symmetry and identity.
		if XOR(ka, kb) != XOR(kb, ka) {
			return false
		}
		return XOR(ka, ka) == Key{}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommonPrefixLen(t *testing.T) {
	a := Key{}
	b := Key{}
	if CommonPrefixLen(a, b) != 256 {
		t.Error("identical keys should share 256 bits")
	}
	b[0] = 0x80
	if got := CommonPrefixLen(a, b); got != 0 {
		t.Errorf("first-bit difference: cpl = %d", got)
	}
	b[0] = 0x01
	if got := CommonPrefixLen(a, b); got != 7 {
		t.Errorf("eighth-bit difference: cpl = %d", got)
	}
	b[0] = 0
	b[5] = 0x10
	if got := CommonPrefixLen(a, b); got != 5*8+3 {
		t.Errorf("cpl = %d, want 43", got)
	}
}

func TestAddAndContains(t *testing.T) {
	peers := newPeers(10, 1)
	table := NewTable(peers[0], 20)
	for _, p := range peers[1:] {
		if !table.Add(p) {
			t.Errorf("Add(%s) rejected", p.Short())
		}
	}
	if table.Len() != 9 {
		t.Errorf("Len = %d, want 9", table.Len())
	}
	for _, p := range peers[1:] {
		if !table.Contains(p) {
			t.Errorf("Contains(%s) = false", p.Short())
		}
	}
	if table.Add(peers[0]) {
		t.Error("table must not add the local peer")
	}
	if table.Contains(peers[0]) {
		t.Error("local peer must not appear")
	}
}

func TestAddIdempotent(t *testing.T) {
	peers := newPeers(3, 2)
	table := NewTable(peers[0], 20)
	table.Add(peers[1])
	table.Add(peers[1])
	if table.Len() != 1 {
		t.Errorf("duplicate Add should not grow the table: %d", table.Len())
	}
}

func TestBucketCapacity(t *testing.T) {
	// With k=2, each bucket holds at most 2 peers.
	peers := newPeers(200, 3)
	table := NewTable(peers[0], 2)
	for _, p := range peers[1:] {
		table.Add(p)
	}
	for cpl, size := range table.BucketSizes() {
		if size > 2 {
			t.Errorf("bucket %d has %d entries, cap 2", cpl, size)
		}
	}
}

func TestRemove(t *testing.T) {
	peers := newPeers(5, 4)
	table := NewTable(peers[0], 20)
	for _, p := range peers[1:] {
		table.Add(p)
	}
	table.Remove(peers[2])
	if table.Contains(peers[2]) {
		t.Error("Remove failed")
	}
	if table.Len() != 3 {
		t.Errorf("Len = %d, want 3", table.Len())
	}
	table.Remove(peers[2]) // removing twice is a no-op
}

func TestNearestPeersOrdering(t *testing.T) {
	peers := newPeers(60, 5)
	table := NewTable(peers[0], 20)
	for _, p := range peers[1:] {
		table.Add(p)
	}
	target := KeyForBytes([]byte("some cid"))
	nearest := table.NearestPeers(target, 10)
	if len(nearest) != 10 {
		t.Fatalf("NearestPeers returned %d", len(nearest))
	}
	for i := 1; i < len(nearest); i++ {
		if Closer(nearest[i], nearest[i-1], target) {
			t.Errorf("NearestPeers not sorted at %d", i)
		}
	}
	// Verify against a brute-force answer over the table's contents.
	all := table.AllPeers()
	SortByDistance(all, target)
	for i := 0; i < 10; i++ {
		if all[i] != nearest[i] {
			t.Errorf("NearestPeers[%d] = %s, brute force = %s", i, nearest[i].Short(), all[i].Short())
		}
	}
}

func TestNearestPeersFewerThanCount(t *testing.T) {
	peers := newPeers(4, 6)
	table := NewTable(peers[0], 20)
	for _, p := range peers[1:] {
		table.Add(p)
	}
	if got := table.NearestPeers(KeyForPeer(peers[1]), 50); len(got) != 3 {
		t.Errorf("NearestPeers = %d peers, want 3", len(got))
	}
}

func TestKeySpaceSharedBetweenCidsAndPeers(t *testing.T) {
	// §2.3: CIDs and PeerIDs are indexed by the SHA256 of their binary
	// representation, so both map into the same 256-bit key space.
	id := newPeers(1, 7)[0]
	if KeyForPeer(id) != KeyForBytes([]byte(id)) {
		t.Error("peer keys must be the SHA256 of the binary PeerID")
	}
}

func TestQuickNearestIsGlobalMinimum(t *testing.T) {
	peers := newPeers(40, 8)
	table := NewTable(peers[0], 20)
	for _, p := range peers[1:] {
		table.Add(p)
	}
	f := func(seed [8]byte) bool {
		target := KeyForBytes(seed[:])
		nearest := table.NearestPeers(target, 1)
		if len(nearest) != 1 {
			return false
		}
		for _, p := range table.AllPeers() {
			if Closer(p, nearest[0], target) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDefaultK(t *testing.T) {
	table := NewTable(newPeers(1, 9)[0], 0)
	if table.K() != DefaultK {
		t.Errorf("K = %d, want %d", table.K(), DefaultK)
	}
}

// oracleSort orders ids by XOR distance to key without going through
// the package's own distance code: SHA-256 of each ID, XOR, byte compare.
func oracleSort(ids []peer.ID, key Key) []peer.ID {
	type entry struct {
		dist [32]byte
		id   peer.ID
	}
	entries := make([]entry, len(ids))
	for i, id := range ids {
		entries[i] = entry{sha256.Sum256([]byte(id)), id}
		for j := range key {
			entries[i].dist[j] ^= key[j]
		}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].dist[:], entries[j].dist[:]) < 0
	})
	out := make([]peer.ID, len(entries))
	for i, e := range entries {
		out[i] = e.id
	}
	return out
}

// keyNear returns a key sharing exactly cpl leading bits with self, the
// rest random, so NearestPeers starts at bucket cpl.
func keyNear(self Key, cpl int, rng *rand.Rand) Key {
	var k Key
	rng.Read(k[:])
	for b := 0; b < cpl; b++ {
		mask := byte(0x80) >> (b % 8)
		k[b/8] = k[b/8]&^mask | self[b/8]&mask
	}
	mask := byte(0x80) >> (cpl % 8)
	k[cpl/8] = k[cpl/8]&^mask | ^self[cpl/8]&mask
	return k
}

func TestNearestPeersMatchesOracle(t *testing.T) {
	pool := newPeers(1200, 10)
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		self := pool[rng.Intn(len(pool))]
		k := 1 + rng.Intn(DefaultK)
		table := NewTable(self, k)
		for n := rng.Intn(601); n > 0; n-- {
			table.Add(pool[rng.Intn(len(pool))])
		}
		all := table.AllPeers()
		selfKey := KeyForPeer(self)
		keys := []Key{selfKey, KeyForBytes([]byte{byte(seed)})}
		for i := 0; i < 3; i++ {
			var random Key
			rng.Read(random[:])
			keys = append(keys, random, keyNear(selfKey, rng.Intn(NumBuckets), rng))
		}
		for _, cpl := range []int{0, 1, 2, 4, 7, 254, 255} {
			keys = append(keys, keyNear(selfKey, cpl, rng))
		}
		for _, key := range keys {
			want := oracleSort(all, key)
			for _, count := range []int{0, 1, 3, k, 2 * k, len(all) + 1} {
				got := table.NearestPeers(key, count)
				w := want[:min(count, len(want))]
				if len(got) != len(w) {
					t.Fatalf("seed %d cpl %d count %d: %d peers, oracle %d",
						seed, CommonPrefixLen(selfKey, key), count, len(got), len(w))
				}
				for i := range w {
					if got[i] != w[i] {
						t.Fatalf("seed %d cpl %d count %d: [%d] = %s, oracle %s",
							seed, CommonPrefixLen(selfKey, key), count, i, got[i].Short(), w[i].Short())
					}
				}
			}
		}
	}
}

func TestSortByDistanceMatchesOracleWithDuplicates(t *testing.T) {
	pool := newPeers(40, 11)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		ids := make([]peer.ID, rng.Intn(120))
		for i := range ids {
			ids[i] = pool[rng.Intn(len(pool))]
		}
		var key Key
		rng.Read(key[:])
		want := oracleSort(ids, key)
		SortByDistance(ids, key)
		for i := range want {
			if ids[i] != want[i] {
				t.Fatalf("trial %d: [%d] = %s, oracle %s", trial, i, ids[i].Short(), want[i].Short())
			}
		}
	}
}

func TestAddRefreshMovesPeerToBack(t *testing.T) {
	peers := newPeers(400, 13)
	table := NewTable(peers[0], 20)
	for _, p := range peers[1:] {
		table.Add(p)
	}
	// Pick a bucket with at least three peers and refresh its oldest one.
	idx := -1
	for i, n := range table.BucketSizes() {
		if n >= 3 && (idx < 0 || i < idx) {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("no bucket with three peers")
	}
	before := bucketIDs(table, idx)
	if !table.Add(before[0]) {
		t.Fatal("refresh of a known peer rejected")
	}
	after := bucketIDs(table, idx)
	want := append(append([]peer.ID(nil), before[1:]...), before[0])
	for i := range want {
		if after[i] != want[i] {
			t.Fatalf("bucket %d after refresh: [%d] = %s, want %s", idx, i, after[i].Short(), want[i].Short())
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { table.Add(before[1]) }); allocs != 0 {
		t.Errorf("refreshing a known peer allocates %.0f times", allocs)
	}
}

func bucketIDs(table *Table, idx int) []peer.ID {
	table.mu.RLock()
	defer table.mu.RUnlock()
	var ids []peer.ID
	for _, e := range table.buckets[idx] {
		ids = append(ids, e.ID)
	}
	return ids
}
