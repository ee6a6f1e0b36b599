package btree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/store"
)

func newTestTree(t testing.TB, bufPages int) *Tree {
	t.Helper()
	tree, err := New(store.NewBufferPool(store.NewMemDisk(), bufPages))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tree
}

func payloadFor(kv KV) Payload {
	var p Payload
	p[0] = byte(kv.Key)
	p[1] = byte(kv.Key >> 8)
	p[2] = byte(kv.UID)
	p[3] = byte(kv.UID >> 8)
	return p
}

func TestEmptyTree(t *testing.T) {
	tree := newTestTree(t, 8)
	if tree.Size() != 0 || tree.Height() != 1 || tree.LeafCount() != 1 {
		t.Fatalf("empty tree: size=%d height=%d leaves=%d", tree.Size(), tree.Height(), tree.LeafCount())
	}
	if _, ok, err := tree.Get(KV{1, 1}); err != nil || ok {
		t.Fatalf("Get on empty tree: ok=%v err=%v", ok, err)
	}
	if found, err := tree.Delete(KV{1, 1}); err != nil || found {
		t.Fatalf("Delete on empty tree: found=%v err=%v", found, err)
	}
	if err := tree.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestInsertGetSingleLeaf(t *testing.T) {
	tree := newTestTree(t, 8)
	kvs := []KV{{5, 0}, {1, 0}, {3, 2}, {3, 1}, {9, 7}}
	for _, kv := range kvs {
		if err := tree.Insert(kv, payloadFor(kv)); err != nil {
			t.Fatalf("Insert(%v): %v", kv, err)
		}
	}
	for _, kv := range kvs {
		p, ok, err := tree.Get(kv)
		if err != nil || !ok {
			t.Fatalf("Get(%v): ok=%v err=%v", kv, ok, err)
		}
		if p != payloadFor(kv) {
			t.Fatalf("Get(%v) wrong payload", kv)
		}
	}
	if _, ok, _ := tree.Get(KV{3, 3}); ok {
		t.Fatalf("Get of absent uid succeeded")
	}
	if err := tree.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestInsertReplaces(t *testing.T) {
	tree := newTestTree(t, 8)
	kv := KV{42, 7}
	_ = tree.Insert(kv, payloadFor(kv))
	var other Payload
	other[0] = 0xFF
	if err := tree.Insert(kv, other); err != nil {
		t.Fatalf("replacing insert: %v", err)
	}
	if tree.Size() != 1 {
		t.Fatalf("Size = %d after replace, want 1", tree.Size())
	}
	p, ok, _ := tree.Get(kv)
	if !ok || p != other {
		t.Fatalf("replace did not stick")
	}
}

func TestSplitsGrowHeight(t *testing.T) {
	tree := newTestTree(t, 64)
	n := LeafCapacity*3 + 5
	for i := 0; i < n; i++ {
		kv := KV{Key: uint64(i), UID: uint32(i)}
		if err := tree.Insert(kv, payloadFor(kv)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if tree.Height() < 2 {
		t.Fatalf("height = %d after %d inserts, want >= 2", tree.Height(), n)
	}
	if tree.Size() != n {
		t.Fatalf("Size = %d, want %d", tree.Size(), n)
	}
	if err := tree.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	for i := 0; i < n; i++ {
		kv := KV{Key: uint64(i), UID: uint32(i)}
		if _, ok, _ := tree.Get(kv); !ok {
			t.Fatalf("entry %d lost after splits", i)
		}
	}
}

func TestThreeLevelTree(t *testing.T) {
	tree := newTestTree(t, 64)
	// Enough entries to force an internal split (height 3).
	n := LeafCapacity * (InternalCapacity + 2)
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(n)
	for _, i := range perm {
		kv := KV{Key: uint64(i), UID: 0}
		if err := tree.Insert(kv, payloadFor(kv)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if tree.Height() < 3 {
		t.Fatalf("height = %d, want >= 3", tree.Height())
	}
	if err := tree.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// Spot-check membership.
	for i := 0; i < n; i += 997 {
		if _, ok, _ := tree.Get(KV{uint64(i), 0}); !ok {
			t.Fatalf("entry %d missing", i)
		}
	}
}

func TestDeleteSimple(t *testing.T) {
	tree := newTestTree(t, 8)
	for i := 0; i < 10; i++ {
		kv := KV{uint64(i), 0}
		_ = tree.Insert(kv, payloadFor(kv))
	}
	found, err := tree.Delete(KV{5, 0})
	if err != nil || !found {
		t.Fatalf("Delete: found=%v err=%v", found, err)
	}
	if _, ok, _ := tree.Get(KV{5, 0}); ok {
		t.Fatalf("deleted entry still present")
	}
	if tree.Size() != 9 {
		t.Fatalf("Size = %d, want 9", tree.Size())
	}
	found, _ = tree.Delete(KV{5, 0})
	if found {
		t.Fatalf("double delete reported found")
	}
}

func TestDeleteEverythingCollapsesRoot(t *testing.T) {
	tree := newTestTree(t, 64)
	n := LeafCapacity * 5
	for i := 0; i < n; i++ {
		kv := KV{uint64(i), 0}
		_ = tree.Insert(kv, payloadFor(kv))
	}
	if tree.Height() < 2 {
		t.Fatalf("setup: height %d", tree.Height())
	}
	for i := 0; i < n; i++ {
		found, err := tree.Delete(KV{uint64(i), 0})
		if err != nil || !found {
			t.Fatalf("Delete %d: found=%v err=%v", i, found, err)
		}
	}
	if tree.Size() != 0 {
		t.Fatalf("Size = %d after deleting all", tree.Size())
	}
	if tree.Height() != 1 || tree.LeafCount() != 1 {
		t.Fatalf("tree did not collapse: height=%d leaves=%d", tree.Height(), tree.LeafCount())
	}
	if err := tree.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// modelTest drives the tree and a reference map with the same random
// operations and verifies they agree.
func modelTest(t *testing.T, seed int64, ops, keySpace int, bufPages int) {
	t.Helper()
	tree := newTestTree(t, bufPages)
	model := make(map[KV]Payload)
	rng := rand.New(rand.NewSource(seed))

	for i := 0; i < ops; i++ {
		kv := KV{Key: uint64(rng.Intn(keySpace)), UID: uint32(rng.Intn(4))}
		switch rng.Intn(3) {
		case 0, 1: // insert biased 2:1 so the tree grows
			p := payloadFor(kv)
			p[4] = byte(i)
			if err := tree.Insert(kv, p); err != nil {
				t.Fatalf("op %d Insert(%v): %v", i, kv, err)
			}
			model[kv] = p
		case 2:
			found, err := tree.Delete(kv)
			if err != nil {
				t.Fatalf("op %d Delete(%v): %v", i, kv, err)
			}
			if _, want := model[kv]; found != want {
				t.Fatalf("op %d Delete(%v) found=%v want %v", i, kv, found, want)
			}
			delete(model, kv)
		}
		if i%500 == 499 {
			if err := tree.Check(); err != nil {
				t.Fatalf("op %d Check: %v", i, err)
			}
		}
	}

	if tree.Size() != len(model) {
		t.Fatalf("Size = %d, model has %d", tree.Size(), len(model))
	}
	if err := tree.Check(); err != nil {
		t.Fatalf("final Check: %v", err)
	}
	for kv, want := range model {
		got, ok, err := tree.Get(kv)
		if err != nil || !ok {
			t.Fatalf("Get(%v): ok=%v err=%v", kv, ok, err)
		}
		if got != want {
			t.Fatalf("Get(%v) payload mismatch", kv)
		}
	}
	// Full scan agrees with the sorted model.
	var wantKeys []KV
	for kv := range model {
		wantKeys = append(wantKeys, kv)
	}
	sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i].Less(wantKeys[j]) })
	var gotKeys []KV
	err := tree.RangeScan(KV{0, 0}, KV{^uint64(0), ^uint32(0)}, func(kv KV, _ Payload) bool {
		gotKeys = append(gotKeys, kv)
		return true
	})
	if err != nil {
		t.Fatalf("RangeScan: %v", err)
	}
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("scan yields %d keys, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range gotKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("scan key %d = %v, want %v", i, gotKeys[i], wantKeys[i])
		}
	}
}

func TestModelSmallKeySpace(t *testing.T)  { modelTest(t, 1, 4000, 200, 16) }
func TestModelMediumKeySpace(t *testing.T) { modelTest(t, 2, 6000, 5000, 32) }
func TestModelLargeKeySpace(t *testing.T)  { modelTest(t, 3, 8000, 1_000_000, 50) }
func TestModelTinyBuffer(t *testing.T)     { modelTest(t, 4, 3000, 2000, 8) }

func TestModelDeleteHeavy(t *testing.T) {
	tree := newTestTree(t, 32)
	model := make(map[KV]Payload)
	rng := rand.New(rand.NewSource(99))
	// Build up, then delete down to empty in random order.
	var kvs []KV
	for i := 0; i < 3000; i++ {
		kv := KV{Key: uint64(rng.Intn(1 << 30)), UID: uint32(i)}
		_ = tree.Insert(kv, payloadFor(kv))
		model[kv] = payloadFor(kv)
		kvs = append(kvs, kv)
	}
	rng.Shuffle(len(kvs), func(i, j int) { kvs[i], kvs[j] = kvs[j], kvs[i] })
	for i, kv := range kvs {
		found, err := tree.Delete(kv)
		if err != nil || !found {
			t.Fatalf("Delete %d (%v): found=%v err=%v", i, kv, found, err)
		}
		if i%250 == 249 {
			if err := tree.Check(); err != nil {
				t.Fatalf("Check after %d deletes: %v", i+1, err)
			}
		}
	}
	if tree.Size() != 0 {
		t.Fatalf("Size = %d", tree.Size())
	}
}

func TestCursorSeekBetweenKeys(t *testing.T) {
	tree := newTestTree(t, 16)
	for _, k := range []uint64{10, 20, 30, 40} {
		kv := KV{k, 0}
		_ = tree.Insert(kv, payloadFor(kv))
	}
	c, err := tree.Seek(KV{25, 0})
	if err != nil {
		t.Fatalf("Seek: %v", err)
	}
	if !c.Valid() || c.Key() != (KV{30, 0}) {
		t.Fatalf("Seek(25) at %v, want (30,0)", c.Key())
	}
	// Seek past the end.
	c, err = tree.Seek(KV{100, 0})
	if err != nil {
		t.Fatalf("Seek: %v", err)
	}
	if c.Valid() {
		t.Fatalf("Seek past end is valid at %v", c.Key())
	}
}

func TestCursorCrossesLeaves(t *testing.T) {
	tree := newTestTree(t, 64)
	n := LeafCapacity * 4
	for i := 0; i < n; i++ {
		kv := KV{uint64(i * 2), 0}
		_ = tree.Insert(kv, payloadFor(kv))
	}
	c, err := tree.Seek(KV{0, 0})
	if err != nil {
		t.Fatalf("Seek: %v", err)
	}
	count := 0
	var prev KV
	for c.Valid() {
		if count > 0 && !prev.Less(c.Key()) {
			t.Fatalf("cursor out of order at %d", count)
		}
		prev = c.Key()
		count++
		if err := c.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	if count != n {
		t.Fatalf("cursor saw %d entries, want %d", count, n)
	}
}

func TestRangeScanBounds(t *testing.T) {
	tree := newTestTree(t, 16)
	for i := 0; i < 100; i++ {
		kv := KV{uint64(i), 0}
		_ = tree.Insert(kv, payloadFor(kv))
	}
	var got []uint64
	_ = tree.RangeScan(KV{10, 0}, KV{20, 0}, func(kv KV, _ Payload) bool {
		got = append(got, kv.Key)
		return true
	})
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Fatalf("RangeScan[10,20] = %v", got)
	}
	// Empty range.
	got = nil
	_ = tree.RangeScan(KV{20, 0}, KV{10, 0}, func(kv KV, _ Payload) bool {
		got = append(got, kv.Key)
		return true
	})
	if len(got) != 0 {
		t.Fatalf("inverted RangeScan returned %v", got)
	}
	// Early stop.
	got = nil
	_ = tree.RangeScan(KV{0, 0}, KV{99, 0}, func(kv KV, _ Payload) bool {
		got = append(got, kv.Key)
		return len(got) < 5
	})
	if len(got) != 5 {
		t.Fatalf("early stop returned %d entries", len(got))
	}
}

func TestDuplicateKeysDistinctUIDs(t *testing.T) {
	tree := newTestTree(t, 32)
	const key = 77
	n := LeafCapacity + 10 // force duplicates to span leaves
	for i := 0; i < n; i++ {
		kv := KV{key, uint32(i)}
		_ = tree.Insert(kv, payloadFor(kv))
	}
	if err := tree.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	count := 0
	_ = tree.RangeScan(KV{key, 0}, KV{key, ^uint32(0)}, func(kv KV, _ Payload) bool {
		count++
		return true
	})
	if count != n {
		t.Fatalf("scan over duplicate key saw %d, want %d", count, n)
	}
}

func TestNoPinLeaks(t *testing.T) {
	tree := newTestTree(t, 16)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		kv := KV{uint64(rng.Intn(500)), 0}
		switch rng.Intn(3) {
		case 0, 1:
			_ = tree.Insert(kv, payloadFor(kv))
		case 2:
			_, _ = tree.Delete(kv)
		}
	}
	_, _, _ = tree.Get(KV{1, 0})
	_ = tree.RangeScan(KV{0, 0}, KV{100, 0}, func(KV, Payload) bool { return true })
	if n := tree.Pool().PinnedPages(); n != 0 {
		t.Fatalf("pin leak: %d pages still pinned", n)
	}
}

func TestIOAccounting(t *testing.T) {
	tree := newTestTree(t, 50)
	n := LeafCapacity * 20
	for i := 0; i < n; i++ {
		kv := KV{uint64(i), 0}
		_ = tree.Insert(kv, payloadFor(kv))
	}
	// Cold scan: drop the buffer and count misses.
	if err := tree.Pool().DropAll(); err != nil {
		t.Fatalf("DropAll: %v", err)
	}
	tree.Pool().ResetStats()
	_ = tree.RangeScan(KV{0, 0}, KV{^uint64(0), 0}, func(KV, Payload) bool { return true })
	s := tree.Pool().Stats()
	// A full scan must read at least every leaf once, and not wildly more.
	if s.Misses < uint64(tree.LeafCount()) {
		t.Fatalf("cold scan misses=%d < leaves=%d", s.Misses, tree.LeafCount())
	}
	if s.Misses > uint64(tree.LeafCount()+tree.Height()+2) {
		t.Fatalf("cold scan misses=%d, leaves=%d: too many", s.Misses, tree.LeafCount())
	}
}

// BenchmarkUpsertChurn is the write kernel at a steady state: a tree of
// 20 000 entries behind a 50-page pool, where each operation deletes one
// entry and inserts another under a new key — the shape of an Upsert — so
// the tree keeps its size and the reading does not depend on b.N.
func BenchmarkUpsertChurn(b *testing.B) {
	const n = 20_000
	tree := newTestTree(b, 50)
	rng := rand.New(rand.NewSource(1))
	live := make([]KV, n)
	for i := range live {
		live[i] = KV{rng.Uint64(), uint32(i)}
		if err := tree.Insert(live[i], payloadFor(live[i])); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(n)
		if found, err := tree.Delete(live[j]); err != nil || !found {
			b.Fatalf("Delete(%v) = %v, %v", live[j], found, err)
		}
		live[j] = KV{rng.Uint64(), uint32(j)}
		if err := tree.Insert(live[j], payloadFor(live[j])); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	tree := newTestTree(b, 256)
	for i := 0; i < 100_000; i++ {
		_ = tree.Insert(KV{uint64(i), 0}, Payload{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = tree.Get(KV{uint64(i % 100_000), 0})
	}
}
