package store_test

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/store"
)

// The pool reads a missed page into the frame the evicted one left, so a
// *store.Page kept past its Unpin comes to show some other page. The B+-tree
// is the pool's one caller; this drives its whole surface — inserts, deletes,
// copy-on-write, rollback, then every read path on a pool of a single frame —
// with store.PoisonUnpinned on, under which a page moves to a fresh frame
// and its old one is filled with 0xA5 the moment its last pin is dropped.
// Whatever the tree read through a page it no longer pinned would be 0xA5
// garbage: a wrong entry, a wild child id, an entry count of 42405.

func poisonKV(i int) btree.KV { return btree.KV{Key: uint64(i) * 3, UID: uint32(i % 5)} }

func poisonPayload(kv btree.KV, gen uint32) (p btree.Payload) {
	binary.LittleEndian.PutUint64(p[:], kv.Key)
	binary.LittleEndian.PutUint32(p[8:], kv.UID)
	binary.LittleEndian.PutUint32(p[12:], gen)
	return p
}

func TestNothingReadsAnUnpinnedPage(t *testing.T) {
	rng := rand.New(rand.NewSource(1904))
	disk := store.NewMemDisk()
	// Eight frames: a rebalance pins two siblings while it allocates a
	// third page, and Check keeps the path from the root pinned.
	pool := store.NewBufferPool(disk, 8)
	pool.PoisonUnpinned()
	tr, err := btree.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	model := map[btree.KV]btree.Payload{}
	insert := func(i int, gen uint32) {
		t.Helper()
		kv := poisonKV(i)
		if err := tr.Insert(kv, poisonPayload(kv, gen)); err != nil {
			t.Fatalf("Insert(%v): %v", kv, err)
		}
		model[kv] = poisonPayload(kv, gen)
	}
	remove := func(i int) {
		t.Helper()
		kv := poisonKV(i)
		_, had := model[kv]
		found, err := tr.Delete(kv)
		if err != nil || found != had {
			t.Fatalf("Delete(%v) = %v, %v; the model has it: %v", kv, found, err, had)
		}
		delete(model, kv)
	}
	check := func(when string) {
		t.Helper()
		if err := tr.Check(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if tr.Size() != len(model) {
			t.Fatalf("%s: %d entries, model %d", when, tr.Size(), len(model))
		}
		if n := pool.PinnedPages(); n != 0 {
			t.Fatalf("%s: %d pages left pinned", when, n)
		}
	}

	// Grow to three levels, churn in place, then under copy-on-write, then
	// through a transaction that is rolled back.
	const n = btree.LeafCapacity * (btree.InternalCapacity + 4)
	for _, i := range rng.Perm(n) {
		insert(i, 0)
	}
	if tr.Height() != 3 {
		t.Fatalf("height %d, want 3", tr.Height())
	}
	check("after the load")
	for i := 0; i < n/2; i++ {
		remove(rng.Intn(n))
		insert(rng.Intn(n), 1)
	}
	check("after churn in place")
	tr.Seal()
	for i := 0; i < n/4; i++ {
		remove(rng.Intn(n))
		insert(rng.Intn(n), 2)
	}
	for _, pid := range tr.TakeRetired() {
		if err := pool.Release(pid); err != nil {
			t.Fatal(err)
		}
	}
	check("after copy-on-write churn")
	txn := tr.Begin()
	for i := 0; i < 500; i++ {
		kv := poisonKV(rng.Intn(n))
		if _, err := tr.Delete(kv); err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(poisonKV(n+i), btree.Payload{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	check("after the rollback")
	// A contiguous delete leaves merged and barely filled leaves behind.
	for i := n / 3; i < 2*n/3; i++ {
		if _, ok := model[poisonKV(i)]; ok {
			remove(i)
		}
	}
	check("after the range delete")
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Every read path, on one frame: each page request evicts the page
	// before it.
	one := store.NewBufferPool(disk, 1)
	one.PoisonUnpinned()
	ro, err := btree.Open(one, tr.Meta())
	if err != nil {
		t.Fatal(err)
	}
	r := ro.Reader()
	var keys []btree.KV
	for kv := range model {
		keys = append(keys, kv)
	}
	slices.SortFunc(keys, func(a, b btree.KV) int { return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.UID, b.UID)) })
	for i := 0; i < n+10; i++ {
		kv := poisonKV(i)
		want, has := model[kv]
		got, found, err := r.Get(kv)
		if err != nil || found != has || got != want {
			t.Fatalf("Get(%v) = %v, %v, %v; model %v, %v", kv, got, found, err, want, has)
		}
	}
	type entry struct {
		kv btree.KV
		p  btree.Payload
	}
	expect := func(lo, hi btree.KV) (out []entry) {
		for _, kv := range keys {
			if !kv.Less(lo) && !hi.Less(kv) {
				out = append(out, entry{kv, model[kv]})
			}
		}
		return out
	}
	all := btree.KV{Key: ^uint64(0), UID: ^uint32(0)}
	for trial := 0; trial < 60; trial++ {
		lo, hi := poisonKV(rng.Intn(n)), poisonKV(rng.Intn(n))
		switch {
		case trial == 0:
			lo, hi = btree.KV{}, all
		case hi.Less(lo):
			lo, hi = hi, lo
		}
		want := expect(lo, hi)

		var got []entry
		nested := 0
		err := r.RangeScan(lo, hi, func(kv btree.KV, p btree.Payload) bool {
			got = append(got, entry{kv, p})
			if len(got)%37 == 0 { // a lookup from inside the scan takes the frame
				other := keys[rng.Intn(len(keys))]
				if p, ok, err := r.Get(other); err != nil || !ok || p != model[other] {
					t.Fatalf("Get(%v) inside RangeScan: %v, %v, %v", other, p, ok, err)
				}
				nested++
			}
			return true
		})
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("RangeScan(%v, %v): %d entries (%d nested lookups), %v; model %d", lo, hi, len(got), nested, err, len(want))
		}

		// ScanLeaves hands over whole leaves: the range's entries in order,
		// and around them only entries the tree really holds.
		got = got[:0]
		err = r.ScanLeaves(lo, hi, func(kv btree.KV, p btree.Payload) bool {
			if p != model[kv] {
				t.Fatalf("ScanLeaves(%v, %v) delivered %v with a payload the tree does not hold", lo, hi, kv)
			}
			if !kv.Less(lo) && !hi.Less(kv) {
				got = append(got, entry{kv, p})
			}
			return true
		})
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("ScanLeaves(%v, %v): %d entries in range, %v; model %d", lo, hi, len(got), err, len(want))
		}

		got = got[:0]
		c, err := r.Seek(lo)
		for ; err == nil && c.Valid() && !hi.Less(c.Key()); err = c.Next() {
			got = append(got, entry{c.Key(), c.Payload()})
		}
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("Seek(%v) then Next to %v: %d entries, %v; model %d", lo, hi, len(got), err, len(want))
		}
	}
	pages, err := r.WalkPages(0)
	if err != nil || len(pages) < r.LeafCount() {
		t.Fatalf("WalkPages: %d pages for %d leaves, %v", len(pages), r.LeafCount(), err)
	}
	if n := one.PinnedPages(); n != 0 {
		t.Fatalf("%d pages left pinned by the reads", n)
	}
}
