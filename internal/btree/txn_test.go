package btree

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/store"
)

// TestTxnRollbackUnderPersistentFault fails a 300-operation batch on a
// 3 000-entry tree behind a 16-page pool with a disk fault that, once it
// fires, fails every later operation. Rollback must restore the tree
// exactly from memory: a page the batch edited in place and the pool then
// evicted could not be read back to restore it. No page stays pinned.
func TestTxnRollbackUnderPersistentFault(t *testing.T) {
	fd := &store.FaultDisk{Inner: store.NewMemDisk(), FailAfter: 1 << 30}
	pool := store.NewBufferPool(fd, 16)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(KV{Key: rng.Uint64() % 100_000, UID: uint32(i)}, payloadFor(KV{UID: uint32(i)})); err != nil {
			t.Fatal(err)
		}
	}
	want := entries(t, tr)
	wantMeta := tr.Meta()

	for trial := 0; trial < 200; trial++ {
		fd.FailAfter = 20 + rng.Intn(400)
		txn := tr.Begin()
		var batchErr error
		for i := 0; i < 300 && batchErr == nil; i++ {
			if i%3 == 0 {
				_, batchErr = tr.Delete(want[rng.Intn(len(want))].KV)
			} else {
				kv := KV{Key: rng.Uint64() % 100_000, UID: uint32(10_000 + i)}
				batchErr = tr.Insert(kv, payloadFor(kv))
			}
		}
		if batchErr == nil {
			t.Fatalf("trial %d: the fault never fired", trial)
		}
		_ = txn.Rollback() // a free may fail under the fault: that leaks a page
		if n := pool.PinnedPages(); n != 0 {
			t.Fatalf("trial %d: %d pages pinned after rollback", trial, n)
		}
		fd.FailAfter = 1 << 30
		if tr.Meta() != wantMeta {
			t.Fatalf("trial %d: meta after rollback %+v, want %+v", trial, tr.Meta(), wantMeta)
		}
		if got := entries(t, tr); !slices.Equal(got, want) {
			t.Fatalf("trial %d: rollback left %d entries, want the %d before the batch", trial, len(got), len(want))
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("trial %d: tree invalid after rollback: %v", trial, err)
		}
	}
}

// entries returns every entry of the tree with its payload.
func entries(t *testing.T, tr *Tree) []Item {
	t.Helper()
	var out []Item
	err := tr.RangeScan(KV{}, KV{Key: ^uint64(0), UID: ^uint32(0)}, func(kv KV, p Payload) bool {
		out = append(out, Item{KV: kv, Payload: p})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTxnSecondBatchEditsInPlace: after a seal, a batch copies the pages
// it edits once; a second batch over the same leaves finds them fresh and
// edits them in place, retiring and allocating nothing.
func TestTxnSecondBatchEditsInPlace(t *testing.T) {
	disk := store.NewMemDisk()
	pool := store.NewBufferPool(disk, 64)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		if err := tr.Insert(KV{Key: i * 10}, Payload{}); err != nil {
			t.Fatal(err)
		}
	}
	tr.Seal() // as a snapshot or checkpoint does
	batch := func(tag byte) (retired int, allocs uint64) {
		before := disk.Stats().Allocs
		txn := tr.Begin()
		for i := uint64(500); i < 560; i++ {
			if err := tr.Insert(KV{Key: i * 10}, Payload{tag}); err != nil {
				t.Fatal(err)
			}
		}
		txn.Commit()
		return len(tr.TakeRetired()), disk.Stats().Allocs - before
	}
	if retired, allocs := batch(1); retired == 0 || allocs == 0 {
		t.Fatalf("first batch after the seal retired %d pages and allocated %d: it should copy its paths", retired, allocs)
	}
	if retired, allocs := batch(2); retired != 0 || allocs != 0 {
		t.Fatalf("second batch retired %d pages and allocated %d, want none", retired, allocs)
	}
	for i := uint64(500); i < 560; i++ {
		if p, ok, err := tr.Get(KV{Key: i * 10}); err != nil || !ok || p[0] != 2 {
			t.Fatalf("entry %d after the second batch: %v %v %v", i*10, p[0], ok, err)
		}
	}
	if n := pool.PinnedPages(); n != 0 {
		t.Fatalf("%d pages pinned after the batches", n)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}
