package btree

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/store"
)

// collect returns the full contents of the tree seen through r.
func collect(t *testing.T, r *Reader) []KV {
	t.Helper()
	var out []KV
	err := r.RangeScan(KV{}, KV{Key: ^uint64(0), UID: ^uint32(0)}, func(kv KV, _ Payload) bool {
		out = append(out, kv)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSealedReaderSurvivesMutations pins a Reader at a sealed version and
// verifies it returns bit-identical results while the tree churns through
// inserts and deletes — the property pinned snapshots are built on.
func TestSealedReaderSurvivesMutations(t *testing.T) {
	disk := store.NewMemDisk()
	pool := store.NewBufferPool(disk, 64)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 0, 3000)
	for i := 0; i < 3000; i++ {
		k := rng.Uint64() % 50_000
		keys = append(keys, k)
		if err := tr.Insert(KV{Key: k, UID: uint32(i)}, Payload{}); err != nil {
			t.Fatal(err)
		}
	}

	tr.Seal()
	pinned := tr.Reader()
	want := collect(t, pinned)

	// Churn: delete a third, insert replacements, delete more.
	for i, k := range keys {
		switch i % 3 {
		case 0:
			if _, err := tr.Delete(KV{Key: k, UID: uint32(i)}); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := tr.Insert(KV{Key: rng.Uint64() % 50_000, UID: uint32(10_000 + i)}, Payload{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("mutated tree invalid: %v", err)
	}

	got := collect(t, pinned)
	if len(got) != len(want) {
		t.Fatalf("pinned reader sees %d entries after churn, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pinned reader entry %d = %v, want %v", i, got[i], want[i])
		}
	}

	// Point reads through the pinned reader also see the old state.
	if _, found, _, err := pinned.Get(KV{Key: keys[0], UID: 0}); err != nil || !found {
		t.Fatalf("pinned Get(deleted key) = %v, %v; want found", found, err)
	}

	// Once the pinned reader is dropped, retired pages can be released and
	// the current tree must remain fully valid.
	for _, pid := range tr.TakeRetired() {
		if err := pool.Release(pid); err != nil {
			t.Fatal(err)
		}
	}
	tr.Unseal()
	if err := tr.Check(); err != nil {
		t.Fatalf("tree invalid after releasing retired pages: %v", err)
	}
}

// TestTxnRollbackRestoresTree verifies that Rollback restores the exact
// pre-transaction contents and releases every page the transaction
// allocated (no disk-space leak).
func TestTxnRollbackRestoresTree(t *testing.T) {
	disk := store.NewMemDisk()
	pool := store.NewBufferPool(disk, 64)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1500; i++ {
		if err := tr.Insert(KV{Key: rng.Uint64() % 20_000, UID: uint32(i)}, Payload{}); err != nil {
			t.Fatal(err)
		}
	}
	want := collect(t, tr.Reader())
	wantMeta := tr.Meta()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pagesBefore := disk.Stats().PagesAlive

	txn := tr.Begin()
	for i := 0; i < 800; i++ {
		if err := tr.Insert(KV{Key: rng.Uint64() % 20_000, UID: uint32(50_000 + i)}, Payload{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i += 2 {
		if _, err := tr.Delete(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}

	if tr.Meta() != wantMeta {
		t.Fatalf("meta after rollback = %+v, want %+v", tr.Meta(), wantMeta)
	}
	got := collect(t, tr.Reader())
	if len(got) != len(want) {
		t.Fatalf("rollback left %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("tree invalid after rollback: %v", err)
	}
	if alive := disk.Stats().PagesAlive; alive != pagesBefore {
		t.Fatalf("rollback leaked pages: %d alive, want %d", alive, pagesBefore)
	}
	if retired := tr.TakeRetired(); len(retired) != 0 {
		t.Fatalf("rollback left %d retired pages", len(retired))
	}
}

// TestTxnCommitKeepsChanges is the positive counterpart: after Commit the
// new contents stand and the superseded pages can be released.
func TestTxnCommitKeepsChanges(t *testing.T) {
	pool := store.NewBufferPool(store.NewMemDisk(), 64)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		if err := tr.Insert(KV{Key: i}, Payload{}); err != nil {
			t.Fatal(err)
		}
	}
	txn := tr.Begin()
	for i := uint64(1000); i < 1500; i++ {
		if err := tr.Insert(KV{Key: i}, Payload{}); err != nil {
			t.Fatal(err)
		}
	}
	txn.Commit()
	for _, pid := range tr.TakeRetired() {
		if err := pool.Release(pid); err != nil {
			t.Fatal(err)
		}
	}
	tr.Unseal()
	if tr.Size() != 1500 {
		t.Fatalf("size after commit = %d, want 1500", tr.Size())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestScanCtxCancellation verifies ScanLeavesOn stops with ctx.Err() once
// the context is canceled mid-scan, or before any page with a context
// canceled already.
func TestScanCtxCancellation(t *testing.T) {
	pool := store.NewBufferPool(store.NewMemDisk(), 64)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		if err := tr.Insert(KV{Key: i}, Payload{}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	var c Cursor
	err = tr.Reader().ScanLeavesOn(ctx, &c, KV{}, KV{Key: ^uint64(0), UID: ^uint32(0)}, func(KV, Payload) bool {
		seen++
		if seen == 1 {
			cancel()
		}
		return true
	})
	if err != context.Canceled {
		t.Fatalf("ScanLeavesOn error = %v, want context.Canceled", err)
	}
	if seen > LeafCapacity {
		t.Fatalf("leaf scan continued %d entries past cancellation", seen)
	}
	// An already-canceled context stops the scan before any page fetch.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if err := tr.Reader().ScanLeavesOn(pre, &c, KV{}, KV{Key: 100}, func(KV, Payload) bool {
		t.Fatal("callback despite pre-canceled context")
		return false
	}); err != context.Canceled {
		t.Fatalf("pre-canceled scan error = %v", err)
	}
}
