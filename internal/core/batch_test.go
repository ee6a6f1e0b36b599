package core

import (
	"math/rand"
	"testing"

	"repro/internal/bxtree"
	"repro/internal/motion"
	"repro/internal/store"
)

// TestApplyBatchBulkEquivalence: a bulk-built tree (ApplyBatch into an
// empty index, which takes the sorted bottom-up path) must answer every
// query exactly like a tree built by incremental Insert — including when
// the batch contains superseded duplicate upserts.
func TestApplyBatchBulkEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := buildFixture(t, rng, DefaultConfig(), 400, 4)

	fresh, err := New(f.cfg, store.NewBufferPool(store.NewMemDisk(), store.DefaultBufferPages), f.pol, f.assign)
	if err != nil {
		t.Fatal(err)
	}
	var ops []BatchOp
	// Stale positions first: the final upsert per user must win.
	for i, o := range f.objs {
		if i%3 == 0 {
			stale := o
			stale.X, stale.Y = rng.Float64()*1000, rng.Float64()*1000
			ops = append(ops, BatchOp{Kind: OpUpsert, Obj: stale})
		}
	}
	for _, o := range f.objs {
		ops = append(ops, BatchOp{Kind: OpUpsert, Obj: o})
	}
	if err := fresh.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}

	if fresh.Size() != f.tree.Size() {
		t.Fatalf("bulk tree size %d, incremental %d", fresh.Size(), f.tree.Size())
	}
	// Bulk build packs leaves denser than incremental splitting.
	if fresh.LeafCount() > f.tree.LeafCount() {
		t.Errorf("bulk tree has MORE leaves (%d) than incremental (%d)", fresh.LeafCount(), f.tree.LeafCount())
	}

	for trial := 0; trial < 40; trial++ {
		issuer := motion.UserID(1 + rng.Intn(400))
		tq := rng.Float64() * 120
		x0, y0 := rng.Float64()*600, rng.Float64()*600
		w := bxtree.Window{MinX: x0, MinY: y0, MaxX: x0 + 400, MaxY: y0 + 400}

		a, err := f.tree.PRQ(issuer, w, tq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.PRQ(issuer, w, tq)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[motion.UserID]bool, len(b))
		for _, o := range b {
			got[o.UID] = true
		}
		if len(a) != len(b) {
			t.Fatalf("trial %d: PRQ %d vs %d results", trial, len(a), len(b))
		}
		for _, o := range a {
			if !got[o.UID] {
				t.Fatalf("trial %d: bulk tree missing u%d", trial, o.UID)
			}
		}

		qx, qy := rng.Float64()*1000, rng.Float64()*1000
		nnA, err := f.tree.PKNN(issuer, qx, qy, 3, tq)
		if err != nil {
			t.Fatal(err)
		}
		nnB, err := fresh.PKNN(issuer, qx, qy, 3, tq)
		if err != nil {
			t.Fatal(err)
		}
		if len(nnA) != len(nnB) {
			t.Fatalf("trial %d: PKNN %d vs %d results", trial, len(nnA), len(nnB))
		}
		for i := range nnA {
			if nnA[i].Object.UID != nnB[i].Object.UID {
				t.Fatalf("trial %d: PKNN[%d] u%d vs u%d", trial, i, nnA[i].Object.UID, nnB[i].Object.UID)
			}
		}
	}

	// Point lookups agree for every user.
	for _, o := range f.objs {
		a, okA, err := f.tree.Get(o.UID)
		if err != nil {
			t.Fatal(err)
		}
		b, okB, err := fresh.Get(o.UID)
		if err != nil {
			t.Fatal(err)
		}
		if okA != okB || a != b {
			t.Fatalf("Get(u%d) diverges: %+v/%v vs %+v/%v", o.UID, a, okA, b, okB)
		}
	}
}

// TestApplyBatchGeneralPath exercises the in-order path (mixed ops on a
// non-empty tree): upserts, moves, and removes applied atomically.
func TestApplyBatchGeneralPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := buildFixture(t, rng, DefaultConfig(), 200, 3)

	moved := f.objs[10]
	moved.X, moved.Y = 12, 34
	ops := []BatchOp{
		{Kind: OpUpsert, Obj: moved},
		{Kind: OpRemove, UID: f.objs[20].UID},
		{Kind: OpRemove, UID: f.objs[21].UID},
	}
	if err := f.tree.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := f.tree.Get(moved.UID); !ok || got.X != 12 {
		t.Fatalf("move not applied: %+v %v", got, ok)
	}
	if _, ok, _ := f.tree.Get(f.objs[20].UID); ok {
		t.Fatal("removed user still present")
	}
	if f.tree.Size() != 198 {
		t.Fatalf("size = %d, want 198", f.tree.Size())
	}

	// A failing op (remove of the already-removed user) rolls everything
	// back, including the parts of the batch that had succeeded.
	movedAgain := f.objs[11]
	movedAgain.X, movedAgain.Y = 56, 78
	bad := []BatchOp{
		{Kind: OpUpsert, Obj: movedAgain},
		{Kind: OpRemove, UID: f.objs[20].UID}, // already gone
	}
	if err := f.tree.ApplyBatch(bad); err == nil {
		t.Fatal("batch with bad remove succeeded")
	}
	if got, _, _ := f.tree.Get(movedAgain.UID); got.X == 56 {
		t.Fatal("failed batch left an upsert applied")
	}
	if f.tree.Size() != 198 {
		t.Fatalf("size after failed batch = %d, want 198", f.tree.Size())
	}
}

// TestApplyBatchRollbackUnderDiskFault injects disk faults mid-batch and
// verifies the rollback restores a fully consistent tree once the fault
// clears: same contents, valid structure, no leaked page pins.
func TestApplyBatchRollbackUnderDiskFault(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := DefaultConfig()

	for trial := 0; trial < 20; trial++ {
		fd := &store.FaultDisk{Inner: store.NewMemDisk(), FailAfter: 1 << 30}
		pool := store.NewBufferPool(fd, 64)
		f := buildFixtureOnPool(t, rng, cfg, 300, 2, pool)

		before := make(map[motion.UserID]motion.Object, 300)
		for _, o := range f.objs {
			got, ok, err := f.tree.Get(o.UID)
			if err != nil || !ok {
				t.Fatal(err)
			}
			before[o.UID] = got
		}

		// A batch that moves half the users and removes a few, with a
		// fault armed to fire somewhere in the middle.
		var ops []BatchOp
		for i, o := range f.objs {
			if i%2 == 0 {
				moved := o
				moved.X, moved.Y = rng.Float64()*1000, rng.Float64()*1000
				moved.T += 1
				ops = append(ops, BatchOp{Kind: OpUpsert, Obj: moved})
			} else if i%11 == 1 {
				ops = append(ops, BatchOp{Kind: OpRemove, UID: o.UID})
			}
		}
		fd.FailAfter = 5 + rng.Intn(80)
		err := f.tree.ApplyBatch(ops)
		if err == nil {
			// Fault didn't fire during this batch; try a later trial.
			fd.FailAfter = 1 << 30
			continue
		}
		fd.FailAfter = 1 << 30

		if n := pool.PinnedPages(); n != 0 {
			t.Fatalf("trial %d: %d pages pinned after failed batch", trial, n)
		}
		if f.tree.Size() != 300 {
			t.Fatalf("trial %d: size after rollback = %d, want 300", trial, f.tree.Size())
		}
		for uid, want := range before {
			got, ok, err := f.tree.Get(uid)
			if err != nil || !ok {
				t.Fatalf("trial %d: Get(u%d) after rollback: %v %v", trial, uid, ok, err)
			}
			if got != want {
				t.Fatalf("trial %d: u%d changed across failed batch", trial, uid)
			}
		}
	}
}

// buildFixtureOnPool is buildFixture with a caller-supplied buffer pool
// (for fault injection).
func buildFixtureOnPool(t *testing.T, rng *rand.Rand, cfg Config, n, friends int, pool *store.BufferPool) *fixture {
	t.Helper()
	f := buildFixture(t, rng, cfg, n, friends)
	tree, err := New(cfg, pool, f.pol, f.assign)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range f.objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	f.tree = tree
	return f
}
