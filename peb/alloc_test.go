package peb

import (
	"testing"
)

// Allocation-regression gates for the hot paths the speed pass optimized.
//
// The budgets are deliberate ceilings a little above today's measured
// allocs/op: they exist so the zero-alloc WAL codec and the PkNN scratch
// reuse cannot silently rot back toward gob-era numbers — not as exact
// pins, which would flake across Go releases. If a legitimate change
// raises a number, raise the budget in the same commit and say why.

const (
	// upsertSyncAllocBudget bounds one durable single-object commit:
	// apply + binary WAL encode (reused buffer) + group-commit sync.
	// Gob-era encoding alone cost ~40 allocs per record.
	upsertSyncAllocBudget = 15
	// applySyncAllocBudgetPerOp bounds a 100-upsert durable batch,
	// amortized per upsert. Batching amortizes the record and the sync;
	// the remainder (~12/op today) is dominated by B-tree copy-on-write
	// node work, not serialization.
	applySyncAllocBudgetPerOp = 16
	// pknnAllocBudget bounds one warm PkNN query (k=5) on a pooled
	// search state: the grantor list, the partition list, the result
	// slice, a buffer-pool LRU element. 6 today, and 13–16 under -race,
	// where sync.Pool drops a quarter of what is put back and the state
	// is regrown; the budget is that plus 20 %. It was 23 (plain) while
	// every leaf was decoded into fresh slices.
	pknnAllocBudget = 20
	// prqAllocBudget bounds one warm PRQ (200-side window) on a pooled
	// friend table and cursor: the same, plus ZVconvert's interval lists
	// per partition. 10 today, 13–14 under -race; 42 (plain) with the
	// decoding reader and the per-query maps.
	prqAllocBudget = 17
)

func allocDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Options{
		Path:        t.TempDir() + "/db.idx",
		Durability:  DurabilitySync,
		BufferPages: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 1; i <= 64; i++ {
		if err := db.Upsert(goldenObj(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestUpsertSyncAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	db := allocDB(t)
	salt := 0
	got := testing.AllocsPerRun(200, func() {
		salt++
		if err := db.Upsert(goldenObj(1+salt%64, salt)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Upsert (DurabilitySync): %.1f allocs/op (budget %d)", got, upsertSyncAllocBudget)
	if got > upsertSyncAllocBudget {
		t.Fatalf("Upsert allocates %.1f/op, budget %d — the durable commit path regressed", got, upsertSyncAllocBudget)
	}
}

// TestUpsertSyncLogCost pins what one durable single-object commit puts
// on the device: one fsync and one framed record. Both are exact — the
// stream is fixed and a single committer has nobody to share a group
// commit with — so a second sync per commit, or a fatter record or frame,
// fails here.
func TestUpsertSyncLogCost(t *testing.T) {
	db := allocDB(t)
	const users, commits, wantBytes = 256, 600, 20368 // 33.95 B/commit
	b := db.NewBatch()
	for i := 1; i <= users; i++ {
		b.Upsert(goldenObj(i, 0))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	before := db.WALStats()
	for i := 0; i < commits; i++ {
		if err := db.Upsert(goldenObj(1+i%users, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	after := db.WALStats()
	if got := after.Syncs - before.Syncs; got != commits {
		t.Errorf("%d durable commits cost %d fsyncs, recorded one each", commits, got)
	}
	if got := after.BytesAppended - before.BytesAppended; got != wantBytes {
		t.Errorf("%d durable commits appended %d log bytes (%.2f each), recorded %d",
			commits, got, float64(got)/commits, wantBytes)
	}
}

func TestApplySyncAllocsPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	db := allocDB(t)
	const batchSize = 100
	salt := 0
	got := testing.AllocsPerRun(50, func() {
		salt++
		b := db.NewBatch()
		for i := 1; i <= batchSize; i++ {
			b.Upsert(goldenObj(i, salt))
		}
		if err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
	})
	perOp := got / batchSize
	t.Logf("Apply (DurabilitySync, %d ops): %.1f allocs/batch, %.2f/op (budget %d/op)",
		batchSize, got, perOp, applySyncAllocBudgetPerOp)
	if perOp > applySyncAllocBudgetPerOp {
		t.Fatalf("Apply allocates %.2f per op, budget %d — the batch commit path regressed", perOp, applySyncAllocBudgetPerOp)
	}
}

// friendsDB is an in-memory DB (the query path, not page I/O, is measured)
// in which each of u2..u40 considers u1 a friend and grants friends
// visibility everywhere, all day — so u1's queries actually assemble 39
// candidate grantors and return results (an empty result set would make
// the query gates trivially green).
func friendsDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 2; i <= 40; i++ {
		if err := db.DefineRelation(UserID(i), 1, "f"); err != nil {
			t.Fatal(err)
		}
		if err := db.Grant(UserID(i), "f", Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, TimeInterval{Start: 0, End: 1440}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if err := db.Upsert(goldenObj(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestPRQAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	db := friendsDB(t)
	w := Region{MinX: 300, MinY: 300, MaxX: 500, MaxY: 500}
	// Warm the pooled friend table and cursor, then measure steady state.
	warm, err := db.RangeQuery(1, w, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) == 0 {
		t.Fatal("warm query returned no results — measuring an empty result set")
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := db.RangeQuery(1, w, 10); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("PRQ (200-side window, 39 friends, %d results): %.1f allocs/op (budget %d)", len(warm), got, prqAllocBudget)
	if got > prqAllocBudget {
		t.Fatalf("PRQ allocates %.1f/op, budget %d — the in-place read path regressed", got, prqAllocBudget)
	}
}

func TestPKNNAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	db := friendsDB(t)
	// Warm the pooled search state, then measure steady-state queries.
	warm, err := db.NearestNeighbors(1, 500, 500, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != 5 {
		t.Fatalf("warm query returned %d results, want 5 — measuring an empty result set", len(warm))
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := db.NearestNeighbors(1, 500, 500, 5, 10); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("PkNN (k=5, 39 friends): %.1f allocs/op (budget %d)", got, pknnAllocBudget)
	if got > pknnAllocBudget {
		t.Fatalf("PkNN allocates %.1f/op, budget %d — the heap-reuse path regressed", got, pknnAllocBudget)
	}
}
