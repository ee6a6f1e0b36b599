package peb

import (
	"testing"
)

// Allocation-regression gates for the hot paths the speed pass optimized.
//
// The budgets are deliberate ceilings a little above today's measured
// allocs/op: they exist so the zero-alloc WAL codec and the PkNN scratch
// reuse cannot silently rot — not as exact pins, which would flake across
// Go releases. If a legitimate change
// raises a number, raise the budget in the same commit and say why.

const (
	// upsertSyncAllocBudget bounds one durable single-object commit:
	// apply + binary WAL encode (reused buffer) + group-commit sync. 5.0
	// today, plain and under -race; the budget is that plus 20 %.
	upsertSyncAllocBudget = 6
	// applySyncAllocBudgetPerOp bounds a 100-upsert durable batch,
	// amortized per upsert. Batching amortizes the record and the sync;
	// the remainder (7.4/op today, plain and under -race, budgeted plus
	// 20 %) is dominated by B-tree copy-on-write node work, not
	// serialization.
	applySyncAllocBudgetPerOp = 9
	// pknnAllocBudget bounds one PkNN query (k=5) on a pooled search
	// state, whether its pages hit the buffer or miss it: the partition
	// list, the result slice. 4 today, and 11–14 under -race, where
	// sync.Pool drops a quarter of what is put back and the state is
	// regrown; the budget is that plus 20 %. It was 23 (plain) while every
	// leaf was decoded into fresh slices, 6 plus two per page miss while
	// the buffer pool made a frame per miss and a list node per request,
	// and 5 while the policy store copied and sorted the grantor list.
	pknnAllocBudget = 17
	// prqAllocBudget bounds one PRQ (200-side window) on a pooled friend
	// table and cursor, hit or miss: the same, plus ZVconvert's capped
	// interval list per partition. 6 today, 10–12 under -race; 42 (plain)
	// with the decoding reader and the per-query maps, 10 with ZVconvert's
	// exact lists, 7 with the copied grantor list.
	prqAllocBudget = 15
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
func friendsDB(t *testing.T) *DB { return friendsDBOf(t, 0, 0) }

// friendsDBOf is friendsDB behind a buffer of bufferPages (0: the default
// 50) with, when circle > 0, each friend in a circle of that many users of
// their own around a hub. A hub's circle outnumbers u1's friends, so the
// sequence values band every friend with their circle, and u1's friends lie
// scattered over the index, leaves apart, as the friends of one user among
// thousands do.
func friendsDBOf(t *testing.T, circle, bufferPages int) *DB {
	t.Helper()
	db, err := Open(Options{BufferPages: bufferPages})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	grant := func(u UserID) {
		must(db.Grant(u, "f", Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, TimeInterval{Start: 0, End: 1440}))
	}
	users := 40
	for f := UserID(2); f <= 40; f++ {
		must(db.DefineRelation(f, 1, "f"))
		grant(f)
		if circle == 0 {
			continue
		}
		// f's circle: a new hub, f, and new users to make up the number,
		// hub and member each the other's friend.
		hub := UserID(users + 1)
		grant(hub)
		for m := hub; m < hub+UserID(circle); m++ {
			member := m
			if m == hub {
				member = f
			} else {
				grant(m)
			}
			must(db.DefineRelation(hub, member, "f"))
			must(db.DefineRelation(member, hub, "f"))
		}
		users += circle
	}
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= users; i++ {
		if err := db.Upsert(goldenObj(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// coldQueryAllocs measures query on an index of some 80 leaves behind a
// two-page buffer, where all but a few of a query's page requests miss: a
// miss reads into the frame its victim left, so a cold query is held to the
// warm query's budget. (With a fresh frame per miss and a list node per
// request the PRQ read 402 and the PkNN 274.)
func coldQueryAllocs(t *testing.T, name string, budget float64, query func(db *DB) (results int, err error)) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	if raceEnabled {
		// Every scan takes a pooled cursor and there are some 160 scans in
		// these queries: the pool's drops would be measured, not the pages.
		t.Skip("sync.Pool drops a quarter of its puts under -race")
	}
	db := friendsDBOf(t, 100, 2)
	run := func() {
		if n, err := query(db); err != nil || n == 0 {
			t.Fatalf("%s returned %d results, %v", name, n, err)
		}
	}
	run() // warm the pooled query state, not the buffer
	before := db.IOStats()
	const runs = 200
	got := testing.AllocsPerRun(runs, run)
	io := db.IOStats()
	misses := float64(io.Misses-before.Misses) / (runs + 1)
	t.Logf("cold %s: %.1f allocs/op at %.1f page misses per query (budget %.0f)", name, got, misses, budget)
	if misses < 5 {
		t.Fatalf("cold %s misses %.1f pages per query — measuring a warm buffer", name, misses)
	}
	if got > budget {
		t.Fatalf("cold %s allocates %.1f/op at %.1f misses, budget %.0f — a page request allocates again", name, got, misses, budget)
	}
}

func TestPRQColdAllocs(t *testing.T) {
	coldQueryAllocs(t, "PRQ", prqAllocBudget, func(db *DB) (int, error) {
		res, err := db.RangeQuery(1, Region{MinX: 300, MinY: 300, MaxX: 500, MaxY: 500}, 10)
		return len(res), err
	})
}

func TestPKNNColdAllocs(t *testing.T) {
	coldQueryAllocs(t, "PkNN", pknnAllocBudget, func(db *DB) (int, error) {
		res, err := db.NearestNeighbors(1, 500, 500, 5, 10)
		return len(res), err
	})
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
