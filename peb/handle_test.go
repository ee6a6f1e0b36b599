package peb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/bxtree"
	"repro/internal/store"
)

// buildSmallDB: one issuer (u1) befriended by 60 users granting all-day
// visibility over the whole space, plus 40 strangers.
func buildSmallDB(t *testing.T) *DB {
	t.Helper()
	db := mustOpen(t, Options{})
	day := TimeInterval{Start: 0, End: 1440}
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	b := db.NewBatch()
	for i := 2; i <= 61; i++ {
		b.DefineRelation(UserID(i), 1, "f")
		b.Grant(UserID(i), "f", all, day)
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	load := db.NewBatch()
	rng := rand.New(rand.NewSource(2))
	for i := 1; i <= 100; i++ {
		load.Upsert(Object{UID: UserID(i), X: rng.Float64() * 1000, Y: rng.Float64() * 1000, T: 0})
	}
	if err := db.Apply(load); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOptionsValidation(t *testing.T) {
	for _, opts := range []Options{
		{SpaceSide: -1},
		{BufferPages: -5},
		{MaxSpeed: -0.1},
		{DayLength: -1440},
		{MaxUpdateInterval: -3},
		{Path: "x.idx", Durability: 2, FS: store.NewCrashFS()},
	} {
		if _, err := Open(opts); !errors.Is(err, ErrBadOptions) {
			t.Errorf("Open(%+v) error = %v, want ErrBadOptions", opts, err)
		}
	}
	if _, err := OpenExisting(Options{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("OpenExisting without Path error = %v, want ErrBadOptions", err)
	}
}

func TestInvalidRegionTyped(t *testing.T) {
	db := mustOpen(t, Options{})
	bad := Region{MinX: 5, MaxX: 1, MinY: 0, MaxY: 1}
	_, err := db.RangeQuery(1, bad, 0)
	if !errors.Is(err, ErrInvalidRegion) {
		t.Fatalf("RangeQuery error = %v, want ErrInvalidRegion", err)
	}
	var re *InvalidRegionError
	if !errors.As(err, &re) || re.Region != bad {
		t.Fatalf("error does not carry the region: %v", err)
	}
	if err := db.Grant(2, "f", bad, TimeInterval{Start: 0, End: 10}); !errors.Is(err, ErrInvalidRegion) {
		t.Fatalf("Grant error = %v, want ErrInvalidRegion", err)
	}
}

func TestUseAfterClose(t *testing.T) {
	for _, opts := range []Options{{}, {Path: filepath.Join(t.TempDir(), "peb.idx")}} {
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Upsert(Object{UID: 1, X: 1, Y: 1}); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("second Close = %v, want nil", err)
		}

		if err := db.Upsert(Object{UID: 2, X: 1, Y: 1}); !errors.Is(err, ErrClosed) {
			t.Errorf("Upsert after close = %v, want ErrClosed", err)
		}
		if _, err := db.RangeQuery(1, Region{MaxX: 10, MaxY: 10}, 0); !errors.Is(err, ErrClosed) {
			t.Errorf("RangeQuery after close = %v, want ErrClosed", err)
		}
		if _, err := db.NearestNeighbors(1, 0, 0, 1, 0); !errors.Is(err, ErrClosed) {
			t.Errorf("NearestNeighbors after close = %v, want ErrClosed", err)
		}
		if _, _, err := db.Lookup(1); !errors.Is(err, ErrClosed) {
			t.Errorf("Lookup after close = %v, want ErrClosed", err)
		}
		if err := db.Remove(1); !errors.Is(err, ErrClosed) {
			t.Errorf("Remove after close = %v, want ErrClosed", err)
		}
		if err := db.DefineRelation(1, 2, "f"); !errors.Is(err, ErrClosed) {
			t.Errorf("DefineRelation after close = %v, want ErrClosed", err)
		}
		if err := db.Grant(1, "f", Region{MaxX: 1, MaxY: 1}, TimeInterval{}); !errors.Is(err, ErrClosed) {
			t.Errorf("Grant after close = %v, want ErrClosed", err)
		}
		if err := db.EncodePolicies(); !errors.Is(err, ErrClosed) {
			t.Errorf("EncodePolicies after close = %v, want ErrClosed", err)
		}
		if err := db.Apply(func() *Batch { b := db.NewBatch(); b.Upsert(Object{UID: 3}); return b }()); !errors.Is(err, ErrClosed) {
			t.Errorf("Apply after close = %v, want ErrClosed", err)
		}
		if _, err := db.Snapshot(); !errors.Is(err, ErrClosed) {
			t.Errorf("Snapshot after close = %v, want ErrClosed", err)
		}
		if db.Size() != 0 {
			t.Errorf("Size after close = %d, want 0", db.Size())
		}
	}
}

// TestSnapshotPinnedAcrossWrites is the acceptance check: a pinned
// Snapshot returns identical results before and after interleaved writes.
func TestSnapshotPinnedAcrossWrites(t *testing.T) {
	db := buildSmallDB(t)
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}

	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	before, err := snap.RangeQuery(1, all, 5)
	if err != nil {
		t.Fatal(err)
	}
	nnBefore, err := snap.NearestNeighbors(1, 500, 500, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	sizeBefore := snap.Size()

	// Interleave writes of every kind: moves, removals, new users, policy
	// changes.
	rng := rand.New(rand.NewSource(7))
	for i := 1; i <= 100; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: rng.Float64() * 1000, Y: rng.Float64() * 1000, T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i <= 20; i++ {
		if err := db.Remove(UserID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Upsert(Object{UID: 500, X: 500, Y: 500, T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRelation(500, 1, "f"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(500, "f", all, TimeInterval{Start: 0, End: 1440}); err != nil {
		t.Fatal(err)
	}

	after, err := snap.RangeQuery(1, all, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("snapshot PRQ changed across writes: %d → %d results", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("snapshot PRQ result %d changed: %+v → %+v", i, before[i], after[i])
		}
	}
	nnAfter, err := snap.NearestNeighbors(1, 500, 500, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nnAfter) != len(nnBefore) {
		t.Fatalf("snapshot PkNN changed across writes: %d → %d", len(nnBefore), len(nnAfter))
	}
	for i := range nnBefore {
		if nnBefore[i].Object != nnAfter[i].Object || nnBefore[i].Dist != nnAfter[i].Dist {
			t.Fatalf("snapshot PkNN result %d changed", i)
		}
	}
	if snap.Size() != sizeBefore {
		t.Fatalf("snapshot Size changed: %d → %d", sizeBefore, snap.Size())
	}
	// Policy changes after pinning are invisible too: u500 granted after the
	// snapshot, so the snapshot must not see it as a grantor.
	if snap.Allows(500, 1, 500, 500, 5) {
		t.Error("snapshot sees a policy granted after pinning")
	}
	if !db.Allows(500, 1, 500, 500, 5) {
		t.Error("live DB does not see the new policy")
	}

	// The live DB meanwhile serves the new state.
	live, err := db.RangeQuery(1, all, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) == len(before) {
		t.Log("live result count unchanged (possible but unlikely); not fatal")
	}

	// Closing the snapshot lets the DB reclaim superseded pages and keep
	// answering correctly.
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.RangeQuery(1, all, 5); !errors.Is(err, ErrClosed) {
		t.Fatalf("query on closed snapshot = %v, want ErrClosed", err)
	}
	if snap.Close() != nil {
		t.Fatal("second snapshot Close errored")
	}
	if _, err := db.RangeQuery(1, all, 5); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotIOStats: per-snapshot counters move with the snapshot's own
// queries and stay still for everyone else's.
func TestSnapshotIOStats(t *testing.T) {
	db := buildSmallDB(t)
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	s1, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	if got := s1.IOStats(); got.Accesses() != 0 {
		t.Fatalf("fresh snapshot has %d accesses", got.Accesses())
	}
	if _, err := s1.RangeQuery(1, all, 5); err != nil {
		t.Fatal(err)
	}
	a1, a2 := s1.IOStats().Accesses(), s2.IOStats().Accesses()
	if a1 == 0 {
		t.Error("snapshot query recorded no page accesses")
	}
	if a2 != 0 {
		t.Errorf("idle snapshot recorded %d accesses from another session", a2)
	}
	if s1.LeafCount() <= 0 {
		t.Errorf("LeafCount = %d", s1.LeafCount())
	}
}

// TestSnapshotIOAttribution: two sessions run PRQs and PkNNs at once on two
// snapshots over one buffer pool. How many pages a query requests does not
// depend on what the buffer holds — only the split into hits and misses
// does — so each query's cost record is first read alone, on the
// snapshot's view. Then both sessions run together: each snapshot's
// IOStats must count exactly its own queries' requests, and the two
// snapshots' hits and misses must add up to what the pool counted.
func TestSnapshotIOAttribution(t *testing.T) {
	db := friendsDBOf(t, 100, 4)
	type query struct {
		issuer UserID
		x, y   float64
		k      int // 0: a PRQ of the square of side 200 around (x, y)
	}
	issuers := []UserID{1, 41, 141} // u1 and two hubs of 100-user circles
	queries := func(seed int64) []query {
		rng := rand.New(rand.NewSource(seed))
		qs := make([]query, 40)
		for i := range qs {
			qs[i] = query{issuer: issuers[rng.Intn(len(issuers))], x: 100 + rng.Float64()*800, y: 100 + rng.Float64()*800}
			if i%2 == 1 {
				qs[i].k = 1 + rng.Intn(5)
			}
		}
		return qs
	}
	region := func(q query) Region {
		return Region{MinX: q.x - 100, MinY: q.y - 100, MaxX: q.x + 100, MaxY: q.y + 100}
	}
	var sessions [2]struct {
		snap    *Snapshot
		queries []query
		want    uint64 // page requests, from the queries' records
	}
	for i := range sessions {
		s := &sessions[i]
		var err error
		if s.snap, err = db.Snapshot(); err != nil {
			t.Fatal(err)
		}
		defer s.snap.Close()
		s.queries = queries(int64(i + 1))
		for _, q := range s.queries {
			var cost store.BufferStats
			if q.k == 0 {
				r := region(q)
				_, cost, err = s.snap.view.PRQ(q.issuer, bxtree.Window{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}, 10)
			} else {
				_, cost, err = s.snap.view.PKNN(q.issuer, q.x, q.y, q.k, 10)
			}
			if err != nil {
				t.Fatal(err)
			}
			s.want += cost.Accesses()
		}
	}

	before := db.IOStats()
	var wg sync.WaitGroup
	errs := make(chan error, len(sessions))
	for i := range sessions {
		s := &sessions[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range s.queries {
				var err error
				if q.k == 0 {
					_, err = s.snap.RangeQuery(q.issuer, region(q), 10)
				} else {
					_, err = s.snap.NearestNeighbors(q.issuer, q.x, q.y, q.k, 10)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	after := db.IOStats()

	var sum store.BufferStats
	for i, s := range sessions {
		got := s.snap.IOStats()
		if got.Accesses() != s.want {
			t.Errorf("session %d: IOStats counts %d page requests, its queries' records %d", i, got.Accesses(), s.want)
		}
		sum.Add(got)
	}
	if pool := (store.BufferStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}); sum != pool {
		t.Errorf("the snapshots counted %d hits + %d misses, the pool %d + %d", sum.Hits, sum.Misses, pool.Hits, pool.Misses)
	}
	t.Logf("sessions: %d and %d page requests; together %d hits, %d misses", sessions[0].want, sessions[1].want, sum.Hits, sum.Misses)
	if sum.Misses == 0 {
		t.Error("no page missed the buffer: the sessions did not contend for it")
	}
}

// TestBatchAtomicity: a failing op anywhere in the batch leaves the DB —
// results, size, sequence values, view identity — exactly as before.
func TestBatchAtomicity(t *testing.T) {
	db := buildSmallDB(t)
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}

	before, err := db.RangeQuery(1, all, 5)
	if err != nil {
		t.Fatal(err)
	}
	sizeBefore := db.Size()
	swapsBefore := db.ViewSwaps()
	nextSVBefore := db.nextSV

	b := db.NewBatch()
	b.Upsert(Object{UID: 7000, X: 10, Y: 10, T: 1}) // new user: stages an SV
	b.Upsert(Object{UID: 3, X: 700, Y: 700, T: 1})  // move an existing user
	b.Remove(7777)                                  // no such entry: fails the batch
	b.Grant(7000, "f", Region{MaxX: 100, MaxY: 100}, TimeInterval{Start: 0, End: 100})
	if err := db.Apply(b); err == nil {
		t.Fatal("Apply with bad Remove succeeded")
	}

	if got := db.Size(); got != sizeBefore {
		t.Fatalf("failed Apply changed Size: %d → %d", sizeBefore, got)
	}
	if got := db.ViewSwaps(); got != swapsBefore {
		t.Fatalf("failed Apply republished the view: %d → %d swaps", swapsBefore, got)
	}
	if db.nextSV != nextSVBefore {
		t.Fatalf("failed Apply burned sequence values: %g → %g", nextSVBefore, db.nextSV)
	}
	if _, ok := db.tree.SV(7000); ok {
		t.Fatal("failed Apply leaked an SV for the staged new user")
	}
	if _, ok, _ := db.Lookup(7000); ok {
		t.Fatal("failed Apply left the new user indexed")
	}
	if o, ok, _ := db.Lookup(3); !ok || o.X == 700 {
		t.Fatalf("failed Apply left u3 moved: %+v %v", o, ok)
	}
	if db.Allows(7000, 1, 50, 50, 5) {
		t.Fatal("failed Apply left a policy applied")
	}
	after, err := db.RangeQuery(1, all, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("failed Apply changed query results: %d → %d", len(before), len(after))
	}

	// The same batch without the bad op applies cleanly and counts one swap.
	ok := db.NewBatch()
	ok.Upsert(Object{UID: 7000, X: 10, Y: 10, T: 1})
	ok.Upsert(Object{UID: 3, X: 700, Y: 700, T: 1})
	ok.Grant(7000, "f", Region{MaxX: 100, MaxY: 100}, TimeInterval{Start: 0, End: 100})
	swapsBefore = db.ViewSwaps()
	if err := db.Apply(ok); err != nil {
		t.Fatal(err)
	}
	if got := db.ViewSwaps() - swapsBefore; got != 1 {
		t.Fatalf("successful Apply republished %d times, want 1", got)
	}
	if _, found, _ := db.Lookup(7000); !found {
		t.Fatal("applied batch did not index the new user")
	}
}

// TestApplySingleViewSwap is the acceptance check: a 10k-object batch
// republishes the view exactly once, where per-call loading republishes
// once per object.
func TestApplySingleViewSwap(t *testing.T) {
	db := mustOpen(t, Options{})
	const n = 10_000
	rng := rand.New(rand.NewSource(4))

	b := db.NewBatch()
	for i := 1; i <= n; i++ {
		b.Upsert(Object{UID: UserID(i), X: rng.Float64() * 1000, Y: rng.Float64() * 1000, T: 0})
	}
	swaps := db.ViewSwaps()
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if got := db.ViewSwaps() - swaps; got != 1 {
		t.Fatalf("Apply of %d objects republished %d times, want exactly 1", n, got)
	}
	if db.Size() != n {
		t.Fatalf("Size = %d, want %d", db.Size(), n)
	}

	db2 := mustOpen(t, Options{})
	swaps = db2.ViewSwaps()
	for i := 1; i <= 1000; i++ {
		if err := db2.Upsert(Object{UID: UserID(i), X: float64(i % 997), Y: float64(i % 991), T: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := db2.ViewSwaps() - swaps; got != 1000 {
		t.Fatalf("1000 Upserts republished %d times, want 1000", got)
	}
}

// TestRangeQueryCtxStreaming: the streaming query yields the same set as
// the eager one and honors cancellation mid-scan.
func TestRangeQueryCtxStreaming(t *testing.T) {
	db := buildSmallDB(t)
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	eager, err := snap.RangeQuery(1, all, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[UserID]bool, len(eager))
	for _, o := range eager {
		want[o.UID] = true
	}

	got := make(map[UserID]bool)
	for o, err := range snap.RangeQueryCtx(context.Background(), 1, all, 5) {
		if err != nil {
			t.Fatal(err)
		}
		got[o.UID] = true
	}
	if len(got) != len(want) {
		t.Fatalf("stream yielded %d users, eager %d", len(got), len(want))
	}
	for uid := range want {
		if !got[uid] {
			t.Fatalf("stream missing u%d", uid)
		}
	}

	// Early break stops cleanly.
	n := 0
	for _, err := range snap.RangeQueryCtx(context.Background(), 1, all, 5) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("broke after %d results, want 2", n)
	}

	// Cancellation mid-scan surfaces ctx.Err() as the final element.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n = 0
	var lastErr error
	for _, err := range snap.RangeQueryCtx(ctx, 1, all, 5) {
		if err != nil {
			lastErr = err
			continue
		}
		n++
		if n == 1 {
			cancel()
		}
	}
	if !errors.Is(lastErr, context.Canceled) {
		t.Fatalf("canceled stream final error = %v, want context.Canceled", lastErr)
	}
	if n >= len(eager) {
		t.Fatalf("cancellation did not cut the stream short (%d of %d yielded)", n, len(eager))
	}

	// Pre-canceled context yields only the error.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	n = 0
	lastErr = nil
	for _, err := range snap.RangeQueryCtx(pre, 1, all, 5) {
		if err != nil {
			lastErr = err
		} else {
			n++
		}
	}
	if n != 0 || !errors.Is(lastErr, context.Canceled) {
		t.Fatalf("pre-canceled stream yielded %d results, err %v", n, lastErr)
	}

	// NearestNeighborsCtx: pre-canceled context is rejected.
	if _, err := snap.NearestNeighborsCtx(pre, 1, 500, 500, 3, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("NearestNeighborsCtx(pre-canceled) = %v, want context.Canceled", err)
	}
	if _, err := snap.NearestNeighborsCtx(context.Background(), 1, 500, 500, 3, 5); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSurvivesDBWritesFileBacked: copy-on-write works on the
// file-backed disk too.
func TestSnapshotFileBacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peb.idx")
	db := mustOpen(t, Options{Path: path})
	day := TimeInterval{Start: 0, End: 1440}
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	if err := db.DefineRelation(2, 1, "f"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(2, "f", all, day); err != nil {
		t.Fatal(err)
	}
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	b := db.NewBatch()
	for i := 1; i <= 300; i++ {
		b.Upsert(Object{UID: UserID(i), X: float64(i%100) * 10, Y: float64(i%97) * 10, T: 0})
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	before, err := snap.RangeQuery(1, all, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 300; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: float64(i%89) * 11, Y: float64(i%83) * 12, T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	after, err := snap.RangeQuery(1, all, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatal("file-backed snapshot changed across writes")
	}
}

// TestGarbageReclaimed: closing the last snapshot returns the DB to
// in-place mutation and releases retired pages (no unbounded growth).
func TestGarbageReclaimed(t *testing.T) {
	db := buildSmallDB(t)
	md, ok := db.disk.(interface{ NumPages() int })
	if !ok {
		t.Fatal("mem disk expected")
	}
	base := md.NumPages()

	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 1; i <= 100; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: rng.Float64() * 1000, Y: rng.Float64() * 1000, T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	grown := md.NumPages()
	if grown <= base {
		t.Logf("page count did not grow under COW (%d → %d); tree fits in place", base, grown)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(db.garbage); got != 0 {
		t.Fatalf("%d garbage batches left after last snapshot closed", got)
	}
	// Subsequent writes run unsealed: no new garbage accumulates.
	for i := 1; i <= 100; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: rng.Float64() * 1000, Y: rng.Float64() * 1000, T: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(db.garbage); got != 0 {
		t.Fatalf("unsealed writes produced %d garbage batches", got)
	}
	settled := md.NumPages()
	if settled > grown {
		t.Fatalf("pages grew after reclamation: %d → %d", grown, settled)
	}
}

// TestSnapshotCloseDuringQuery: Close while a stream is mid-iteration
// must not yank pages out from under it — the in-flight query completes
// with results identical to an uninterrupted run, the pin is released by
// the query's end, and only queries started after Close see ErrClosed.
func TestSnapshotCloseDuringQuery(t *testing.T) {
	db := buildSmallDB(t)
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := snap.RangeQuery(1, all, 5)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(31))
	got := 0
	for o, err := range snap.RangeQueryCtx(context.Background(), 1, all, 5) {
		if err != nil {
			t.Fatal(err)
		}
		got++
		if got == 1 {
			// Close mid-iteration, then churn the DB so any prematurely
			// freed page would be reallocated with new contents.
			if err := snap.Close(); err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 100; i++ {
				if err := db.Upsert(Object{UID: UserID(i), X: rng.Float64() * 1000, Y: rng.Float64() * 1000, T: 2}); err != nil {
					t.Fatal(err)
				}
			}
		}
		_ = o
	}
	if got != len(want) {
		t.Fatalf("in-flight stream yielded %d results across Close, want %d", got, len(want))
	}
	// The pin is gone once the query finished: garbage drains and new
	// queries are rejected.
	if _, err := snap.RangeQuery(1, all, 5); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after Close = %v, want ErrClosed", err)
	}
	db.mu.Lock()
	leftover := len(db.garbage)
	db.mu.Unlock()
	if leftover != 0 {
		t.Fatalf("%d garbage batches left after last in-flight query finished", leftover)
	}
}

// TestSnapshotAcrossEncode: a snapshot taken before EncodePolicies keeps
// answering from the superseded (memory-backed) tree.
func TestSnapshotAcrossEncode(t *testing.T) {
	db := buildSmallDB(t)
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	before, err := snap.RangeQuery(1, all, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	after, err := snap.RangeQuery(1, all, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("snapshot changed across re-encode: %d → %d", len(before), len(after))
	}
	// And the new generation supports new snapshots.
	s2, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	live, err := s2.RangeQuery(1, all, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != len(before) {
		t.Fatalf("post-encode snapshot disagrees: %d vs %d", len(live), len(before))
	}
}
