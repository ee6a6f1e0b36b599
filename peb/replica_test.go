package peb

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// replicaHarness opens a durable primary on a CrashFS with a tiny segment
// size so even small workloads roll the log several times.
func replicaHarness(t *testing.T, segBytes int64) (*DB, *store.CrashFS) {
	t.Helper()
	fs := store.NewCrashFS()
	db, err := Open(Options{
		Path:            "rep.idx",
		FS:              fs,
		Durability:      DurabilitySync,
		WALSegmentBytes: segBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, fs
}

// assertReplicaEquals compares the replica's full applied state against
// the primary's: horizon, object set, and a policy-evaluated query. Both
// sides must be quiescent.
func assertReplicaEquals(t *testing.T, p *DB, r *Replica) {
	t.Helper()
	h, err := r.CatchUp()
	if err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	p.mu.RLock()
	pseq := p.walSeq
	p.mu.RUnlock()
	if h != pseq {
		t.Fatalf("horizon = %d, want primary walSeq %d", h, pseq)
	}
	want, err := p.Objects()
	if err != nil {
		t.Fatalf("primary Objects: %v", err)
	}
	got, err := r.db.Objects()
	if err != nil {
		t.Fatalf("replica Objects: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("replica holds %d objects, primary %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("object %d: replica %+v, primary %+v", i, got[i], want[i])
		}
	}
	// Policy evaluation must agree too: the replica carries the policies,
	// relations, and sequence values, not just raw positions.
	all := Region{MaxX: p.opts.SpaceSide, MaxY: p.opts.SpaceSide}
	for _, issuer := range []UserID{1, 2, 7} {
		pr, perr := p.RangeQuery(issuer, all, 10)
		rr, rerr := r.RangeQuery(issuer, all, 10)
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("issuer %d: primary err %v, replica err %v", issuer, perr, rerr)
		}
		if len(pr) != len(rr) {
			t.Fatalf("issuer %d: primary sees %d, replica sees %d", issuer, len(pr), len(rr))
		}
		for i := range pr {
			if pr[i] != rr[i] {
				t.Fatalf("issuer %d result %d: primary %+v, replica %+v", issuer, i, pr[i], rr[i])
			}
		}
	}
}

// TestReplicaOracle is the tentpole's correctness oracle: a replica's
// state at horizon H is exactly the primary's committed state at H. The
// replica attaches mid-history (bootstrap transfer), then tails commits
// across many segment rolls, policy mutations, deletes, and an encode
// rebuild — with primary checkpoints dropping covered segments along the
// way (the replica's retention floor keeps its unread suffix alive).
func TestReplicaOracle(t *testing.T) {
	db, _ := replicaHarness(t, 512)

	// Pre-attach history: bootstrap must carry all of it.
	for i := 1; i <= 40; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: float64(i * 17 % 1000), Y: float64(i * 29 % 1000), T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DefineRelation(1, 2, "friend"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(1, "friend", Region{MaxX: 1000, MaxY: 1000}, TimeInterval{Start: 0, End: 1440}); err != nil {
		t.Fatal(err)
	}

	r, err := NewReplica(db)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	assertReplicaEquals(t, db, r)

	// Post-attach history: tailing across rolls, with structural changes.
	for i := 10; i <= 60; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: float64(i * 31 % 1000), Y: float64(i * 13 % 1000), T: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 35; i <= 45; i++ {
		if err := db.Remove(UserID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DefineRelation(2, 7, "friend"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(2, "friend", Region{MaxX: 500, MaxY: 500}, TimeInterval{Start: 0, End: 1440}); err != nil {
		t.Fatal(err)
	}
	assertReplicaEquals(t, db, r)

	// A checkpoint publishes and drops covered segments; replication must
	// ride through it and subsequent commits.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	for i := 50; i <= 80; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: float64(i * 7 % 1000), Y: float64(i * 11 % 1000), T: 3}); err != nil {
			t.Fatal(err)
		}
	}
	assertReplicaEquals(t, db, r)
	if err := r.Err(); err != nil {
		t.Fatalf("replica tail error: %v", err)
	}
}

// TestReplicaSnapshotHorizon: Snapshot returns a pinned view and the
// horizon it was cut at, atomically — horizons are monotone, and each
// snapshot's content matches its horizon even while the primary keeps
// committing underneath.
func TestReplicaSnapshotHorizon(t *testing.T) {
	db, _ := replicaHarness(t, 1024)
	for i := 1; i <= 10; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: float64(i), Y: float64(i), T: 0}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReplica(db)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 11; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Upsert(Object{UID: UserID(i%100 + 1), X: float64(i % 1000), Y: float64(i % 997), T: float64(i)}); err != nil {
				panic(err)
			}
		}
	}()

	var last uint64
	for k := 0; k < 50; k++ {
		snap, h, err := r.Snapshot()
		if err != nil {
			t.Fatalf("snapshot %d: %v", k, err)
		}
		if h < last {
			t.Fatalf("horizon went backwards: %d after %d", h, last)
		}
		last = h
		if _, err := snap.RangeQuery(1, Region{MaxX: 1000, MaxY: 1000}, 5); err != nil {
			t.Fatalf("snapshot query at horizon %d: %v", h, err)
		}
		snap.Close()
	}
	close(stop)
	wg.Wait()
	if _, err := r.CatchUp(); err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	pseq := db.walSeq
	db.mu.RUnlock()
	if h := r.Horizon(); h != pseq {
		t.Fatalf("final horizon %d != primary walSeq %d", h, pseq)
	}
}

// TestReplicaPreparedStall: an undecided prepared record stalls the
// replica's horizon just short of it (a marker-less transaction's fate is
// unknowable), a commit marker releases it, and an aborted prepared
// transaction is skipped with its sequence number consumed — mirroring
// crash recovery's semantics record for record.
func TestReplicaPreparedStall(t *testing.T) {
	db, _ := replicaHarness(t, 4<<10)
	for i := 1; i <= 5; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: 1, Y: 1, T: 0}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReplica(db)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h0, err := r.CatchUp()
	if err != nil {
		t.Fatal(err)
	}

	// Prepare without deciding: the record is on disk, the horizon must
	// not move past the sequence before it.
	b := db.NewBatch()
	b.Upsert(Object{UID: 50, X: 9, Y: 9, T: 1})
	prep, err := db.PrepareApply(b, 1001)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := r.CatchUp(); err != nil || h != h0 {
		t.Fatalf("horizon after undecided prepare = %d (err %v), want stalled at %d", h, err, h0)
	}
	if _, ok, _ := r.db.Lookup(50); ok {
		t.Fatal("replica exposes an undecided prepared write")
	}
	if err := prep.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if o, ok, err := r.db.Lookup(50); err != nil || !ok || o.X != 9 {
		t.Fatalf("replica after commit marker: %+v %v %v", o, ok, err)
	}

	// Aborted prepared: skipped, but its sequence number is consumed so
	// the horizon still reaches the log's end.
	b2 := db.NewBatch()
	b2.Upsert(Object{UID: 60, X: 4, Y: 4, T: 2})
	prep2, err := db.PrepareApply(b2, 1002)
	if err != nil {
		t.Fatal(err)
	}
	if err := prep2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Object{UID: 70, X: 5, Y: 5, T: 3}); err != nil {
		t.Fatal(err)
	}
	assertReplicaEquals(t, db, r)
	if _, ok, _ := r.db.Lookup(60); ok {
		t.Fatal("replica applied an aborted prepared transaction")
	}
	if _, ok, _ := r.db.Lookup(70); !ok {
		t.Fatal("replica missed the commit after the aborted transaction")
	}
}

// TestReplicaBootstrapInsidePreparedWindow: NewReplica called inside a
// prepared window returns without waiting for the marker — it copies the
// state below the prepared record and tails from there — and the replica
// equals the primary once the transaction commits; a second replica,
// attached inside a window that then aborts, equals it too.
func TestReplicaBootstrapInsidePreparedWindow(t *testing.T) {
	db, _ := replicaHarness(t, 1<<10)
	for i := 1; i <= 5; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: float64(i), Y: float64(i), T: 0}); err != nil {
			t.Fatal(err)
		}
	}
	attach := func() *Replica {
		t.Helper()
		type attached struct {
			r   *Replica
			err error
		}
		c := make(chan attached, 1)
		go func() {
			r, err := NewReplica(db)
			c <- attached{r, err}
		}()
		select {
		case a := <-c:
			if a.err != nil {
				t.Fatal(a.err)
			}
			t.Cleanup(func() { a.r.Close() })
			return a.r
		case <-time.After(5 * time.Second):
			t.Fatal("NewReplica waited for the prepared window to close")
			return nil
		}
	}

	b := db.NewBatch()
	b.Upsert(Object{UID: 50, X: 9, Y: 9, T: 1})
	b.Remove(1)
	b.DefineRelation(50, 2, "friend")
	b.Grant(50, "friend", Region{MaxX: 1000, MaxY: 1000}, TimeInterval{End: 1440})
	p, err := db.PrepareApply(b, 1001)
	if err != nil {
		t.Fatal(err)
	}
	r1 := attach()
	if _, ok, _ := r1.db.Lookup(50); ok {
		t.Fatal("replica bootstrapped an undecided prepared write")
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	assertReplicaEquals(t, db, r1)

	b = db.NewBatch()
	b.Upsert(Object{UID: 60, X: 4, Y: 4, T: 2})
	b.Remove(2)
	p, err = db.PrepareApply(b, 1002)
	if err != nil {
		t.Fatal(err)
	}
	r2 := attach()
	if err := p.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Object{UID: 70, X: 5, Y: 5, T: 3}); err != nil {
		t.Fatal(err)
	}
	assertReplicaEquals(t, db, r1)
	assertReplicaEquals(t, db, r2)
}

// TestReplicaRetentionFloor: while a replica's cursor lags, checkpoint
// publication must not drop the unread segments (the floor pins them);
// once the replica consumes them and detaches, they become droppable.
func TestReplicaRetentionFloor(t *testing.T) {
	db, fs := replicaHarness(t, 256)
	if err := db.Upsert(Object{UID: 1, X: 1, Y: 1, T: 0}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(db)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.CatchUp(); err != nil {
		t.Fatal(err)
	}
	floor := r.Position()

	// Freeze the tailer: holding r.mu blocks poll and CatchUp, so the
	// cursor — and with it the retention floor — cannot advance.
	r.mu.Lock()
	for i := 2; i <= 40; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: float64(i), Y: float64(i), T: 1}); err != nil {
			r.mu.Unlock()
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		r.mu.Unlock()
		t.Fatal(err)
	}
	// Every segment from the frozen cursor on must have survived publish.
	segs, err := store.ListWALSegments(fs, "rep.idx.wal")
	if err != nil {
		r.mu.Unlock()
		t.Fatal(err)
	}
	minSeg := segs[0]
	r.mu.Unlock()
	if minSeg > floor.Seg {
		t.Fatalf("checkpoint dropped segment %06d, pinned by replica floor %06d", floor.Seg, minSeg)
	}

	// Unfrozen: consume the backlog, detach, and verify the next publish
	// reclaims what the floor was holding.
	assertReplicaEquals(t, db, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Object{UID: 99, X: 9, Y: 9, T: 2}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := store.ListWALSegments(fs, "rep.idx.wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(segs) {
		t.Fatalf("post-detach checkpoint kept %d segments (was %d); floor not released", len(after), len(segs))
	}
}

// TestReplicaConcurrentTail hammers a replica with concurrent commits and
// reads under the race detector: the tailer, the wake hook, checkpoint
// publication, and follower queries all overlap.
func TestReplicaConcurrentTail(t *testing.T) {
	db, _ := replicaHarness(t, 2<<10)
	for i := 1; i <= 20; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: float64(i), Y: float64(i), T: 0}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReplica(db)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if err := db.Upsert(Object{UID: UserID(i%50 + 1), X: float64(i % 1000), Y: float64(i % 991), T: float64(i)}); err != nil {
				errc <- fmt.Errorf("upsert %d: %w", i, err)
				return
			}
			if i%90 == 0 {
				if err := db.Checkpoint(); err != nil {
					errc <- fmt.Errorf("checkpoint at %d: %w", i, err)
					return
				}
			}
		}
	}()
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() { // follower readers
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := r.RangeQuery(1, Region{MaxX: 1000, MaxY: 1000}, 5); err != nil {
					errc <- fmt.Errorf("replica query %d: %w", i, err)
					return
				}
				if i%20 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	assertReplicaEquals(t, db, r)
	if err := r.Err(); err != nil {
		t.Fatalf("replica tail error: %v", err)
	}
}

// TestReplicaRequiresDurablePrimary: an in-memory primary has no log to
// tail; attaching must fail cleanly.
func TestReplicaRequiresDurablePrimary(t *testing.T) {
	db := mustOpen(t, Options{})
	if _, err := NewReplica(db); err == nil {
		t.Fatal("NewReplica on a non-durable primary succeeded, want error")
	}
}
