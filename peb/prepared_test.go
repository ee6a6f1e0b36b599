package peb

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/store"
)

// preparedTestObjects returns the full movement state, failing the test on
// error.
func preparedTestObjects(t *testing.T, db *DB) []Object {
	t.Helper()
	objs, err := db.Objects()
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

func TestPreparedCommitSurvivesReopen(t *testing.T) {
	fs := store.NewCrashFS()
	opts := Options{Path: "p.idx", Durability: DurabilitySync, FS: fs}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Object{UID: 1, X: 10, Y: 10}); err != nil {
		t.Fatal(err)
	}

	b := db.NewBatch()
	b.Upsert(Object{UID: 2, X: 20, Y: 20})
	b.DefineRelation(2, 1, "friend")
	b.Grant(2, "friend", Region{MaxX: 1000, MaxY: 1000}, TimeInterval{End: 1440})
	p, err := db.PrepareApply(b, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.MaxTxnID(); got != 7 {
		t.Fatalf("MaxTxnID = %d, want 7", got)
	}
	want := preparedTestObjects(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenExisting(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := preparedTestObjects(t, re); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered objects %v, want %v", got, want)
	}
	if !re.Allows(2, 1, 20, 20, 30) {
		t.Fatal("granted policy lost across reopen")
	}
	if got := re.MaxTxnID(); got != 7 {
		t.Fatalf("recovered MaxTxnID = %d, want 7", got)
	}
}

func TestPreparedAbortRestoresState(t *testing.T) {
	fs := store.NewCrashFS()
	opts := Options{Path: "a.idx", Durability: DurabilitySync, FS: fs}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Baseline state the abort must restore: two objects, one policy.
	if err := db.Upsert(Object{UID: 1, X: 10, Y: 10}); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Object{UID: 2, X: 20, Y: 20}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRelation(1, 2, "friend"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(1, "friend", Region{MaxX: 1000, MaxY: 1000}, TimeInterval{End: 1440}); err != nil {
		t.Fatal(err)
	}
	before := preparedTestObjects(t, db)

	// The transaction touches every mutation kind: replace, insert-fresh,
	// remove, relation, grant.
	b := db.NewBatch()
	b.Upsert(Object{UID: 1, X: 99, Y: 99})
	b.Upsert(Object{UID: 3, X: 30, Y: 30})
	b.Remove(2)
	b.DefineRelation(3, 1, "colleague")
	b.Grant(3, "colleague", Region{MaxX: 500, MaxY: 500}, TimeInterval{End: 720})
	p, err := db.PrepareApply(b, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing of the batch is visible before Commit.
	if got := preparedTestObjects(t, db); !reflect.DeepEqual(got, before) {
		t.Fatalf("mid-window state %v, want the pre-transaction %v", got, before)
	}
	if db.Allows(3, 1, 30, 30, 30) {
		t.Fatal("prepared grant in force before Commit")
	}
	if err := p.Abort(); err != nil {
		t.Fatal(err)
	}

	if got := preparedTestObjects(t, db); !reflect.DeepEqual(got, before) {
		t.Fatalf("aborted state %v, want %v", got, before)
	}
	if db.Allows(3, 1, 30, 30, 30) {
		t.Fatal("aborted grant still in force")
	}
	if !db.Allows(1, 2, 10, 10, 30) {
		t.Fatal("pre-transaction grant lost by abort")
	}

	// The aborted history must replay identically: reopen and compare.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenExisting(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := preparedTestObjects(t, re); !reflect.DeepEqual(got, before) {
		t.Fatalf("replayed state %v, want %v", got, before)
	}
	if re.Allows(3, 1, 30, 30, 30) {
		t.Fatal("aborted grant resurrected by replay")
	}
}

// resolvePending plays the coordinator on a reopened DB: it finishes the
// transaction recovery left pending with the verdict given (the tests have
// no peers to ask HoldsTxn), and fails if there is none.
func resolvePending(t *testing.T, db *DB, commit bool) {
	t.Helper()
	p := db.Pending()
	if p == nil {
		t.Fatal("recovery left no prepared transaction pending")
	}
	finish := p.Abort
	if commit {
		finish = p.Commit
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	p.Release()
}

// TestPreparedUnresolvedRecovery: a crash between prepare and marker
// leaves the record pending after recovery — durable, unapplied, holding
// the DB's commits — until the coordinator resolves it: an abort leaves
// the state as it was, a commit applies it. Either verdict is durable.
func TestPreparedUnresolvedRecovery(t *testing.T) {
	build := func() (*store.CrashFS, Options) {
		fs := store.NewCrashFS()
		opts := Options{Path: "u.idx", Durability: DurabilitySync, FS: fs}
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Upsert(Object{UID: 1, X: 10, Y: 10}); err != nil {
			t.Fatal(err)
		}
		b := db.NewBatch()
		b.Upsert(Object{UID: 2, X: 20, Y: 20})
		if _, err := db.PrepareApply(b, 5, []int{0, 3}); err != nil {
			t.Fatal(err)
		}
		// Crash before any marker is logged.
		fs.CutPower()
		fs.Reboot(false)
		return fs, opts
	}
	reopen := func(fs *store.CrashFS, opts Options) *DB {
		db, err := OpenExisting(opts)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}

	for _, commit := range []bool{false, true} {
		name := "no-resolver-aborts"
		if commit {
			name = "resolver-commits"
		}
		t.Run(name, func(t *testing.T) {
			fs, opts := build()
			db := reopen(fs, opts)
			p := db.Pending()
			if p == nil {
				t.Fatal("recovery left no prepared transaction pending")
			}
			if id, parts := p.Txn(); id != 5 || !reflect.DeepEqual(parts, []int{0, 3}) {
				t.Fatalf("pending transaction %d over %v, want 5 over [0 3]", id, parts)
			}
			if !db.HoldsTxn(5) || db.HoldsTxn(6) {
				t.Fatal("HoldsTxn does not report exactly the pending transaction")
			}
			if _, ok, _ := db.Lookup(2); ok {
				t.Fatal("pending prepared record applied before its verdict")
			}
			if err := db.Upsert(Object{UID: 9, X: 9, Y: 9}); err == nil {
				t.Fatal("commit accepted while a recovered transaction is pending")
			}
			if got := db.MaxTxnID(); got != 5 {
				t.Fatalf("MaxTxnID = %d, want 5 (stale id must stay reserved)", got)
			}
			resolvePending(t, db, commit)
			if _, ok, _ := db.Lookup(1); !ok {
				t.Fatal("pre-transaction commit lost")
			}
			if o, ok, _ := db.Lookup(2); ok != commit || (ok && o.X != 20) {
				t.Fatalf("resolved record applied = %v (%v), want %v", ok, o, commit)
			}
			if err := db.Upsert(Object{UID: 9, X: 9, Y: 9}); err != nil {
				t.Fatalf("commit after the verdict: %v", err)
			}
			// The verdict's marker is durable: a second power cut keeps it.
			fs.CutPower()
			fs.Reboot(false)
			re := reopen(fs, opts)
			defer re.Close()
			if re.Pending() != nil {
				t.Fatal("resolved transaction pending again after a power cut")
			}
			if _, ok, _ := re.Lookup(2); ok != commit {
				t.Fatalf("resolved record after a power cut = %v, want %v", ok, commit)
			}
			if re.HoldsTxn(5) != commit {
				t.Fatalf("HoldsTxn(5) after the verdict = %v, want %v", re.HoldsTxn(5), commit)
			}
		})
	}
}

// TestPreparedCheckpointInsideWindow: a checkpoint called inside a
// prepared window returns without waiting for the marker — its image
// stands just below the prepared record — and after a power cut recovery
// applies the transaction's verdict however it arrives: a durable commit
// or abort marker, or the coordinator resolving the record recovery left
// pending. Commit does not sync its marker; a later commit on the DB does.
// An acknowledged commit marker that no later commit made durable is lost
// to the power cut, and the coordinator — every prepare was durable —
// commits again. Abort syncs its marker before it returns.
func TestPreparedCheckpointInsideWindow(t *testing.T) {
	for _, tc := range []struct {
		name      string
		finish    func(*Prepared) error // nil: the power fails before any marker
		later     bool                  // one more commit after the marker
		resolve   bool                  // the coordinator's verdict on a pending record
		committed bool
	}{
		{"commit-marker", (*Prepared).Commit, true, false, true},
		{"abort-marker", (*Prepared).Abort, true, true, false},
		{"commit-unsynced-resolver-yes", (*Prepared).Commit, false, true, true},
		{"abort-marker-synced", (*Prepared).Abort, false, true, false},
		{"resolver-yes", nil, false, true, true},
		{"resolver-no", nil, false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := store.NewCrashFS()
			opts := Options{Path: "c.idx", Durability: DurabilitySync, FS: fs}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Upsert(Object{UID: 1, X: 10, Y: 10}); err != nil {
				t.Fatal(err)
			}
			b := db.NewBatch()
			b.Upsert(Object{UID: 2, X: 20, Y: 20})
			b.DefineRelation(2, 1, "friend")
			b.Grant(2, "friend", Region{MaxX: 1000, MaxY: 1000}, TimeInterval{End: 1440})
			p, err := db.PrepareApply(b, 3, []int{0, 1})
			if err != nil {
				t.Fatal(err)
			}

			ckptDone := make(chan error, 1)
			go func() { ckptDone <- db.Checkpoint() }()
			select {
			case err := <-ckptDone:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("checkpoint waited for the prepared window to close")
			}
			if tc.finish != nil {
				if err := tc.finish(p); err != nil {
					t.Fatal(err)
				}
			}
			if tc.later {
				if err := db.Upsert(Object{UID: 3, X: 30, Y: 30}); err != nil {
					t.Fatal(err)
				}
			}
			fs.CutPower()
			fs.Reboot(false)

			re, err := OpenExisting(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			markerLost := tc.finish == nil || (!tc.later && tc.committed)
			if got := re.Pending() != nil; got != markerLost {
				t.Fatalf("recovered pending = %v, want %v", got, markerLost)
			}
			if markerLost {
				resolvePending(t, re, tc.resolve)
			}
			if _, ok, _ := re.Lookup(1); !ok {
				t.Fatal("checkpointed commit lost")
			}
			if _, ok, _ := re.Lookup(3); ok != tc.later {
				t.Fatalf("later commit recovered = %v, want %v", ok, tc.later)
			}
			if _, ok, _ := re.Lookup(2); ok != tc.committed {
				t.Fatalf("prepared upsert recovered = %v, want %v", ok, tc.committed)
			}
			if got := re.Allows(2, 1, 20, 20, 30); got != tc.committed {
				t.Fatalf("prepared grant recovered = %v, want %v", got, tc.committed)
			}
		})
	}
}

// TestPreparedWindowRefusesOtherCommits: until the prepared handle is
// finished, an ordinary commit and a second prepare are refused and leave
// nothing behind; once it is, both work again.
func TestPreparedWindowRefusesOtherCommits(t *testing.T) {
	db := mustOpen(t, Options{})
	b := db.NewBatch()
	b.Upsert(Object{UID: 1, X: 1, Y: 1})
	p, err := db.PrepareApply(b, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Object{UID: 2, X: 2, Y: 2}); err == nil {
		t.Fatal("commit accepted inside a prepared window")
	}
	second := db.NewBatch()
	second.Upsert(Object{UID: 3, X: 3, Y: 3})
	if _, err := db.PrepareApply(second, 2, nil); err == nil {
		t.Fatal("second prepare accepted inside a prepared window")
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Object{UID: 2, X: 2, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if db.Size() != 2 {
		t.Fatalf("size = %d, want 2 (the prepared and the later upsert)", db.Size())
	}
}

func TestPreparedValidation(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.PrepareApply(db.NewBatch(), 1, nil); err == nil {
		t.Fatal("empty batch prepared")
	}
	b := db.NewBatch()
	b.Upsert(Object{UID: 1, X: 1, Y: 1})
	if _, err := db.PrepareApply(b, 0, nil); err == nil {
		t.Fatal("zero transaction id accepted")
	}
	// A failed prepare needs no abort and leaves no state behind.
	bad := db.NewBatch()
	bad.Remove(42) // absent user: the batch must fail
	if _, err := db.PrepareApply(bad, 2, nil); err == nil {
		t.Fatal("remove of absent user prepared")
	}
	if db.Size() != 0 {
		t.Fatalf("failed prepare left %d objects", db.Size())
	}
	// And a checkpointless in-memory DB still supports the prepare/abort
	// cycle (no WAL: nothing to log, nothing to undo).
	ok := db.NewBatch()
	ok.Upsert(Object{UID: 7, X: 5, Y: 5})
	p, err := db.PrepareApply(ok, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Abort(); err != nil {
		t.Fatal(err)
	}
	if db.Size() != 0 {
		t.Fatalf("aborted in-memory prepare left %d objects", db.Size())
	}
	if err := p.Abort(); err == nil {
		t.Fatal("double finish accepted")
	}
}

func TestPreparedErrClosed(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	b := db.NewBatch()
	b.Upsert(Object{UID: 1, X: 1, Y: 1})
	if _, err := db.PrepareApply(b, 1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("PrepareApply on closed DB = %v, want ErrClosed", err)
	}
}

// TestPreparedAbortUpsertThenRemoveFreshUser: a batch that inserts and
// then removes a brand-new user nets to "absent"; aborting it must be a
// no-op for that user, not a spurious rollback failure.
func TestPreparedAbortUpsertThenRemoveFreshUser(t *testing.T) {
	fs := store.NewCrashFS()
	opts := Options{Path: "ur.idx", Durability: DurabilitySync, FS: fs}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Upsert(Object{UID: 1, X: 10, Y: 10}); err != nil {
		t.Fatal(err)
	}
	b := db.NewBatch()
	b.Upsert(Object{UID: 8, X: 20, Y: 20}) // fresh user...
	b.Remove(8)                            // ...gone again within the batch
	b.Upsert(Object{UID: 1, X: 30, Y: 30})
	p, err := db.PrepareApply(b, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Abort(); err != nil {
		t.Fatalf("abort of net-absent fresh user failed: %v", err)
	}
	if db.Size() != 1 {
		t.Fatalf("size after abort = %d, want 1", db.Size())
	}
	if o, ok, _ := db.Lookup(1); !ok || o.X != 10 {
		t.Fatalf("user 1 after abort = %v (ok=%v), want original state", o, ok)
	}
	// The log was not poisoned: ordinary commits still work and replay.
	if err := db.Upsert(Object{UID: 2, X: 40, Y: 40}); err != nil {
		t.Fatalf("commit after abort: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenExisting(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Size() != 2 {
		t.Fatalf("replayed size = %d, want 2", re.Size())
	}
}

// TestPreparedAppendFailureRollsBack: when the prepared record cannot be
// logged, the participant must report failure with nothing half-applied —
// the in-memory batch is undone on the spot.
func TestPreparedAppendFailureRollsBack(t *testing.T) {
	fs := store.NewCrashFS()
	db, err := Open(Options{Path: "af.idx", Durability: DurabilitySync, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Upsert(Object{UID: 1, X: 10, Y: 10}); err != nil {
		t.Fatal(err)
	}
	// Kill the filesystem so the prepared record's append fails.
	fs.SetFailAfter(0)
	b := db.NewBatch()
	b.Upsert(Object{UID: 2, X: 20, Y: 20})
	b.Upsert(Object{UID: 1, X: 99, Y: 99})
	if _, err := db.PrepareApply(b, 4, nil); err == nil {
		t.Fatal("prepare succeeded on a dead log")
	}
	// Nothing of the batch is visible: the failure left a clean state.
	if _, ok, _ := db.Lookup(2); ok {
		t.Fatal("failed prepare left the fresh user applied")
	}
	if o, ok, _ := db.Lookup(1); !ok || o.X != 10 {
		t.Fatalf("failed prepare left user 1 at %v (ok=%v), want original", o, ok)
	}
	if db.Size() != 1 {
		t.Fatalf("size after failed prepare = %d, want 1", db.Size())
	}
}
