package peb

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

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

// txnPair opens a coordinator ("c.idx") and a participant ("p.idx") on fs,
// each holding one seed user (1 on the coordinator, 11 on the
// participant). segBytes, when positive, rolls the logs after every
// record, so a checkpoint drops every segment but the active one.
func txnPair(t *testing.T, fs store.VFS, segBytes int64) (c, p *DB, copts, popts Options) {
	t.Helper()
	copts = Options{Path: "c.idx", Durability: DurabilitySync, FS: fs, WALSegmentBytes: segBytes}
	popts = copts
	popts.Path = "p.idx"
	c, p = mustOpen(t, copts), mustOpen(t, popts)
	if err := c.Upsert(Object{UID: 1, X: 10, Y: 10}); err != nil {
		t.Fatal(err)
	}
	if err := p.Upsert(Object{UID: 11, X: 110, Y: 110}); err != nil {
		t.Fatal(err)
	}
	return c, p, copts, popts
}

// mustOpenExisting recovers a DB, failing the test on error.
func mustOpenExisting(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := OpenExisting(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// prepare validates b on db as participant id, failing the test on error.
func prepare(t *testing.T, db *DB, b *Batch, id int) *Prepared {
	t.Helper()
	p, err := db.Prepare(b, id)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// preparePair prepares the pair's transaction: on the coordinator it adds
// user 2 with a policy, on the participant it adds user 12 and removes
// user 11 — a part that fails if it is applied twice.
func preparePair(t *testing.T, c, p *DB) (cp, pp *Prepared) {
	t.Helper()
	cb := c.NewBatch()
	cb.Upsert(Object{UID: 2, X: 20, Y: 20})
	cb.DefineRelation(2, 1, "friend")
	cb.Grant(2, "friend", Region{MaxX: 1000, MaxY: 1000}, TimeInterval{End: 1440})
	pb := p.NewBatch()
	pb.Upsert(Object{UID: 12, X: 120, Y: 120})
	pb.Remove(11)
	return prepare(t, c, cb, 0), prepare(t, p, pb, 1)
}

// commitPair commits preparePair's transaction as txnID. The
// participant's record is left unsynced.
func commitPair(t *testing.T, c, p *DB, txnID uint64) {
	t.Helper()
	cp, pp := preparePair(t, c, p)
	if err := cp.Commit(txnID, []*Prepared{pp}); err != nil {
		t.Fatal(err)
	}
}

// redoLacking does the router's recovery step for the pair: every part
// the coordinator's log reports is redone on the participant if its
// watermark is below the transaction. It returns how many were redone.
func redoLacking(t *testing.T, c, p *DB) int {
	t.Helper()
	redone := 0
	for _, part := range c.Coordinated() {
		txnID, id := part.Txn()
		if id != 1 {
			t.Fatalf("coordinator record names participant %d, want 1", id)
		}
		if p.MaxTxnID() >= txnID {
			continue
		}
		if err := p.Redo(part); err != nil {
			t.Fatalf("redo txn %d: %v", txnID, err)
		}
		redone++
	}
	return redone
}

// checkPairCommitted asserts the pair holds commitPair's transaction.
func checkPairCommitted(t *testing.T, c, p *DB) {
	t.Helper()
	if _, ok, _ := c.Lookup(2); !ok || !c.Allows(2, 1, 20, 20, 30) {
		t.Fatal("coordinator lost its part")
	}
	if _, ok, _ := p.Lookup(12); !ok {
		t.Fatal("participant lacks user 12 of its part")
	}
	if _, ok, _ := p.Lookup(11); ok {
		t.Fatal("participant still holds user 11 its part removed")
	}
}

// TestPreparedCommitSurvivesReopen: a committed transaction survives a
// clean reopen on both sides. The coordinator replays its own part from
// its record and still reports the participant's part; the participant
// replays its sub-record; both watermarks are the transaction's id, so
// nothing is redone.
func TestPreparedCommitSurvivesReopen(t *testing.T) {
	fs := store.NewCrashFS()
	c, p, copts, popts := txnPair(t, fs, 0)
	commitPair(t, c, p, 7)
	for _, db := range []*DB{c, p} {
		if got := db.MaxTxnID(); got != 7 {
			t.Fatalf("MaxTxnID = %d, want 7", got)
		}
	}
	wantC, wantP := preparedTestObjects(t, c), preparedTestObjects(t, p)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	c, p = mustOpenExisting(t, copts), mustOpenExisting(t, popts)
	if got := preparedTestObjects(t, c); !reflect.DeepEqual(got, wantC) {
		t.Fatalf("recovered coordinator objects %v, want %v", got, wantC)
	}
	if got := preparedTestObjects(t, p); !reflect.DeepEqual(got, wantP) {
		t.Fatalf("recovered participant objects %v, want %v", got, wantP)
	}
	for _, db := range []*DB{c, p} {
		if got := db.MaxTxnID(); got != 7 {
			t.Fatalf("recovered MaxTxnID = %d, want 7", got)
		}
	}
	if n := redoLacking(t, c, p); n != 0 {
		t.Fatalf("redid %d parts the participant holds", n)
	}
	checkPairCommitted(t, c, p)
	if len(c.Coordinated()) != 0 {
		t.Fatal("Coordinated reported the parts twice")
	}
}

// TestPreparedAbortRestoresState: Prepare applies and logs nothing, so
// dropping the handle is the whole abort — the state, the log and the
// commit hooks are as before, and ordinary commits go on meanwhile.
func TestPreparedAbortRestoresState(t *testing.T) {
	fs := store.NewCrashFS()
	db := mustOpen(t, Options{Path: "a.idx", Durability: DurabilitySync, FS: fs})
	if err := db.Upsert(Object{UID: 1, X: 10, Y: 10}); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Object{UID: 2, X: 20, Y: 20}); err != nil {
		t.Fatal(err)
	}
	fired := 0
	db.AddCommitHook(func(CommitInfo, *CommitView) { fired++ })
	before, wal := preparedTestObjects(t, db), db.WALStats()

	// The part touches every mutation kind: replace, insert-fresh, remove,
	// relation, grant.
	b := db.NewBatch()
	b.Upsert(Object{UID: 1, X: 99, Y: 99})
	b.Upsert(Object{UID: 3, X: 30, Y: 30})
	b.Remove(2)
	b.DefineRelation(3, 1, "colleague")
	b.Grant(3, "colleague", Region{MaxX: 500, MaxY: 500}, TimeInterval{End: 720})
	prepare(t, db, b, 0)

	if got := preparedTestObjects(t, db); !reflect.DeepEqual(got, before) {
		t.Fatalf("state after Prepare %v, want the untouched %v", got, before)
	}
	if db.Allows(3, 1, 30, 30, 30) {
		t.Fatal("prepared grant in force")
	}
	if got := db.WALStats(); got.Appends != wal.Appends || got.Syncs != wal.Syncs {
		t.Fatalf("Prepare logged: %+v, before %+v", got, wal)
	}
	if fired != 0 {
		t.Fatalf("Prepare fired %d commit hooks", fired)
	}
	if err := db.Upsert(Object{UID: 4, X: 40, Y: 40}); err != nil {
		t.Fatalf("commit beside a prepared part: %v", err)
	}
}

// TestPreparedUnresolvedRecovery: a power cut after the commit point loses
// the participant's unsynced record. The coordinator's record decides:
// recovery reports the part, the participant's watermark shows it lacks
// it, and Redo applies it durably — a second power cut keeps it. Cut
// before the coordinator's sync, the record is lost and nothing of the
// transaction exists anywhere.
func TestPreparedUnresolvedRecovery(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "record-lost"
		if durable {
			name = "record-durable"
		}
		t.Run(name, func(t *testing.T) {
			fs := store.NewCrashFS()
			c, p, copts, popts := txnPair(t, fs, 0)
			if durable {
				commitPair(t, c, p, 5)
			} else {
				cb := c.NewBatch()
				cb.Upsert(Object{UID: 2, X: 20, Y: 20})
				pb := p.NewBatch()
				pb.Upsert(Object{UID: 12, X: 120, Y: 120})
				cp, pp := prepare(t, c, cb, 0), prepare(t, p, pb, 1)
				fs.SetFailAfter(1) // the record's append lands, its sync fails
				if err := cp.Commit(5, []*Prepared{pp}); err == nil {
					t.Fatal("Commit succeeded on a dying filesystem")
				}
			}
			fs.CutPower()
			fs.Reboot(false)

			c, p = mustOpenExisting(t, copts), mustOpenExisting(t, popts)
			if p.MaxTxnID() != 0 {
				t.Fatalf("participant watermark %d, want 0: its record was never durable", p.MaxTxnID())
			}
			want := 0
			if durable {
				want = 1
			}
			if n := redoLacking(t, c, p); n != want {
				t.Fatalf("redid %d parts, want %d", n, want)
			}
			if durable {
				checkPairCommitted(t, c, p)
			} else {
				for _, db := range []*DB{c, p} {
					if db.Size() != 1 || db.MaxTxnID() != 0 {
						t.Fatalf("lost transaction left %d objects, watermark %d", db.Size(), db.MaxTxnID())
					}
				}
			}

			// Redo synced its record: a second power cut keeps the verdict.
			fs.CutPower()
			fs.Reboot(false)
			c, p = mustOpenExisting(t, copts), mustOpenExisting(t, popts)
			if n := redoLacking(t, c, p); n != 0 {
				t.Fatalf("second recovery redid %d parts", n)
			}
			if _, ok, _ := p.Lookup(12); ok != durable {
				t.Fatalf("participant holds user 12: %v, want %v", ok, durable)
			}
		})
	}
}

// walSyncFailFS is a CrashFS whose log files fail every Sync once armed;
// every other operation, page-file and checkpoint I/O included, works.
type walSyncFailFS struct {
	*store.CrashFS
	armed atomic.Bool
}

func (f *walSyncFailFS) OpenFile(name string) (store.VFile, error) {
	vf, err := f.CrashFS.OpenFile(name)
	if err != nil || !strings.Contains(name, ".wal.") {
		return vf, err
	}
	return walSyncFailFile{vf, &f.armed}, nil
}

type walSyncFailFile struct {
	store.VFile
	armed *atomic.Bool
}

func (f walSyncFailFile) Sync() error {
	if f.armed.Load() {
		return errors.New("injected wal sync failure")
	}
	return f.VFile.Sync()
}

// TestCoordinateSyncFailureRefusesCheckpoint: only the coordinator's log
// fsync fails, so its record may be on disk or not while both parts are
// applied in memory. A checkpoint on either side after the failed Commit
// must refuse: one on the coordinator would cover the record, and
// recovery would redo the participant's part but skip the coordinator's;
// one on the participant would persist a part its watermark lacks. After
// a power cut the pair holds the whole transaction if the record's bytes
// survived and none of it otherwise.
func TestCoordinateSyncFailureRefusesCheckpoint(t *testing.T) {
	for _, keep := range []bool{false, true} {
		t.Run(fmt.Sprintf("keep=%v", keep), func(t *testing.T) {
			fs := &walSyncFailFS{CrashFS: store.NewCrashFS()}
			c, p, copts, popts := txnPair(t, fs, 0)
			cp, pp := preparePair(t, c, p)
			fs.armed.Store(true)
			if err := cp.Commit(5, []*Prepared{pp}); err == nil {
				t.Fatal("Commit succeeded with a failing log fsync")
			}
			if err := c.Checkpoint(); err == nil || c.CheckpointStats().Checkpoints != 0 {
				t.Fatalf("checkpoint cut behind a coordinator record whose fsync failed (err %v)", err)
			}
			if err := p.Checkpoint(); err == nil || p.CheckpointStats().Checkpoints != 0 {
				t.Fatalf("participant checkpointed a part of an undecided transaction (err %v)", err)
			}
			fs.CutPower()
			fs.Reboot(keep)

			copts.FS, popts.FS = fs.CrashFS, fs.CrashFS
			c, p = mustOpenExisting(t, copts), mustOpenExisting(t, popts)
			want := 0
			if keep {
				want = 1
			}
			if n := redoLacking(t, c, p); n != want {
				t.Fatalf("redid %d parts, want %d", n, want)
			}
			if keep {
				checkPairCommitted(t, c, p)
				return
			}
			if _, ok, _ := c.Lookup(2); ok {
				t.Fatal("coordinator holds user 2 of a lost transaction")
			}
			if _, ok, _ := p.Lookup(11); !ok || p.Size() != 1 {
				t.Fatalf("participant changed by a lost transaction: holds 11 %v, size %d", ok, p.Size())
			}
		})
	}
}

// TestPreparedCheckpointInsideWindow: a checkpoint between the commit
// point and the participant's record becoming durable, then a power cut.
// On the participant, the checkpoint covers the record and drops its
// segment: the watermark must come from the checkpoint, or recovery redoes
// the part a second time (and its remove fails). On the coordinator, the
// hold keeps the record's segment past its checkpoint, so the part the
// power cut took from the participant is redone.
func TestPreparedCheckpointInsideWindow(t *testing.T) {
	for _, who := range []string{"participant", "coordinator"} {
		t.Run(who, func(t *testing.T) {
			fs := store.NewCrashFS()
			c, p, copts, popts := txnPair(t, fs, 1)
			commitPair(t, c, p, 3)
			ckpt := c
			if who == "participant" {
				ckpt = p
			}
			// One more commit seals the segment holding the record, then
			// the checkpoint drops what it covers.
			if err := ckpt.Upsert(Object{UID: 9, X: 90, Y: 90}); err != nil {
				t.Fatal(err)
			}
			if err := ckpt.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if ckpt.CheckpointStats().WALSegmentsRemoved == 0 {
				t.Fatal("checkpoint dropped no segment")
			}
			fs.CutPower()
			fs.Reboot(false)

			c, p = mustOpenExisting(t, copts), mustOpenExisting(t, popts)
			want := 1
			if who == "participant" {
				want = 0
				if p.MaxTxnID() != 3 {
					t.Fatalf("participant watermark %d after its checkpoint, want 3", p.MaxTxnID())
				}
			}
			if n := redoLacking(t, c, p); n != want {
				t.Fatalf("redid %d parts, want %d", n, want)
			}
			checkPairCommitted(t, c, p)
		})
	}
}

func TestPreparedValidation(t *testing.T) {
	db := mustOpen(t, Options{})
	if _, err := db.Prepare(db.NewBatch(), 0); err == nil {
		t.Fatal("empty batch prepared")
	}
	// A refused part leaves no state behind.
	bad := db.NewBatch()
	bad.Remove(42) // absent user: the batch must fail
	if _, err := db.Prepare(bad, 0); err == nil {
		t.Fatal("remove of an absent user prepared")
	}
	region := db.NewBatch()
	region.Grant(1, "f", Region{MinX: 5, MaxX: 1}, TimeInterval{End: 1})
	if _, err := db.Prepare(region, 0); !errors.Is(err, ErrInvalidRegion) {
		t.Fatalf("inverted grant region: err = %v, want ErrInvalidRegion", err)
	}
	ok := db.NewBatch()
	ok.Upsert(Object{UID: 7, X: 5, Y: 5})
	p := prepare(t, db, ok, 0)
	if err := p.Commit(0, nil); err == nil {
		t.Fatal("transaction id 0 accepted")
	}
	if db.Size() != 0 || db.MaxTxnID() != 0 {
		t.Fatalf("refused parts left %d objects, watermark %d", db.Size(), db.MaxTxnID())
	}
	// A memory-backed DB runs the protocol without a log.
	if err := p.Commit(1, nil); err != nil {
		t.Fatal(err)
	}
	if db.Size() != 1 || db.MaxTxnID() != 1 || !p.Durable() {
		t.Fatalf("after Commit: %d objects, watermark %d, durable %v", db.Size(), db.MaxTxnID(), p.Durable())
	}
}

func TestPreparedErrClosed(t *testing.T) {
	db := mustOpen(t, Options{})
	b := db.NewBatch()
	b.Upsert(Object{UID: 1, X: 1, Y: 1})
	p := prepare(t, db, b, 0)
	q := prepare(t, db, b, 0)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Prepare(b, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Prepare on a closed DB: %v", err)
	}
	if err := p.Commit(1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit on a closed DB: %v", err)
	}
	if err := db.Redo(q); !errors.Is(err, ErrClosed) {
		t.Fatalf("Redo on a closed DB: %v", err)
	}
}

// TestPreparedAbortUpsertThenRemoveFreshUser: a part that inserts and then
// removes a brand-new user nets to "absent". It validates, dropping it
// changes nothing, and committing it leaves the user absent with the log
// intact: the DB replays to the same state.
func TestPreparedAbortUpsertThenRemoveFreshUser(t *testing.T) {
	fs := store.NewCrashFS()
	opts := Options{Path: "ur.idx", Durability: DurabilitySync, FS: fs}
	db := mustOpen(t, opts)
	if err := db.Upsert(Object{UID: 1, X: 10, Y: 10}); err != nil {
		t.Fatal(err)
	}
	part := func() *Batch {
		b := db.NewBatch()
		b.Upsert(Object{UID: 8, X: 20, Y: 20}) // fresh user...
		b.Remove(8)                            // ...gone again within the batch
		b.Upsert(Object{UID: 1, X: 30, Y: 30})
		return b
	}
	prepare(t, db, part(), 0) // dropped
	if o, ok, _ := db.Lookup(1); !ok || o.X != 10 || db.Size() != 1 {
		t.Fatalf("dropped part changed the state: %v %v, size %d", o, ok, db.Size())
	}
	if err := prepare(t, db, part(), 0).Commit(11, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Object{UID: 2, X: 40, Y: 40}); err != nil {
		t.Fatal(err)
	}
	want := preparedTestObjects(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpenExisting(t, opts)
	if got := preparedTestObjects(t, re); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestPreparedAppendFailureRollsBack: when the coordinator's record cannot
// be logged, Commit fails with nothing of its part applied, and the
// log is poisoned so that no later commit lands behind a record that may
// be on disk.
func TestPreparedAppendFailureRollsBack(t *testing.T) {
	fs := store.NewCrashFS()
	db := mustOpen(t, Options{Path: "af.idx", Durability: DurabilitySync, FS: fs})
	if err := db.Upsert(Object{UID: 1, X: 10, Y: 10}); err != nil {
		t.Fatal(err)
	}
	b := db.NewBatch()
	b.Upsert(Object{UID: 2, X: 20, Y: 20})
	b.Upsert(Object{UID: 1, X: 99, Y: 99})
	p := prepare(t, db, b, 0)
	// Kill the filesystem so the record's append fails.
	fs.SetFailAfter(0)
	if err := p.Commit(4, nil); err == nil {
		t.Fatal("Commit succeeded with a failing append")
	}
	if _, ok, _ := db.Lookup(2); ok {
		t.Fatal("user 2 of the failed transaction is visible")
	}
	if o, ok, _ := db.Lookup(1); !ok || o.X != 10 || db.Size() != 1 {
		t.Fatalf("failed transaction changed the state: %v %v, size %d", o, ok, db.Size())
	}
	if err := db.Upsert(Object{UID: 3, X: 30, Y: 30}); err == nil {
		t.Fatal("commit accepted behind a failed coordinator record")
	}
}
