package sharded

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/store"
)

// crossShardBatch builds a batch guaranteed to span at least two shards
// (one upsert in each shard's first cell), forcing the cross-shard path.
func crossShardBatch(t *testing.T, db *DB, rng *rand.Rand, uids []UserID, now float64) *Batch {
	t.Helper()
	side := db.shards[0].Bounds().MaxX
	b := db.NewBatch()
	placed := 0
	for _, uid := range uids {
		for tries := 0; tries < 64; tries++ {
			x, y := rng.Float64()*side, rng.Float64()*side
			if db.shardOf(x, y) == placed%db.Shards() {
				b.Upsert(Object{UID: uid, X: x, Y: y, T: now})
				placed++
				break
			}
		}
	}
	if placed < 2 {
		t.Fatal("failed to construct a cross-shard batch")
	}
	return b
}

// retentionOpts rolls the shard logs after every record, so a shard
// checkpoint drops every segment but the one holding its newest record —
// unless a hold keeps them.
func retentionOpts(fs store.VFS) Options {
	opts := crashShardedOpts(fs)
	opts.DB.WALSegmentBytes = 1
	return opts
}

// walSegments lists the log segments of the shard in slot i.
func walSegments(t *testing.T, db *DB, i int) []uint64 {
	t.Helper()
	idxs, err := store.ListWALSegments(db.fs, filepath.Join(shardDir("root", db.metas[i].id), "peb.idx.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return idxs
}

// TestPreparedRecordRetention: only the coordinator holds its log. A
// committed cross-shard transaction keeps the coordinator's record through
// the coordinator's checkpoints until it is settled — every other part
// durable — while a participant's checkpoint drops the segment holding its
// part as freely as any other. The first checkpoint after the router
// settles drops the coordinator's record too.
func TestPreparedRecordRetention(t *testing.T) {
	fs := store.NewCrashFS()
	db, err := Open(retentionOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	at := quadrantSlots(t, db)
	for i, q := range at {
		if err := db.Upsert(Object{UID: UserID(i + 1), X: q[0], Y: q[1], T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	apply := func(uid UserID, slots ...int) {
		t.Helper()
		b := db.NewBatch()
		for k, s := range slots {
			b.Upsert(Object{UID: uid + UserID(k), X: at[s][0] + 10, Y: at[s][1] + 10, T: 2})
		}
		if err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	upsert := func(slot int) {
		t.Helper()
		if err := db.Upsert(Object{UID: UserID(slot + 1), X: at[slot][0] + 5, Y: at[slot][1] + 5, T: 3}); err != nil {
			t.Fatal(err)
		}
	}

	// X spans slots 0 and 1, so slot 0 coordinates. Each log rolls into a
	// fresh segment for X's record.
	coordSeg := slices.Max(walSegments(t, db, 0)) + 1
	partSeg := slices.Max(walSegments(t, db, 1)) + 1
	apply(101, 0, 1)

	// The participant's checkpoint is not held: a plain commit seals the
	// segment holding its part (and syncs it), and the checkpoint drops it.
	upsert(1)
	if err := db.shards[1].Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if segs := walSegments(t, db, 1); segs[0] <= partSeg {
		t.Fatalf("participant checkpoint kept segments %v, want all above %d", segs, partSeg)
	}
	// Nothing has settled since: the coordinator's checkpoint keeps the
	// record's segment.
	upsert(0)
	if err := db.shards[0].Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if segs := walSegments(t, db, 0); !slices.Contains(segs, coordSeg) {
		t.Fatalf("checkpoint inside the unsettled window dropped the coordinator record's segment %d (left %v)", coordSeg, segs)
	}
	// The router's Checkpoint settles X first: its shard checkpoints drop
	// the record.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if segs := walSegments(t, db, 0); segs[0] <= coordSeg {
		t.Fatalf("checkpoint after the settle kept segments %v, want all above %d", segs, coordSeg)
	}

	// Transactions keep working, and survive a reopen, after truncation.
	apply(103, 1, 2)
	apply(105, 0, 3)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(retentionOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, uid := range []UserID{101, 102, 103, 104, 105, 106} {
		if _, ok, err := re.Lookup(uid); err != nil || !ok {
			t.Fatalf("user %d lost across truncation and reopen: ok=%v err=%v", uid, ok, err)
		}
	}
	if re.nextTxn <= 3 {
		t.Fatalf("reopened nextTxn %d reuses an id a shard log still holds", re.nextTxn)
	}
}

// TestUnsettledBacklogBounded: participants that take no commit of their
// own never sync their parts, so without a bound every coordinator record
// would stay held and the coordinator's checkpoints would drop nothing.
// Only cross-shard batches run here; the backlog must stay at most
// maxUnsettled, and a checkpoint of the coordinator must keep no more
// segments than that many records need.
func TestUnsettledBacklogBounded(t *testing.T) {
	fs := store.NewCrashFS()
	db, err := Open(retentionOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	at := quadrantSlots(t, db)
	// Each batch moves users 201 and 202 within slots 0 and 1: slot 0
	// coordinates, slot 1 only ever commits parts.
	for i := 0; i < 3*maxUnsettled; i++ {
		b := db.NewBatch()
		for k, s := range []int{0, 1} {
			b.Upsert(Object{UID: UserID(201 + k), X: at[s][0] + float64(i%50), Y: at[s][1] + 10, T: float64(i)})
		}
		if err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
		db.txnMu.Lock()
		backlog := len(db.unsettled)
		db.txnMu.Unlock()
		if backlog > maxUnsettled {
			t.Fatalf("after %d batches %d transactions wait to settle, want at most %d", i+1, backlog, maxUnsettled)
		}
	}
	if err := db.shards[0].Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One record per segment: at most maxUnsettled held records, plus the
	// active segment.
	if segs := walSegments(t, db, 0); len(segs) > maxUnsettled+1 {
		t.Fatalf("coordinator keeps %d log segments after its checkpoint, want at most %d", len(segs), maxUnsettled+1)
	}
}

// TestParticipantCheckpointKeepsWatermark: a participant whose checkpoint
// covers its part of a transaction and drops the segment holding it still
// holds the transaction after a power cut, by the watermark its checkpoint
// persisted — the coordinator has not settled, so its record asks. Read
// from the log alone, the watermark would miss the transaction and the
// reopen would redo the part, whose eviction fails the second time.
func TestParticipantCheckpointKeepsWatermark(t *testing.T) {
	fs := store.NewCrashFS()
	db, err := Open(retentionOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	at := quadrantSlots(t, db)
	for i, q := range at {
		if err := db.Upsert(Object{UID: UserID(i + 1), X: q[0], Y: q[1], T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Move user 2 from slot 1 to slot 0: slot 0 coordinates, slot 1's part
	// is the eviction.
	b := db.NewBatch()
	b.Upsert(Object{UID: 2, X: at[0][0] + 10, Y: at[0][1] + 10, T: 2})
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	// A plain commit on slot 1 seals the segment with its part; the
	// checkpoint covers the part and drops that segment.
	if err := db.Upsert(Object{UID: 102, X: at[1][0] + 5, Y: at[1][1] + 5, T: 3}); err != nil {
		t.Fatal(err)
	}
	if err := db.shards[1].Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs.CutPower()
	fs.Reboot(false)

	re, err := Open(retentionOpts(fs))
	if err != nil {
		t.Fatalf("reopen after the participant's checkpoint: %v", err)
	}
	defer re.Close()
	for _, e := range re.Events().Recent(0) {
		if e.Type == "txn.recover" {
			t.Fatalf("a part the participant holds was redone: %+v", e)
		}
	}
	if o, ok, _ := re.Lookup(2); !ok || o.T != 2 {
		t.Fatalf("moved user 2 = %v (ok=%v), want its update", o, ok)
	}
	if got := re.Size(); got != 5 {
		t.Fatalf("reopened router holds %d users, want 5", got)
	}
}

// checkTxnUsers asserts the users of one batch are present all together
// or not at all, and reports which.
func checkTxnUsers(t *testing.T, db *DB, label string, uids ...UserID) bool {
	t.Helper()
	present := 0
	for _, uid := range uids {
		if _, ok, err := db.Lookup(uid); err != nil {
			t.Fatalf("%s: lookup %d: %v", label, uid, err)
		} else if ok {
			present++
		}
	}
	if present != 0 && present != len(uids) {
		t.Fatalf("%s: cross-shard batch %v recovered partially: %d of %d users", label, uids, present, len(uids))
	}
	return present > 0
}

// sweepCrashes runs the workload once to count its filesystem operations,
// then once per fault point under both reboot models, and hands every
// recovered router to check twice — after the crash, and after a clean
// reopen — expecting the same verdict from both.
func sweepCrashes(t *testing.T, opts func(store.VFS) Options, run func(*store.CrashFS),
	check func(db *DB, label string) string) {
	t.Helper()
	golden := store.NewCrashFS()
	run(golden)
	total := golden.Ops()
	for _, keepUnsynced := range []bool{false, true} {
		for k := 0; k < total; k++ {
			label := fmt.Sprintf("k=%d/%d keep=%v", k, total, keepUnsynced)
			fs := store.NewCrashFS()
			fs.SetFailAfter(k)
			run(fs)
			if !fs.Dead() {
				fs.CutPower()
			}
			fs.Reboot(keepUnsynced)
			var verdicts [2]string
			for n := range verdicts {
				db, err := Open(opts(fs))
				if err != nil {
					t.Fatalf("%s: recovery %d failed: %v", label, n+1, err)
				}
				verdicts[n] = check(db, label)
				if err := db.Close(); err != nil {
					t.Fatalf("%s: close: %v", label, err)
				}
			}
			if verdicts[0] != verdicts[1] {
				t.Fatalf("%s: verdict flipped across reopens: %s -> %s", label, verdicts[0], verdicts[1])
			}
		}
	}
}

// overlapRun seeds one user per quadrant, then commits X over the shards
// of quadrants 0 and 1 and Y over those of quadrants 0 and 2, and
// checkpoints the shard of quadrant 0 inside their unsettled window: no
// other part of either transaction is durable yet. Where that shard
// coordinates, the checkpoint must keep the record, or a crash before the
// other parts are durable leaves nothing to redo them from; where it
// takes part, the checkpoint's watermark must keep its part from being
// redone.
func overlapRun(fs *store.CrashFS) {
	db, err := Open(retentionOpts(fs))
	if err != nil {
		return
	}
	defer db.Close()
	for i, q := range quadrant {
		if err := db.Upsert(Object{UID: UserID(i + 1), X: q[0], Y: q[1], T: 1}); err != nil {
			return
		}
	}
	for _, txn := range [][3]int{{101, 0, 1}, {103, 0, 2}} {
		b := db.NewBatch()
		for k, qi := range txn[1:] {
			q := quadrant[qi]
			b.Upsert(Object{UID: UserID(txn[0] + k), X: q[0] + 10, Y: q[1] + 10, T: 2})
		}
		if err := db.Apply(b); err != nil {
			return
		}
	}
	_ = db.shards[db.shardOf(quadrant[0][0], quadrant[0][1])].Checkpoint()
}

// TestShardedCrashApplyOverlapsCheckpoint cuts power at every filesystem
// operation of overlapRun: both batches recover all-or-nothing, and the
// same way on a second reopen.
func TestShardedCrashApplyOverlapsCheckpoint(t *testing.T) {
	sweepCrashes(t, retentionOpts, overlapRun, func(db *DB, label string) string {
		x := checkTxnUsers(t, db, label+" X", 101, 102)
		y := checkTxnUsers(t, db, label+" Y", 103, 104)
		if y && !x {
			t.Fatalf("%s: Y recovered without X, which committed first", label)
		}
		return fmt.Sprintf("X=%v Y=%v", x, y)
	})
}

// mergeAfterApplyRun seeds three users per quadrant, commits one batch
// over every shard, then merges shard 0 away: the migration's own
// cross-shard batches join the unsettled ones, and the merge must settle
// them all before its manifest stops listing the source.
func mergeAfterApplyRun(fs *store.CrashFS) {
	db, err := Open(crashShardedOpts(fs))
	if err != nil {
		return
	}
	defer db.Close()
	u := 1
	for _, q := range quadrant {
		for j := 0; j < 3; j++ {
			if err := db.Upsert(Object{UID: UserID(u), X: q[0] + float64(j*7), Y: q[1] + float64(j*7), T: 1}); err != nil {
				return
			}
			u++
		}
	}
	b := db.NewBatch()
	for i, q := range quadrant {
		b.Upsert(Object{UID: UserID(txnUserBase + i + 1), X: q[0] + 30, Y: q[1] + 30, T: 1})
	}
	if err := db.Apply(b); err != nil {
		return
	}
	_ = db.Merge(0)
}

// TestShardedCrashMergeAfterApply cuts power at every filesystem operation
// of mergeAfterApplyRun: the topology is consistent, every object lives
// once in the shard routing it, the batch is all-or-nothing, and once the
// merge is visible nothing acknowledged before it is missing.
func TestShardedCrashMergeAfterApply(t *testing.T) {
	sweepCrashes(t, crashShardedOpts, mergeAfterApplyRun, func(db *DB, label string) string {
		n := checkReshardRecovery(t, db, label, "merge")
		txn := checkTxnUsers(t, db, label, txnUserBase+1, txnUserBase+2, txnUserBase+3, txnUserBase+4)
		if n == 3 && (!txn || db.Size() != 16) {
			t.Fatalf("%s: merged topology holds %d users (batch present: %v), want all 16", label, db.Size(), txn)
		}
		return fmt.Sprintf("shards=%d size=%d txn=%v", n, db.Size(), txn)
	})
}
