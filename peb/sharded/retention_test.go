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
// (one upsert in each shard's first cell), forcing the 2PC path.
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

// TestPreparedRecordRetention: a committed cross-shard transaction holds
// its participants' logs until it is settled — every participant's marker
// durable. A participant's checkpoint inside that window keeps the segment
// with the prepared record, even once its own marker is durable; the first
// checkpoint after the router settles drops it.
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

	// X spans slots 0 and 1; slot 0's log rolls into a fresh segment for
	// X's prepared record.
	prepSeg := slices.Max(walSegments(t, db, 0)) + 1
	apply(101, 0, 1)
	// Y spans slots 1 and 2: its prepare syncs slot 1's marker of X, but
	// slot 0's is not durable yet, so settling at Y keeps X's holds.
	apply(103, 1, 2)
	// A plain commit on slot 0 makes its marker durable too; nothing has
	// settled since, so slot 0's checkpoint still keeps the record.
	if err := db.Upsert(Object{UID: 1, X: at[0][0] + 5, Y: at[0][1] + 5, T: 3}); err != nil {
		t.Fatal(err)
	}
	if err := db.shards[0].Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if segs := walSegments(t, db, 0); !slices.Contains(segs, prepSeg) {
		t.Fatalf("checkpoint inside the unsettled window dropped the prepared record's segment %d (left %v)", prepSeg, segs)
	}
	// The router's Checkpoint settles X first: its shard checkpoints drop
	// the record.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if segs := walSegments(t, db, 0); segs[0] <= prepSeg {
		t.Fatalf("checkpoint after the settle kept segments %v, want all above %d", segs, prepSeg)
	}

	// Transactions keep working, and survive a reopen, after truncation.
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
// checkpoints the shard of quadrant 0 inside X's unsettled window: Y's
// prepare makes that shard's marker of X durable, so settling at Y sees
// only quadrant 1's marker missing. The checkpoint must keep X's prepared
// record, or a crash before quadrant 1's marker is durable leaves that
// shard asking a peer that no longer holds it.
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
