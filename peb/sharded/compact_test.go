package sharded

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/store"
	"repro/peb"
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

// TestDecisionLogCompaction drives cross-shard transactions, checkpoints,
// and verifies the decision log collapses to its watermark record — and
// that transactions, recovery, and id monotonicity all survive the
// compaction.
func TestDecisionLogCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 3, Dir: dir, DB: peb.Options{Durability: peb.DurabilitySync}}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	uids := []UserID{1, 2, 3, 4}
	now := 1.0
	for i := 0; i < 8; i++ {
		now++
		if err := db.Apply(crossShardBatch(t, db, rng, uids, now)); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore := db.txnLog.Size()
	if sizeBefore == 0 {
		t.Fatal("no decisions logged; the batches did not take the 2PC path")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sizeAfter := db.txnLog.Size()
	if sizeAfter >= sizeBefore {
		t.Fatalf("decision log did not shrink: %d -> %d bytes", sizeBefore, sizeAfter)
	}
	// A second checkpoint with no new decisions must not touch the log.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.txnLog.Size(); got != sizeAfter {
		t.Fatalf("idle checkpoint rewrote the decision log: %d -> %d bytes", sizeAfter, got)
	}
	wantNext := db.nextTxn

	// Transactions keep working after compaction.
	now++
	if err := db.Apply(crossShardBatch(t, db, rng, uids, now)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the watermark must keep the id allocator monotonic, and the
	// data must be intact.
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.nextTxn <= wantNext {
		t.Fatalf("transaction ids went backwards across compaction: reopened nextTxn %d, watermarked %d", db2.nextTxn, wantNext)
	}
	for _, uid := range uids {
		o, ok, err := db2.Lookup(uid)
		if err != nil || !ok {
			t.Fatalf("user %d lost after compaction+reopen: ok=%v err=%v", uid, ok, err)
		}
		if o.T != now {
			t.Fatalf("user %d stale after reopen: t=%g want %g", uid, o.T, now)
		}
	}
	now++
	if err := db2.Apply(crossShardBatch(t, db2, rng, uids, now)); err != nil {
		t.Fatal(err)
	}
}

// compactionCrashOpts rolls the shard logs after every record, so a shard
// checkpoint drops every segment but the one holding its newest record.
func compactionCrashOpts(fs store.VFS) Options {
	opts := crashShardedOpts(fs)
	opts.DB.WALSegmentBytes = 1
	return opts
}

// compactionCrashRun is the workload the compaction sweep cuts power on:
// three cross-shard transactions, one plain commit per shard — so that no
// shard's newest log record carries a transaction id, and the shard
// checkpoints drop every record that does — then a Checkpoint, whose last
// step folds the decision log down to its watermark. It returns the
// highest transaction id handed out and the filesystem op count at which
// the Checkpoint began (both zero if the filesystem died before that).
func compactionCrashRun(t *testing.T, fs *store.CrashFS) (handedOut uint64, ckptStart int) {
	db, err := Open(compactionCrashOpts(fs))
	if err != nil {
		return 0, 0
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(33))
	for i := 1; i <= 3; i++ {
		if err := db.Apply(crossShardBatch(t, db, rng, []UserID{1, 2, 3, 4}, float64(i))); err != nil {
			return 0, 0
		}
	}
	for i, q := range quadrant {
		if err := db.Upsert(Object{UID: UserID(11 + i), X: q[0], Y: q[1], T: 3}); err != nil {
			return 0, 0
		}
	}
	handedOut, ckptStart = db.nextTxn-1, fs.Ops()
	_ = db.Checkpoint()
	return handedOut, ckptStart
}

// TestDecisionLogCompactionCrashSweep cuts power at every filesystem
// operation of a Checkpoint — the shard checkpoints that truncate the
// shard logs, then the decision log's seal, watermark and segment drop —
// and reopens under both reboot models. Whatever survived, the id
// allocator must resume above every id handed out before the crash (the
// shard logs that also carried them may be gone), the committed data must
// be intact, and cross-shard transactions must keep committing.
func TestDecisionLogCompactionCrashSweep(t *testing.T) {
	golden := store.NewCrashFS()
	handedOut, ckptStart := compactionCrashRun(t, golden)
	total := golden.Ops()
	if handedOut < 3 || total-ckptStart < 10 {
		t.Fatalf("golden run handed out %d ids and its checkpoint spans ops %d..%d", handedOut, ckptStart, total)
	}
	if idxs, err := store.ListWALSegments(golden, "root/txn.log"); err != nil || len(idxs) != 1 || idxs[0] == 1 {
		t.Fatalf("golden decision log segments = %v (%v), want the one post-compaction segment", idxs, err)
	}
	t.Logf("sweeping fault points %d..%d", ckptStart, total)

	for _, keepUnsynced := range []bool{false, true} {
		for k := ckptStart; k < total; k++ {
			label := fmt.Sprintf("k=%d keep=%v", k, keepUnsynced)
			fs := store.NewCrashFS()
			fs.SetFailAfter(k)
			compactionCrashRun(t, fs)
			if !fs.Dead() {
				fs.CutPower()
			}
			fs.Reboot(keepUnsynced)

			db, err := Open(compactionCrashOpts(fs))
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", label, err)
			}
			if db.nextTxn <= handedOut {
				t.Fatalf("%s: transaction ids went backwards: reopened nextTxn %d, %d handed out before the crash", label, db.nextTxn, handedOut)
			}
			for uid := UserID(1); uid <= 4; uid++ {
				if o, ok, err := db.Lookup(uid); err != nil || !ok || o.T != 3 {
					t.Fatalf("%s: user %d after recovery = %+v ok=%v err=%v, want t=3", label, uid, o, ok, err)
				}
			}
			rng := rand.New(rand.NewSource(int64(k)))
			if err := db.Apply(crossShardBatch(t, db, rng, []UserID{1, 2, 3, 4}, 4)); err != nil {
				t.Fatalf("%s: cross-shard apply after recovery: %v", label, err)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
		}
	}
}
