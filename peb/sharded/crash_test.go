package sharded

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/store"
	"repro/peb"
)

// The cross-shard crash suite: a fault point sweeps over every filesystem
// operation of a run that commits a batch spanning all shards, the
// machine "loses power" there, and recovery must restore an
// all-or-nothing verdict — the batch's users are present in full or not
// at all, on both the pessimistic (unsynced writes lost) and optimistic
// (unsynced writes survived) reboot models.

// crashShardedOpts builds the options for the crash runs.
func crashShardedOpts(fs store.VFS) Options {
	return Options{
		Shards: 4,
		Dir:    "root",
		DB: peb.Options{
			Durability: peb.DurabilitySync,
			FS:         fs,
		},
	}
}

// Positions in the four quadrants of the default 1000×1000 space — with
// four shards, the Hilbert split assigns one quadrant per shard, so the
// transaction users span every shard.
var quadrant = [4][2]float64{{250, 250}, {250, 750}, {750, 750}, {750, 250}}

const txnUserBase = 100 // transaction users: 101..104

// crashShardedRun is the workload the fault point sweeps over: seed four
// users (one per shard), then commit one cross-shard batch that adds four
// more and moves a seed user across shards. All errors are ignored — the
// filesystem is dying mid-run by design.
func crashShardedRun(fs store.VFS) {
	db, err := Open(crashShardedOpts(fs))
	if err != nil {
		return
	}
	defer db.Close()
	for i, q := range quadrant {
		if err := db.Upsert(Object{UID: UserID(i + 1), X: q[0], Y: q[1], T: 1}); err != nil {
			return
		}
	}
	b := db.NewBatch()
	for i, q := range quadrant {
		b.Upsert(Object{UID: UserID(txnUserBase + i + 1), X: q[0] + 10, Y: q[1] + 10, T: 2})
	}
	// Move seed user 1 from quadrant 0 to quadrant 2 inside the same
	// transaction: its eviction from the old shard must be atomic with the
	// insert into the new one.
	b.Upsert(Object{UID: 1, X: quadrant[2][0] - 20, Y: quadrant[2][1] - 20, T: 2})
	_ = db.Apply(b)
}

// checkAllOrNothing asserts the recovered state is consistent: the four
// transaction users are all present or all absent; the moved user exists
// exactly once, at either its old or new position consistent with the
// batch verdict.
func checkAllOrNothing(t *testing.T, db *DB, label string) {
	t.Helper()
	present := 0
	for i := range quadrant {
		if _, ok, err := db.Lookup(UserID(txnUserBase + i + 1)); err != nil {
			t.Fatalf("%s: lookup: %v", label, err)
		} else if ok {
			present++
		}
	}
	if present != 0 && present != len(quadrant) {
		t.Fatalf("%s: cross-shard batch recovered partially: %d of %d users", label, present, len(quadrant))
	}
	committed := present == len(quadrant)

	// The moved user: exactly one copy, and at the position matching the
	// batch verdict (seed commits may themselves have been lost before
	// they were acknowledged, so absence is legal only while the batch is
	// absent too).
	o, ok, err := db.Lookup(1)
	if err != nil {
		t.Fatalf("%s: lookup moved user: %v", label, err)
	}
	switch {
	case committed && (!ok || o.T != 2):
		t.Fatalf("%s: batch committed but moved user is %v (ok=%v)", label, o, ok)
	case !committed && ok && o.T == 2:
		t.Fatalf("%s: batch aborted but moved user carries its update", label)
	}
}

func TestShardedCrashMidCrossShardCommit(t *testing.T) {
	golden := store.NewCrashFS()
	crashShardedRun(golden)
	total := golden.Ops()
	if total < 20 {
		t.Fatalf("suspiciously few fault points: %d", total)
	}
	// Sanity: the golden run committed the batch.
	{
		db, err := Open(crashShardedOpts(golden))
		if err != nil {
			t.Fatalf("golden reopen: %v", err)
		}
		if db.Size() != 8 {
			t.Fatalf("golden run holds %d users, want 8", db.Size())
		}
		checkAllOrNothing(t, db, "golden")
		if o, _, _ := db.Lookup(1); o.T != 2 {
			t.Fatalf("golden run lost the move: %v", o)
		}
		db.Close()
	}

	for _, keepUnsynced := range []bool{false, true} {
		for k := 0; k < total; k++ {
			label := fmt.Sprintf("k=%d keep=%v", k, keepUnsynced)
			fs := store.NewCrashFS()
			fs.SetFailAfter(k)
			crashShardedRun(fs)
			if !fs.Dead() {
				fs.CutPower()
			}
			fs.Reboot(keepUnsynced)

			db, err := Open(crashShardedOpts(fs))
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", label, err)
			}
			checkAllOrNothing(t, db, label)

			// Recovery must also be stable: a second clean reopen sees the
			// same verdict.
			committed := false
			if _, ok, _ := db.Lookup(UserID(txnUserBase + 1)); ok {
				committed = true
			}
			if err := db.Close(); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
			db, err = Open(crashShardedOpts(fs))
			if err != nil {
				t.Fatalf("%s: second recovery failed: %v", label, err)
			}
			if _, ok, _ := db.Lookup(UserID(txnUserBase + 1)); ok != committed {
				t.Fatalf("%s: verdict flipped across reopens: %v -> %v", label, committed, ok)
			}
			checkAllOrNothing(t, db, label+" (reopened)")
			db.Close()
		}
	}
}

// TestShardedCrashAfterDecision pins the protocol's commit point: once the
// decision log records the transaction, recovery must COMMIT it even if no
// shard ever logged its marker.
func TestShardedCrashAfterDecision(t *testing.T) {
	fs := store.NewCrashFS()
	opts := crashShardedOpts(fs)
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range quadrant {
		if err := db.Upsert(Object{UID: UserID(i + 1), X: q[0], Y: q[1], T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	b := db.NewBatch()
	for i, q := range quadrant {
		b.Upsert(Object{UID: UserID(txnUserBase + i + 1), X: q[0] + 10, Y: q[1] + 10, T: 2})
	}
	b.Upsert(Object{UID: 1, X: quadrant[2][0] - 20, Y: quadrant[2][1] - 20, T: 2})
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	// Power-cut without a clean close: every synced prefix (prepares,
	// decision) survives. The markers were never synced, so each shard
	// resolves its prepared record through the decision log.
	fs.CutPower()
	fs.Reboot(false)
	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkAllOrNothing(t, re, "after-decision")
	if _, ok, _ := re.Lookup(UserID(txnUserBase + 1)); !ok {
		t.Fatal("acknowledged cross-shard commit lost")
	}
}

// TestOpenRefusesOtherGenerations: a directory whose manifest is the
// fixed-count version 1 record, or whose decision log is the single file
// txn.log it was before it was segmented, is refused with the format
// sentinel — nothing upgrades in place.
func TestOpenRefusesOtherGenerations(t *testing.T) {
	plants := map[string]func(fs store.VFS) error{
		"v1 manifest": func(fs store.VFS) error {
			return store.WriteFileAtomic(fs, "root/sharded.json",
				[]byte(`{"Version":1,"Shards":4,"SpaceSide":1000,"GridOrder":10}`))
		},
		"single-file decision log": func(fs store.VFS) error {
			return fs.Rename(store.SegmentWALName("root/txn.log", 1), "root/txn.log")
		},
	}
	for name, plant := range plants {
		t.Run(name, func(t *testing.T) {
			fs := store.NewCrashFS()
			crashShardedRun(fs)
			if err := plant(fs); err != nil {
				t.Fatal(err)
			}
			ops := fs.Ops()
			if _, err := Open(crashShardedOpts(fs)); !errors.Is(err, peb.ErrUnsupportedFormat) {
				t.Fatalf("open err = %v, want ErrUnsupportedFormat", err)
			}
			if fs.Ops() != ops {
				t.Fatalf("refused open wrote, renamed, truncated or synced %d times", fs.Ops()-ops)
			}
		})
	}
}

// The resharding crash suite: the fault point sweeps over every
// filesystem operation of a run that performs an online split (or merge),
// and recovery must land on a consistent topology — all-or-nothing with
// respect to the manifest's commit point, every object present exactly
// once in the shard that routes its position, and the verdict stable
// across further reopens.

// crashReshardRun seeds three users per quadrant, then splits shard 0 (or
// merges it into its route neighbor). Errors are ignored — the filesystem
// is dying mid-run by design.
func crashReshardRun(fs store.VFS, kind string) {
	db, err := Open(crashShardedOpts(fs))
	if err != nil {
		return
	}
	defer db.Close()
	u := 1
	for _, q := range quadrant {
		for j := 0; j < 3; j++ {
			_ = db.Upsert(Object{UID: UserID(u), X: q[0] + float64(j*7), Y: q[1] + float64(j*7), T: 1})
			u++
		}
	}
	if kind == "split" {
		_ = db.Split(0)
	} else {
		_ = db.Merge(0)
	}
}

// checkReshardRecovery asserts the recovered topology and data are
// consistent after a mid-reshard crash, and returns the shard count for
// the stability check.
func checkReshardRecovery(t *testing.T, db *DB, label string, kind string) int {
	t.Helper()
	n := db.Shards()
	switch kind {
	case "split":
		if n != 4 && n != 5 {
			t.Fatalf("%s: %d shards, want 4 (no split) or 5 (split)", label, n)
		}
	case "merge":
		if n != 4 && n != 3 {
			t.Fatalf("%s: %d shards, want 4 (no merge) or 3 (merge)", label, n)
		}
	}
	// Open rolls any pending migration forward before serving.
	if db.pending != nil {
		t.Fatalf("%s: pending %s survived recovery", label, db.pending.Kind)
	}
	// Topology invariants hold exactly (routes partition, covers contain).
	ts := topoState{epoch: db.epoch, nextID: db.nextID, metas: db.metas}
	if err := ts.validate(db.grid.Order); err != nil {
		t.Fatalf("%s: recovered topology invalid: %v", label, err)
	}
	// Every object exists exactly once, at a position it was written with,
	// in the shard that routes it.
	seen := make(map[UserID]bool)
	total := 0
	for i, s := range db.shards {
		objs, err := s.Objects()
		if err != nil {
			t.Fatalf("%s: enumerate slot %d: %v", label, i, err)
		}
		for _, o := range objs {
			if seen[o.UID] {
				t.Fatalf("%s: user %d present in two shards", label, o.UID)
			}
			seen[o.UID] = true
			total++
			if o.T != 1 {
				t.Fatalf("%s: user %d carries unexpected state %+v", label, o.UID, o)
			}
			if got := db.shardOf(o.X, o.Y); got != i {
				t.Fatalf("%s: user %d held by slot %d but routed to %d", label, o.UID, i, got)
			}
		}
	}
	if db.Size() != total {
		t.Fatalf("%s: owner map holds %d users, shards hold %d", label, db.Size(), total)
	}
	return n
}

func testShardedCrashMidReshard(t *testing.T, kind string) {
	golden := store.NewCrashFS()
	crashReshardRun(golden, kind)
	total := golden.Ops()
	if total < 30 {
		t.Fatalf("suspiciously few fault points: %d", total)
	}
	// Sanity: the golden run completed the topology change.
	{
		db, err := Open(crashShardedOpts(golden))
		if err != nil {
			t.Fatalf("golden reopen: %v", err)
		}
		want := 5
		if kind == "merge" {
			want = 3
		}
		if got := checkReshardRecovery(t, db, "golden", kind); got != want {
			t.Fatalf("golden run holds %d shards, want %d", got, want)
		}
		if db.Size() != 12 {
			t.Fatalf("golden run holds %d users, want 12", db.Size())
		}
		db.Close()
	}

	for _, keepUnsynced := range []bool{false, true} {
		for k := 0; k < total; k++ {
			label := fmt.Sprintf("%s k=%d keep=%v", kind, k, keepUnsynced)
			fs := store.NewCrashFS()
			fs.SetFailAfter(k)
			crashReshardRun(fs, kind)
			if !fs.Dead() {
				fs.CutPower()
			}
			fs.Reboot(keepUnsynced)

			db, err := Open(crashShardedOpts(fs))
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", label, err)
			}
			n1 := checkReshardRecovery(t, db, label, kind)
			size1 := db.Size()
			if err := db.Close(); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}

			// Topology and data verdicts are stable across another reopen.
			db, err = Open(crashShardedOpts(fs))
			if err != nil {
				t.Fatalf("%s: second recovery failed: %v", label, err)
			}
			n2 := checkReshardRecovery(t, db, label+" (reopened)", kind)
			if n2 != n1 || db.Size() != size1 {
				t.Fatalf("%s: verdict flipped across reopens: %d/%d shards, %d/%d users",
					label, n1, n2, size1, db.Size())
			}
			db.Close()
		}
	}
}

func TestShardedCrashMidSplit(t *testing.T) { testShardedCrashMidReshard(t, "split") }
func TestShardedCrashMidMerge(t *testing.T) { testShardedCrashMidReshard(t, "merge") }
