package sharded

import (
	"strings"
	"testing"

	"repro/internal/store"
	"repro/peb"
)

// quadrantSlots maps each shard slot to the quadrant it owns.
func quadrantSlots(t *testing.T, db *DB) [4][2]float64 {
	t.Helper()
	var at [4][2]float64
	seen := make(map[int]bool)
	for _, q := range quadrant {
		s := db.shardOf(q[0], q[1])
		if seen[s] {
			t.Fatalf("two quadrants route to shard %d", s)
		}
		seen[s] = true
		at[s] = q
	}
	return at
}

// shardWAL snapshots every shard's log counters, in slot order.
func shardWAL(db *DB) []peb.WALStats {
	out := make([]peb.WALStats, len(db.shards))
	for i, s := range db.shards {
		out[i] = s.WALStats()
	}
	return out
}

// TestCrossShardApplyFsyncs: a cross-shard Apply costs one fsync on each
// participant (its prepare) and one on the decision log. The commit
// markers are logged but ride the participant's next sync; a single Upsert
// still costs exactly one.
func TestCrossShardApplyFsyncs(t *testing.T) {
	db, err := Open(crashShardedOpts(store.NewCrashFS()))
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

	// Slots 0, 1 and 3 take part; slot 2 does not.
	parts := []int{0, 1, 3}
	before := shardWAL(db)
	_, decBefore := db.txnLog.Stats()
	b := db.NewBatch()
	for _, s := range parts {
		b.Upsert(Object{UID: UserID(txnUserBase + s), X: at[s][0] + 10, Y: at[s][1] + 10, T: 2})
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	after := shardWAL(db)
	if _, decAfter := db.txnLog.Stats(); decAfter-decBefore != 1 {
		t.Errorf("decision log synced %d times for one cross-shard Apply, want 1", decAfter-decBefore)
	}
	for s := range after {
		appends := after[s].Appends - before[s].Appends
		syncs := after[s].Syncs - before[s].Syncs
		want := uint64(0)
		if s != 2 {
			want = 1
		}
		if syncs != want {
			t.Errorf("shard %d: %d fsyncs for one cross-shard Apply, want %d (the prepare only)", s, syncs, want)
		}
		if appends != 2*want {
			t.Errorf("shard %d: %d log appends, want %d (prepared record and marker)", s, appends, 2*want)
		}
	}

	// The next single Upsert on a participant pays one fsync, which also
	// makes the marker durable.
	before = shardWAL(db)
	if err := db.Upsert(Object{UID: 1, X: at[0][0] + 5, Y: at[0][1] + 5, T: 3}); err != nil {
		t.Fatal(err)
	}
	after = shardWAL(db)
	if got := after[0].Syncs - before[0].Syncs; got != 1 {
		t.Errorf("single Upsert after a cross-shard Apply cost %d fsyncs, want 1", got)
	}
}

// TestCrossShardPrepareFailure: participants prepare concurrently; when
// some fail, exactly those that prepared are aborted, nothing of the batch
// survives in memory or across a power cut, the error names the lowest
// failing slot every time, and the next Apply succeeds.
func TestCrossShardPrepareFailure(t *testing.T) {
	fs := store.NewCrashFS()
	opts := crashShardedOpts(fs)
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	at := quadrantSlots(t, db)
	for i, q := range at {
		if err := db.Upsert(Object{UID: UserID(i + 1), X: q[0], Y: q[1], T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// The router believes users 901 and 903 live on slots 1 and 3, which
	// hold no such users: a Remove routed there passes the router's split
	// and fails that shard's prepare.
	db.ownMu.Lock()
	db.owner[901], db.owner[903] = 1, 3
	db.ownMu.Unlock()

	const attempts = 20
	before := shardWAL(db)
	for n := 0; n < attempts; n++ {
		b := db.NewBatch()
		b.Upsert(Object{UID: txnUserBase, X: at[0][0] + 10, Y: at[0][1] + 10, T: 2})
		b.Upsert(Object{UID: txnUserBase + 2, X: at[2][0] + 10, Y: at[2][1] + 10, T: 2})
		b.Remove(903)
		b.Remove(901)
		err := db.Apply(b)
		if err == nil || !strings.Contains(err.Error(), "sharded: apply: shard 1:") {
			t.Fatalf("attempt %d: err = %v, want the lowest failing slot, shard 1", n, err)
		}
	}
	after := shardWAL(db)
	for s := range after {
		prepared, aborted := 0, 0
		for _, e := range db.shards[s].Events().Recent(0) {
			switch e.Type {
			case "txn.prepare":
				prepared++
			case "txn.abort":
				aborted++
			}
		}
		want := 0
		if s == 0 || s == 2 {
			want = attempts
		}
		if prepared != want || aborted != want {
			t.Errorf("shard %d: %d prepared, %d aborted, want %d each", s, prepared, aborted, want)
		}
		if got := after[s].Appends - before[s].Appends; got != uint64(2*want) {
			t.Errorf("shard %d: %d log appends, want %d (prepared record and abort marker each)", s, got, 2*want)
		}
	}
	for _, uid := range []UserID{txnUserBase, txnUserBase + 2} {
		if _, ok, _ := db.Lookup(uid); ok {
			t.Fatalf("user %d of an aborted batch is visible", uid)
		}
	}

	// Across a power cut the unsynced abort markers are lost; the
	// decision log holds no commit, so recovery aborts every prepare.
	fs.CutPower()
	fs.Reboot(false)
	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, uid := range []UserID{txnUserBase, txnUserBase + 2} {
		if _, ok, _ := db.Lookup(uid); ok {
			t.Fatalf("user %d of an aborted batch recovered", uid)
		}
	}
	for i := range at {
		if _, ok, _ := db.Lookup(UserID(i + 1)); !ok {
			t.Fatalf("seed user %d lost", i+1)
		}
	}
	b := db.NewBatch()
	for s, q := range at {
		b.Upsert(Object{UID: UserID(txnUserBase + s), X: q[0] + 10, Y: q[1] + 10, T: 3})
	}
	if err := db.Apply(b); err != nil {
		t.Fatalf("Apply after aborted batches: %v", err)
	}
	for s := range at {
		if o, ok, _ := db.Lookup(UserID(txnUserBase + s)); !ok || o.T != 3 {
			t.Fatalf("user %d after the next Apply: %v %v", txnUserBase+s, o, ok)
		}
	}
}
