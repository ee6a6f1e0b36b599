package sharded

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/leakcheck"
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

// TestCrossShardApplyFsyncs: a cross-shard Apply over slots 0, 1 and 3
// costs exactly one fsync summed over every shard — the coordinator's,
// slot 0, whose one record holds the whole transaction — and one log
// append on each participant. Nothing is written on the router: the only
// router-owned file in the root is the manifest. A participant's part
// rides its next sync: a single Upsert there still costs exactly one
// fsync, and makes that part durable. A re-homing Upsert is a two-shard
// commit and costs exactly one fsync too.
func TestCrossShardApplyFsyncs(t *testing.T) {
	fs := store.NewCrashFS()
	db, err := Open(crashShardedOpts(fs))
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
	before := shardWAL(db)
	b := db.NewBatch()
	for _, s := range []int{0, 1, 3} {
		b.Upsert(Object{UID: UserID(txnUserBase + s), X: at[s][0] + 10, Y: at[s][1] + 10, T: 2})
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	after := shardWAL(db)
	var syncs uint64
	for s := range after {
		syncs += after[s].Syncs - before[s].Syncs
		want := uint64(1)
		if s == 2 {
			want = 0
		}
		if got := after[s].Appends - before[s].Appends; got != want {
			t.Errorf("shard %d: %d log appends, want %d", s, got, want)
		}
	}
	if syncs != 1 || after[0].Syncs-before[0].Syncs != 1 {
		t.Errorf("one cross-shard Apply cost %d fsyncs, want 1, the coordinator's (slot 0)", syncs)
	}
	if names, err := fs.ListDir("root"); err != nil || len(names) != 1 || names[0] != "root/sharded.json" {
		t.Errorf("root holds %v (%v), want only the manifest", names, err)
	}
	txn := db.unsettled[len(db.unsettled)-1] // slots 0, 1, 3
	if txn[1].Durable() || txn[2].Durable() {
		t.Fatal("a participant's part is durable before any sync on its shard")
	}

	// The next single Upsert on participant slot 1 pays one fsync, which
	// also makes its part durable.
	before = shardWAL(db)
	if err := db.Upsert(Object{UID: 2, X: at[1][0] + 5, Y: at[1][1] + 5, T: 3}); err != nil {
		t.Fatal(err)
	}
	after = shardWAL(db)
	if got := after[1].Syncs - before[1].Syncs; got != 1 {
		t.Errorf("single Upsert after a cross-shard Apply cost %d fsyncs, want 1", got)
	}
	if !txn[1].Durable() || txn[2].Durable() {
		t.Errorf("after slot 1's Upsert: parts durable %v (slot 1) and %v (slot 3), want true and false",
			txn[1].Durable(), txn[2].Durable())
	}

	// An Upsert that re-homes user 1 from slot 0 to slot 2 is one
	// two-shard commit: exactly one fsync summed over every engine.
	allSyncs := func() uint64 {
		n := db.pe.WALStats().Syncs
		for _, w := range shardWAL(db) {
			n += w.Syncs
		}
		return n
	}
	syncs = allSyncs()
	if err := db.Upsert(Object{UID: 1, X: at[2][0] + 5, Y: at[2][1] + 5, T: 3}); err != nil {
		t.Fatal(err)
	}
	if got := allSyncs() - syncs; got != 1 {
		t.Errorf("a re-home cost %d fsyncs, want 1", got)
	}
	if own := checkRouting(t, db, "after the re-home"); own[1].T != 3 {
		t.Errorf("re-homed user is %v, want its update", own[1])
	}
}

// TestCrossShardPrepareFailure: every participant validates its part
// before anything is logged, so a batch one participant refuses writes
// nothing on any shard, leaves nothing in memory or across a power cut,
// and the error names the lowest failing slot every time. The next Apply
// succeeds.
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
	// and fails that shard's validation.
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
		if got := after[s].Appends - before[s].Appends; got != 0 {
			t.Errorf("shard %d: %d log appends for refused batches, want 0", s, got)
		}
	}
	for _, uid := range []UserID{txnUserBase, txnUserBase + 2} {
		if _, ok, _ := db.Lookup(uid); ok {
			t.Fatalf("user %d of a refused batch is visible", uid)
		}
	}

	fs.CutPower()
	fs.Reboot(false)
	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, e := range db.Events().Recent(0) {
		if e.Type == "txn.recover" {
			t.Fatalf("a refused batch was redone: %+v", e)
		}
	}
	for _, uid := range []UserID{txnUserBase, txnUserBase + 2} {
		if _, ok, _ := db.Lookup(uid); ok {
			t.Fatalf("user %d of a refused batch recovered", uid)
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
		t.Fatalf("Apply after refused batches: %v", err)
	}
	for s := range at {
		if o, ok, _ := db.Lookup(UserID(txnUserBase + s)); !ok || o.T != 3 {
			t.Fatalf("user %d after the next Apply: %v %v", txnUserBase+s, o, ok)
		}
	}
}

// TestFailStopReleasesEngines: the coordinator's sync fails, so the
// transaction's fate is on its disk alone. Apply returns ErrFailStop,
// every later call gets ErrClosed, Close releases every shard and the
// policy engine with their maintainers, and the reopen decides the
// transaction by the coordinator's log: lost when the record's bytes did
// not survive the power cut, committed in full when they did.
func TestFailStopReleasesEngines(t *testing.T) {
	for _, keep := range []bool{false, true} {
		t.Run(fmt.Sprintf("keep=%v", keep), func(t *testing.T) {
			base := runtime.NumGoroutine()
			fs := store.NewCrashFS()
			opts := crashShardedOpts(fs)
			opts.DB.AutoCheckpoint = peb.AutoCheckpointPolicy{WALBytes: 1 << 20}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range quadrant {
				if err := db.Upsert(Object{UID: UserID(i + 1), X: q[0], Y: q[1], T: 1}); err != nil {
					t.Fatal(err)
				}
			}
			engines := append([]*peb.DB{db.pe}, db.shards...)
			b := db.NewBatch()
			for i, q := range quadrant {
				b.Upsert(Object{UID: UserID(txnUserBase + i + 1), X: q[0] + 10, Y: q[1] + 10, T: 2})
			}
			fs.SetFailAfter(1) // the coordinator's append lands; its sync fails
			if err := db.Apply(b); !errors.Is(err, ErrFailStop) {
				t.Fatalf("Apply = %v, want ErrFailStop", err)
			}
			if err := db.Upsert(Object{UID: 1, X: 1, Y: 1, T: 3}); !errors.Is(err, ErrClosed) {
				t.Fatalf("Upsert after the fail-stop = %v, want ErrClosed", err)
			}
			if err := db.Apply(b); !errors.Is(err, ErrClosed) {
				t.Fatalf("Apply after the fail-stop = %v, want ErrClosed", err)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("Close after the fail-stop: %v", err)
			}
			for i, e := range engines {
				if _, err := e.Objects(); !errors.Is(err, peb.ErrClosed) {
					t.Fatalf("engine %d still open after Close: %v", i, err)
				}
			}
			leakcheck.WaitGoroutines(t, base)

			fs.Reboot(keep)
			re, err := Open(crashShardedOpts(fs))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := checkTxnUsers(t, re, "after the fail-stop",
				txnUserBase+1, txnUserBase+2, txnUserBase+3, txnUserBase+4); got != keep {
				t.Fatalf("transaction committed = %v, want %v (the coordinator's record survived: %v)", got, keep, keep)
			}
		})
	}
}

// BenchmarkCrossShardApply commits 8-object batches, two objects in each
// quadrant's shard, on 4 file-backed shards with a synced log: the
// durable cross-shard write path. fsyncs/op counts log fsyncs summed over
// every engine.
func BenchmarkCrossShardApply(b *testing.B) {
	db, err := Open(Options{Shards: 4, Dir: b.TempDir(), DB: peb.Options{Durability: peb.DurabilitySync}})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	batch := func(t float64) *Batch {
		bt := db.NewBatch()
		for i, q := range quadrant {
			for j := 0; j < 2; j++ {
				bt.Upsert(Object{UID: UserID(2*i + j + 1), X: q[0] + float64(10*j), Y: q[1] + t, T: t})
			}
		}
		return bt
	}
	if err := db.Apply(batch(0)); err != nil {
		b.Fatal(err)
	}
	before := db.Stats().WAL.Syncs
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := db.Apply(batch(float64(n%50 + 1))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(db.Stats().WAL.Syncs-before)/float64(b.N), "fsyncs/op")
}
