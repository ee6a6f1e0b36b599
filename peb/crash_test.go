package peb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/store"
)

// Crash-recovery suite. The workhorse is a brute-force sweep: a scripted
// workload runs against a CrashFS that kills the "process" at every
// possible faultable operation (torn page write, torn WAL append, fsync,
// checkpoint side-file write/rename, ...), the machine "reboots" — both
// pessimistically (unsynced writes lost) and optimistically (unsynced
// writes survived, last one torn) — and the reopened DB must equal the
// oracle at exactly the acknowledged prefix of the workload.

// oracle mirrors the DB's logical state in plain maps.
type oracle struct {
	objs     map[UserID]Object
	policies *policy.Store
}

func newOracle(t *testing.T) *oracle {
	t.Helper()
	space := policy.Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	ps, err := policy.NewStore(space, 1440)
	if err != nil {
		t.Fatal(err)
	}
	return &oracle{objs: make(map[UserID]Object), policies: ps}
}

func (o *oracle) clone() *oracle {
	objs := make(map[UserID]Object, len(o.objs))
	for k, v := range o.objs {
		objs[k] = v
	}
	return &oracle{objs: objs, policies: o.policies.Clone()}
}

// verify compares a recovered DB against the oracle's logical state:
// population, every object, and the full canonical policy snapshot.
func (o *oracle) verify(db *DB) error {
	if got, want := db.Size(), len(o.objs); got != want {
		return fmt.Errorf("size = %d, want %d", got, want)
	}
	for uid, want := range o.objs {
		got, ok, err := db.Lookup(uid)
		if err != nil {
			return fmt.Errorf("lookup u%d: %v", uid, err)
		}
		if !ok {
			return fmt.Errorf("u%d missing", uid)
		}
		if got != want {
			return fmt.Errorf("u%d = %+v, want %+v", uid, got, want)
		}
	}
	var dbPol, oraclePol bytes.Buffer
	if err := db.SavePolicies(&dbPol); err != nil {
		return fmt.Errorf("save policies: %v", err)
	}
	if err := o.policies.Save(&oraclePol); err != nil {
		return fmt.Errorf("save oracle policies: %v", err)
	}
	if !bytes.Equal(dbPol.Bytes(), oraclePol.Bytes()) {
		return fmt.Errorf("policy state diverged from oracle")
	}
	return nil
}

// scriptOp is one workload step: apply mutates the DB; mirror records the
// same mutation in the oracle (called only when apply succeeded).
type scriptOp struct {
	name   string
	apply  func(db *DB) error
	mirror func(o *oracle)
}

// crashScript is the deterministic workload of the sweep: single-op
// commits, atomic batches, policy changes, an encode rebuild, and
// checkpoints, so fault points land mid-batch, mid-checkpoint, and
// mid-WAL-append.
func crashScript() []scriptOp {
	day := TimeInterval{Start: 0, End: 1440}
	area := func(i int) Region {
		return Region{MinX: float64(i * 10), MinY: 0, MaxX: float64(i*10 + 300), MaxY: 500}
	}
	obj := func(uid, salt int) Object {
		return Object{
			UID: UserID(uid),
			X:   float64((uid*37 + salt*131) % 1000),
			Y:   float64((uid*59 + salt*17) % 1000),
			VX:  float64(uid%5) - 2,
			VY:  float64(salt%5) - 2,
			T:   float64(salt % 50),
		}
	}
	var ops []scriptOp
	add := func(name string, apply func(db *DB) error, mirror func(o *oracle)) {
		ops = append(ops, scriptOp{name: name, apply: apply, mirror: mirror})
	}

	// Relations + grants for a small social graph.
	for i := 1; i <= 4; i++ {
		i := i
		peer := i%4 + 1
		add(fmt.Sprintf("relate %d->%d", i, peer),
			func(db *DB) error { return db.DefineRelation(UserID(i), UserID(peer), "f") },
			func(o *oracle) { o.policies.SetRelation(policy.UserID(i), policy.UserID(peer), "f") })
		add(fmt.Sprintf("grant %d", i),
			func(db *DB) error { return db.Grant(UserID(i), "f", area(i), day) },
			func(o *oracle) {
				_ = o.policies.AddPolicy(policy.UserID(i), policy.Policy{Role: "f", Locr: area(i), Tint: day})
			})
	}
	// Initial population via an atomic batch (bulk-load path). 180 users
	// exceed one leaf's capacity, so the index is multi-level: checkpoint
	// flushes, copy-on-write retirement, and evictions all contribute
	// fault points.
	const population = 180
	add("batch load", func(db *DB) error {
		b := db.NewBatch()
		for i := 1; i <= population; i++ {
			b.Upsert(obj(i, 0))
		}
		return db.Apply(b)
	}, func(o *oracle) {
		for i := 1; i <= population; i++ {
			o.objs[UserID(i)] = obj(i, 0)
		}
	})
	add("encode", func(db *DB) error { return db.EncodePolicies() }, func(o *oracle) {})
	// Single-op commits, spread across the key space so several leaves COW.
	for i := 1; i <= 6; i++ {
		i := i * 29
		add(fmt.Sprintf("upsert %d", i),
			func(db *DB) error { return db.Upsert(obj(i, 1)) },
			func(o *oracle) { o.objs[UserID(i)] = obj(i, 1) })
	}
	add("remove 2", func(db *DB) error { return db.Remove(2) },
		func(o *oracle) { delete(o.objs, 2) })
	add("checkpoint", func(db *DB) error { return db.Checkpoint() }, func(o *oracle) {})
	// Post-checkpoint history exercises replay on top of the image.
	add("grant 5", func(db *DB) error { return db.Grant(5, "f", area(5), day) },
		func(o *oracle) {
			_ = o.policies.AddPolicy(policy.UserID(5), policy.Policy{Role: "f", Locr: area(5), Tint: day})
		})
	add("mixed batch", func(db *DB) error {
		b := db.NewBatch()
		b.Upsert(obj(9, 2))
		b.Remove(3)
		b.Upsert(obj(4, 2))
		b.DefineRelation(9, 1, "f")
		return db.Apply(b)
	}, func(o *oracle) {
		o.objs[9] = obj(9, 2)
		delete(o.objs, 3)
		o.objs[4] = obj(4, 2)
		o.policies.SetRelation(9, 1, "f")
	})
	for i := 5; i <= 8; i++ {
		i := i
		add(fmt.Sprintf("upsert %d late", i),
			func(db *DB) error { return db.Upsert(obj(i, 3)) },
			func(o *oracle) { o.objs[UserID(i)] = obj(i, 3) })
	}
	add("checkpoint 2", func(db *DB) error { return db.Checkpoint() }, func(o *oracle) {})
	add("upsert 10", func(db *DB) error { return db.Upsert(obj(10, 4)) },
		func(o *oracle) { o.objs[10] = obj(10, 4) })
	add("remove 5", func(db *DB) error { return db.Remove(5) },
		func(o *oracle) { delete(o.objs, 5) })

	// --- Dead-extent ledger fault coverage. ------------------------------
	// "checkpoint 2" above already reclaims a ledger fed by the mixed
	// batch's copy-on-write. The tail below puts the rest of the ledger
	// inside the fault universe: churn that feeds it, a checkpoint taken
	// while a snapshot pins retired pages (they stay in the garbage list,
	// out of the ledger), the ledger catching the pins after the snapshot
	// closes, and another checkpoint on top. Every WAL append in the script
	// carries the binary codec's versioned header, so torn and lost header
	// writes are swept too.
	add("churn batch", func(db *DB) error {
		b := db.NewBatch()
		for i := 20; i <= 170; i += 5 {
			b.Upsert(obj(i, 5))
		}
		return db.Apply(b)
	}, func(o *oracle) {
		for i := 20; i <= 170; i += 5 {
			o.objs[UserID(i)] = obj(i, 5)
		}
	})
	// The snapshot handle is script-local state: reassigned at "snapshot
	// open" on every (re-)execution, so a crashed run's stale handle is
	// simply overwritten by the next run.
	var snap *Snapshot
	add("snapshot open", func(db *DB) error {
		s, err := db.Snapshot()
		if err != nil {
			return err
		}
		snap = s
		return nil
	}, func(o *oracle) {})
	add("churn under snapshot", func(db *DB) error {
		b := db.NewBatch()
		for i := 21; i <= 171; i += 5 {
			b.Upsert(obj(i, 6))
		}
		b.Remove(44)
		return db.Apply(b)
	}, func(o *oracle) {
		for i := 21; i <= 171; i += 5 {
			o.objs[UserID(i)] = obj(i, 6)
		}
		delete(o.objs, 44)
	})
	add("checkpoint 3 pinned", func(db *DB) error { return db.Checkpoint() }, func(o *oracle) {})
	add("snapshot close", func(db *DB) error {
		if snap == nil {
			return nil
		}
		err := snap.Close()
		snap = nil
		return err
	}, func(o *oracle) {})
	add("upsert 33", func(db *DB) error { return db.Upsert(obj(33, 7)) },
		func(o *oracle) { o.objs[33] = obj(33, 7) })
	add("checkpoint 4", func(db *DB) error { return db.Checkpoint() }, func(o *oracle) {})
	add("upsert 12 final", func(db *DB) error { return db.Upsert(obj(12, 8)) },
		func(o *oracle) { o.objs[12] = obj(12, 8) })
	return ops
}

// crashOpts are the durable options of the sweep: a buffer smaller than
// the tree forces mid-operation evictions, so torn data-page writes are in
// the fault set too.
func crashOpts(fs store.VFS) Options {
	return Options{Path: "db.idx", Durability: DurabilitySync, BufferPages: 4, FS: fs}
}

// runScript applies ops until the first failure, snapshotting the oracle
// after every acknowledged op. Returns the per-prefix oracle states:
// states[i] is the state after i acknowledged ops.
func runScript(t *testing.T, db *DB, ops []scriptOp) (states []*oracle, acked int) {
	t.Helper()
	o := newOracle(t)
	states = append(states, o.clone())
	for _, op := range ops {
		if err := op.apply(db); err != nil {
			return states, acked
		}
		op.mirror(o)
		acked++
		states = append(states, o.clone())
	}
	return states, acked
}

// runBruteForceSweep is the oracle sweep described in the file comment,
// shared by the default-layout and segmented-boundary variants. For every
// fault point and both crash models, recovery must land on the
// acknowledged prefix — or the prefix plus the single in-flight op (fault
// after its log record was written but before its ack).
func runBruteForceSweep(t *testing.T, opts func(fs store.VFS) Options) {
	ops := crashScript()

	// Golden run: no faults; counts the faultable-operation universe.
	golden := store.NewCrashFS()
	db, err := Open(opts(golden))
	if err != nil {
		t.Fatal(err)
	}
	_, acked := runScript(t, db, ops)
	if acked != len(ops) {
		t.Fatalf("golden run acked %d/%d ops", acked, len(ops))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	total := golden.Ops()
	if total < 50 {
		t.Fatalf("suspiciously few faultable ops: %d", total)
	}

	for _, keepUnsynced := range []bool{false, true} {
		name := "drop-unsynced"
		if keepUnsynced {
			name = "keep-unsynced"
		}
		t.Run(name, func(t *testing.T) {
			for k := 0; k < total; k++ {
				fs := store.NewCrashFS()
				fs.SetFailAfter(k)
				var states []*oracle
				acked := 0
				db, err := Open(opts(fs))
				if err == nil {
					states, acked = runScript(t, db, ops)
				} else {
					o := newOracle(t)
					states = []*oracle{o}
				}
				if !fs.Dead() {
					// Fault point beyond this run's op count (layout
					// nondeterminism): treat as a plain kill at the end.
					fs.CutPower()
				}
				fs.Reboot(keepUnsynced)

				re, err := Open(opts(fs))
				if err != nil {
					t.Fatalf("k=%d: recovery failed: %v", k, err)
				}
				errAt := states[acked].verify(re)
				if errAt != nil && acked < len(ops) {
					// The faulted op may have reached the log before the
					// crash; then the recovered state is the prefix plus it.
					next := states[acked].clone()
					ops[acked].mirror(next)
					if errNext := next.verify(re); errNext == nil {
						errAt = nil
					}
				}
				if errAt != nil {
					t.Fatalf("k=%d acked=%d: recovered state wrong: %v", k, acked, errAt)
				}
				// Recovery seeds the dead-extent ledger at every fault point.
				if err := ledgerErr(re); err != nil {
					t.Fatalf("k=%d: ledger after recovery: %v", k, err)
				}
				// The recovered DB must accept new commits, and reclaim
				// exactly its ledger at its first checkpoint.
				if err := re.Upsert(Object{UID: 999, X: 1, Y: 2, T: 90}); err != nil {
					t.Fatalf("k=%d: post-recovery upsert: %v", k, err)
				}
				if err := re.Checkpoint(); err != nil {
					t.Fatalf("k=%d: post-recovery checkpoint: %v", k, err)
				}
				if err := ledgerErr(re); err != nil {
					t.Fatalf("k=%d: ledger after the post-recovery checkpoint: %v", k, err)
				}
				if err := re.Close(); err != nil {
					t.Fatalf("k=%d: close recovered: %v", k, err)
				}
			}
		})
	}
}

func TestCrashRecoveryBruteForce(t *testing.T) {
	runBruteForceSweep(t, crashOpts)
}

// TestCrashRecoveryBruteForceSegmented reruns the sweep with a roll
// threshold small enough that the workload crosses many segment
// boundaries: faults now land on seal fsyncs, on the first append into a
// fresh segment, and between a seal and the next segment's creation —
// under both reboot models. Recovery must additionally cope with a sealed
// segment whose unsynced tail was dropped and with an empty or torn
// youngest segment.
func TestCrashRecoveryBruteForceSegmented(t *testing.T) {
	runBruteForceSweep(t, func(fs store.VFS) Options {
		o := crashOpts(fs)
		o.WALSegmentBytes = 512
		return o
	})
}

// TestCrashCheckpointPairingNonDurable: without a WAL there is no replay
// to reconcile anything, so a crash anywhere inside Checkpoint must leave
// one checkpoint's *complete* state — meta, page image, and policies all
// from the same era. Phase 2 changes both an object and a policy between
// two checkpoints, so any torn pairing (new policies with the old index,
// or vice versa) matches neither oracle and fails verification.
func TestCrashCheckpointPairingNonDurable(t *testing.T) {
	day := TimeInterval{Start: 0, End: 1440}
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	opts := func(fs store.VFS) Options {
		return Options{Path: "p.idx", BufferPages: 4, FS: fs}
	}
	// run executes both phases, mirroring into oracles; it stops at the
	// first error. Returns S1 (state at checkpoint 1) and S2 (at 2).
	run := func(t *testing.T, fs *store.CrashFS) (s1, s2 *oracle, c1, c2 bool) {
		o := newOracle(t)
		db, err := Open(opts(fs))
		if err != nil {
			return nil, nil, false, false
		}
		step := func(apply func() error, mirror func()) bool {
			if apply() != nil {
				return false
			}
			mirror()
			return true
		}
		ok := step(func() error { return db.DefineRelation(1, 2, "f") },
			func() { o.policies.SetRelation(1, 2, "f") }) &&
			step(func() error { return db.Grant(1, "f", all, day) },
				func() { _ = o.policies.AddPolicy(1, policy.Policy{Role: "f", Locr: all, Tint: day}) }) &&
			step(func() error {
				b := db.NewBatch()
				for i := 1; i <= 90; i++ {
					b.Upsert(Object{UID: UserID(i), X: float64(i * 11 % 1000), Y: float64(i * 7 % 1000), T: 1})
				}
				return db.Apply(b)
			}, func() {
				for i := 1; i <= 90; i++ {
					o.objs[UserID(i)] = Object{UID: UserID(i), X: float64(i * 11 % 1000), Y: float64(i * 7 % 1000), T: 1}
				}
			})
		if !ok || db.Checkpoint() != nil {
			return nil, nil, false, false
		}
		s1 = o.clone()
		ok = step(func() error { return db.Grant(2, "f", Region{MinX: 1, MinY: 1, MaxX: 9, MaxY: 9}, day) },
			func() {
				_ = o.policies.AddPolicy(2, policy.Policy{Role: "f", Locr: Region{MinX: 1, MinY: 1, MaxX: 9, MaxY: 9}, Tint: day})
			}) &&
			step(func() error { return db.Upsert(Object{UID: 91, X: 3, Y: 4, T: 2}) },
				func() { o.objs[91] = Object{UID: 91, X: 3, Y: 4, T: 2} })
		if !ok || db.Checkpoint() != nil {
			return s1, nil, true, false
		}
		return s1, o.clone(), true, true
	}

	golden := store.NewCrashFS()
	s1, s2, c1, c2 := run(t, golden)
	if !c1 || !c2 {
		t.Fatal("golden run did not complete")
	}
	total := golden.Ops()

	for _, keepUnsynced := range []bool{false, true} {
		name := "drop-unsynced"
		if keepUnsynced {
			name = "keep-unsynced"
		}
		t.Run(name, func(t *testing.T) {
			for k := 0; k < total; k++ {
				fs := store.NewCrashFS()
				fs.SetFailAfter(k)
				_, _, gotC1, _ := run(t, fs)
				if !fs.Dead() {
					fs.CutPower()
				}
				fs.Reboot(keepUnsynced)
				re, err := OpenExisting(opts(fs))
				if err != nil {
					if gotC1 {
						t.Fatalf("k=%d: checkpoint 1 completed but recovery failed: %v", k, err)
					}
					continue // crashed before any checkpoint committed
				}
				err1 := s1.verify(re)
				if err1 != nil {
					if err2 := s2.verify(re); err2 != nil {
						t.Fatalf("k=%d: recovered state matches neither checkpoint (S1: %v; S2: %v)", k, err1, err2)
					}
				}
				re.Close()
			}
		})
	}
}

// TestCrashAfterCheckpointLosesNothing: checkpoint → keep committing →
// power cut without injected fault → reopen: every acknowledged commit is
// present (DurabilitySync acked nothing that was not fsynced).
func TestCrashAfterCheckpointLosesNothing(t *testing.T) {
	ops := crashScript()
	fs := store.NewCrashFS()
	db, err := Open(crashOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	states, acked := runScript(t, db, ops)
	if acked != len(ops) {
		t.Fatalf("acked %d/%d", acked, len(ops))
	}
	fs.CutPower()
	fs.Reboot(false)
	re, err := Open(crashOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := states[acked].verify(re); err != nil {
		t.Fatalf("recovered state wrong: %v", err)
	}
	// And queries behave: a range query over everything returns only
	// policy-visible users, without error.
	if _, err := re.RangeQuery(1, Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, 60); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryWALOnly: a durable DB that never checkpointed recovers every
// acknowledged commit from the log alone.
func TestRecoveryWALOnly(t *testing.T) {
	fs := store.NewCrashFS()
	db, err := Open(crashOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(t)
	for i := 1; i <= 20; i++ {
		obj := Object{UID: UserID(i), X: float64(i * 13 % 1000), Y: float64(i * 29 % 1000), T: 5}
		if err := db.Upsert(obj); err != nil {
			t.Fatal(err)
		}
		o.objs[obj.UID] = obj
	}
	if err := db.Remove(7); err != nil {
		t.Fatal(err)
	}
	delete(o.objs, 7)
	fs.CutPower()
	fs.Reboot(false)
	re, err := Open(crashOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := o.verify(re); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryWithoutDurabilityPreservesLog: reopening a crashed durable
// DB with Durability off must still recover the committed log — and must
// NOT destroy it, because the replayed state exists only in memory until
// a checkpoint re-persists it. Only a checkpoint (whose WalSeq covers
// every replayed record) may retire the log.
func TestRecoveryWithoutDurabilityPreservesLog(t *testing.T) {
	fs := store.NewCrashFS()
	db, err := Open(crashOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: float64(i), Y: 2, T: 0}); err != nil {
			t.Fatal(err)
		}
	}
	fs.CutPower()
	fs.Reboot(false)

	plain := crashOpts(fs)
	plain.Durability = DurabilityNone
	re, err := OpenExisting(plain)
	if err != nil {
		t.Fatal(err)
	}
	if re.Size() != 12 {
		t.Fatalf("size = %d, want 12", re.Size())
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	// The acknowledged commits must survive yet another reopen: the log is
	// still their only durable description.
	re2, err := OpenExisting(plain)
	if err != nil {
		t.Fatal(err)
	}
	if re2.Size() != 12 {
		t.Fatalf("second reopen size = %d, want 12", re2.Size())
	}
	// A checkpoint re-persists the state and retires the stale log.
	if err := re2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := re2.Close(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := store.SegmentedWALExists(fs, "db.idx.wal"); ok {
		t.Fatal("stale wal segments survived a covering checkpoint")
	}
	re3, err := OpenExisting(plain)
	if err != nil {
		t.Fatal(err)
	}
	defer re3.Close()
	if re3.Size() != 12 {
		t.Fatalf("post-checkpoint reopen size = %d, want 12", re3.Size())
	}
}

// TestRecoveryGroupCommitConcurrent hammers a sync-durability DB, whose
// concurrent committers share fsyncs, from many goroutines (run under
// -race), then recovers after a cut and checks every acknowledged commit
// survived.
func TestRecoveryGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Path: filepath.Join(dir, "g.idx"), Durability: DurabilitySync, BufferPages: 32}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 6, 30
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				uid := UserID(g*1000 + i + 1)
				if err := db.Upsert(Object{UID: uid, X: float64(g), Y: float64(i), T: 1}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	st := db.WALStats()
	if st.Appends != goroutines*per {
		t.Fatalf("wal appends = %d, want %d", st.Appends, goroutines*per)
	}
	if st.Syncs == 0 || st.Syncs > st.Appends {
		t.Fatalf("wal syncs = %d with %d appends", st.Syncs, st.Appends)
	}
	// Simulate a crash: no Close, reopen from disk state alone.
	re, err := OpenExisting(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	db.Close() // release the old handles only after recovery proved the disk state
	if re.Size() != goroutines*per {
		t.Fatalf("recovered %d objects, want %d", re.Size(), goroutines*per)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < per; i++ {
			uid := UserID(g*1000 + i + 1)
			got, ok, err := re.Lookup(uid)
			if err != nil || !ok {
				t.Fatalf("u%d missing after recovery (%v)", uid, err)
			}
			want := Object{UID: uid, X: float64(g), Y: float64(i), T: 1}
			if got != want {
				t.Fatalf("u%d = %+v, want %+v", uid, got, want)
			}
		}
	}
}

// TestRecoveryCorruptCheckpoint: damaged on-disk state yields
// ErrCorruptCheckpoint, not a panic.
func TestRecoveryCorruptCheckpoint(t *testing.T) {
	build := func(t *testing.T) (Options, string) {
		dir := t.TempDir()
		opts := Options{Path: filepath.Join(dir, "c.idx")}
		db := mustOpen(t, opts)
		for i := 1; i <= 200; i++ {
			if err := db.Upsert(Object{UID: UserID(i), X: float64(i % 100 * 10), Y: float64(i % 97 * 10), T: 0}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return opts, opts.Path
	}

	t.Run("truncated backing file", func(t *testing.T) {
		opts, path := build(t)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()/3); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenExisting(opts); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
		}
	})
	t.Run("garbage meta", func(t *testing.T) {
		opts, path := build(t)
		if err := os.WriteFile(path+".meta", []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenExisting(opts); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
		}
	})
	t.Run("root beyond file", func(t *testing.T) {
		opts, path := build(t)
		meta, err := os.ReadFile(path + ".meta")
		if err != nil {
			t.Fatal(err)
		}
		// Rewrite Root to a page the file cannot hold.
		meta = []byte(editMeta(t, string(meta), func(mf *metaFile) { mf.Root = 900000000 }))
		if err := os.WriteFile(path+".meta", meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenExisting(opts); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
		}
	})
	t.Run("scrambled pages", func(t *testing.T) {
		opts, path := build(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = byte(i * 7)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenExisting(opts); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
		}
	})
}

// TestCheckpointRecyclesFreedPages: pages freed by deletions and rebuilds
// are reclaimed at checkpoints and reused after reopen, so steady-state
// churn does not grow the file (the v1 free-list leak).
func TestCheckpointRecyclesFreedPages(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Path: filepath.Join(dir, "r.idx"), Durability: DurabilitySync}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	load := func(db *DB, salt int) {
		t.Helper()
		b := db.NewBatch()
		for i := 1; i <= 500; i++ {
			b.Upsert(Object{UID: UserID(i), X: float64((i*31 + salt) % 1000), Y: float64((i*67 + salt) % 1000), T: float64(salt)})
		}
		if err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	load(db, 0)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(opts.Path)
	if err != nil {
		t.Fatal(err)
	}
	base := info.Size()

	// Churn: reopen, rewrite everything, checkpoint, repeat. Every cycle
	// retires the previous pages; the checkpoints must recycle them.
	for cycle := 1; cycle <= 4; cycle++ {
		db, err := OpenExisting(opts)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		load(db, cycle)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	info, err = os.Stat(opts.Path)
	if err != nil {
		t.Fatal(err)
	}
	// COW doubles the transient working set at worst; without recycling the
	// file would grow ~5x here.
	if info.Size() > base*3 {
		t.Fatalf("file grew from %d to %d bytes across churn cycles: freed pages not recycled", base, info.Size())
	}
}
