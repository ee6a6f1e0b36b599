package peb

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/store"
)

// The dead-extent ledger (DB.ckptDead) is the only thing a checkpoint
// consults to decide which pages to free, so it must be exact at every
// quiescent moment: ledgerErr holds it against a reference sweep of the
// live tree.

// ledgerErr checks that every allocated page of a file-backed DB is exactly
// one of: reachable from the live tree, in a snapshot-pinned garbage batch,
// or in the ledger — and that nothing is accounted for that is not
// allocated. "leaked" pages would never be freed; "unallocated" ones would
// be freed twice.
func ledgerErr(db *DB) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.fileDisk == nil {
		return nil
	}
	reach, err := db.tree.Pages()
	if err != nil {
		return fmt.Errorf("reference sweep: %v", err)
	}
	where := make(map[store.PageID]string)
	var twice []string
	account := func(kind string, ids []store.PageID) {
		for _, id := range ids {
			if prev, ok := where[id]; ok {
				twice = append(twice, fmt.Sprintf("%d (%s and %s)", id, prev, kind))
			}
			where[id] = kind
		}
	}
	account("reachable", reach)
	for _, b := range db.garbage {
		account("pinned", b.pages)
	}
	account("ledger", db.ckptDead)
	if len(twice) > 0 {
		return fmt.Errorf("pages accounted twice: %v", twice)
	}
	var leaked, unallocated []store.PageID
	for _, id := range db.fileDisk.AliveList() {
		if _, ok := where[id]; !ok {
			leaked = append(leaked, id)
		}
		delete(where, id)
	}
	for id := range where {
		unallocated = append(unallocated, id)
	}
	sort.Slice(unallocated, func(i, j int) bool { return unallocated[i] < unallocated[j] })
	switch {
	case len(leaked) > 0:
		return fmt.Errorf("leaked %v", leaked)
	case len(unallocated) > 0:
		return fmt.Errorf("accounted but unallocated %v", unallocated)
	}
	return nil
}

func checkLedger(t *testing.T, db *DB, step string) {
	t.Helper()
	if err := ledgerErr(db); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// ledgerChurn rewrites 200 objects in one batch: enough for a multi-level
// tree, so a sealed tree retires several pages per churn.
func ledgerChurn(t *testing.T, db *DB, salt int) {
	t.Helper()
	b := db.NewBatch()
	for i := 1; i <= 200; i++ {
		b.Upsert(goldenObj(i, salt))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointLedgerExact(t *testing.T) {
	fs := store.NewCrashFS()
	opts := Options{Path: "db.idx", Durability: DurabilitySync, BufferPages: 8, FS: fs}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkpoint := func(db *DB, step string) {
		t.Helper()
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		checkLedger(t, db, step)
	}

	checkLedger(t, db, "fresh")
	ledgerChurn(t, db, 0)
	checkLedger(t, db, "before the first checkpoint")
	checkpoint(db, "first checkpoint")
	ledgerChurn(t, db, 1)
	checkLedger(t, db, "churn after a checkpoint")
	checkpoint(db, "second checkpoint")

	// A snapshot pins retired pages across a cut; closing it hands them to
	// the ledger.
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ledgerChurn(t, db, 2)
	checkLedger(t, db, "churn under a snapshot")
	checkpoint(db, "checkpoint under a snapshot")
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, db, "snapshot closed")
	checkpoint(db, "checkpoint after the snapshot")

	// A cut whose build parks part of the dead set and then fails — what
	// runCheckpoint does when a build errors after its first releases.
	ledgerChurn(t, db, 3)
	db.mu.Lock()
	img, err := db.ckptCut()
	if err != nil {
		db.mu.Unlock()
		t.Fatal(err)
	}
	if len(img.dead) < 2 {
		db.mu.Unlock()
		t.Fatalf("cut took %d dead pages, want at least 2", len(img.dead))
	}
	for _, id := range img.dead[:len(img.dead)/2] {
		if err := img.pool.Release(id); err != nil {
			db.mu.Unlock()
			t.Fatal(err)
		}
		img.released++
	}
	db.ckptAbortLocked(img)
	db.mu.Unlock()
	checkLedger(t, db, "aborted checkpoint")
	ledgerChurn(t, db, 4)
	checkLedger(t, db, "churn after the abort")
	checkpoint(db, "checkpoint after the abort")

	// Crash with a snapshot open across the last cut: its pinned pages are
	// allocated in the checkpoint but reached by nothing after recovery.
	// The snapshot is never closed.
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ledgerChurn(t, db, 5)
	checkpoint(db, "checkpoint before the crash")
	fs.CutPower()
	fs.Reboot(false)
	db, err = OpenExisting(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	checkLedger(t, db, "recovered")
	if len(db.ckptDead) == 0 {
		t.Fatal("recovery seeded an empty ledger despite pages pinned at the cut")
	}
	ledgerChurn(t, db, 6)
	checkLedger(t, db, "churn after recovery")
	checkpoint(db, "checkpoint after recovery")

	// Index rebuilds over a checkpointed file start a new incarnation.
	if err := db.Grant(1, "f", Region{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, TimeInterval{Start: 0, End: 100}); err != nil {
		t.Fatal(err)
	}
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, db, "EncodePolicies")
	ledgerChurn(t, db, 7)
	checkpoint(db, "checkpoint after EncodePolicies")
	var pol bytes.Buffer
	if err := db.SavePolicies(&pol); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadPolicies(&pol); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, db, "LoadPolicies")
	checkpoint(db, "checkpoint after LoadPolicies")

	for i := 1; i <= 200; i++ {
		got, ok, err := db.Lookup(UserID(i))
		if err != nil || !ok || got != goldenObj(i, 7) {
			t.Fatalf("u%d = %+v ok=%v err=%v, want salt 7", i, got, ok, err)
		}
	}
}

// TestIncrementalFallsBackAfterAbort: an aborted cut hands every dead page
// it took back to the ledger, and the next checkpoint frees them along with
// whatever died since.
func TestIncrementalFallsBackAfterAbort(t *testing.T) {
	db, err := Open(Options{Path: t.TempDir() + "/db.idx", Durability: DurabilitySync, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ledgerChurn(t, db, 0)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ledgerChurn(t, db, 1)

	db.mu.Lock()
	img, err := db.ckptCut()
	if err != nil {
		db.mu.Unlock()
		t.Fatal(err)
	}
	cutDead := len(img.dead)
	db.ckptAbortLocked(img)
	restored := len(db.ckptDead)
	db.mu.Unlock()
	if cutDead == 0 {
		t.Fatal("cut took no dead pages despite churn")
	}
	if restored != cutDead {
		t.Fatalf("abort restored %d of the cut's %d dead pages", restored, cutDead)
	}
	checkLedger(t, db, "aborted checkpoint")

	before := db.CheckpointStats().PagesReclaimed
	ledgerChurn(t, db, 2)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.CheckpointStats().PagesReclaimed - before; got < uint64(cutDead) {
		t.Fatalf("post-abort checkpoint reclaimed %d pages, want at least the %d the abort returned", got, cutDead)
	}
	checkLedger(t, db, "post-abort checkpoint")
	ledgerChurn(t, db, 3)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, db, "second post-abort checkpoint")
}

// TestIncrementalCheckpointExactness: after a run of checkpoints, one taken
// with a snapshot pinning retired pages, a clean reopen must find nothing
// allocated that the live tree does not reach. Recovery seeds the ledger
// with exactly those pages, so a non-empty seed means an earlier checkpoint
// leaked, and the checkpoint after recovery must reclaim nothing.
func TestIncrementalCheckpointExactness(t *testing.T) {
	opts := Options{Path: t.TempDir() + "/db.idx", Durability: DurabilitySync, BufferPages: 8}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ledgerChurn(t, db, 0)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for salt := 1; salt <= 4; salt++ {
		ledgerChurn(t, db, salt)
		if salt == 2 {
			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ledgerChurn(t, db, 20+salt)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			checkLedger(t, db, "checkpoint under a snapshot")
			if err := snap.Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		checkLedger(t, db, fmt.Sprintf("checkpoint %d", salt))
	}
	// The formerly pinned pages flow through the ledger to this checkpoint.
	ledgerChurn(t, db, 9)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, db, "checkpoint after the snapshot")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenExisting(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := len(re.ckptDead); n != 0 {
		t.Fatalf("recovery found %d allocated pages the checkpoints missed: %v", n, re.ckptDead)
	}
	checkLedger(t, re, "recovered")
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := re.CheckpointStats().PagesReclaimed; n != 0 {
		t.Fatalf("post-recovery checkpoint reclaimed %d pages the earlier checkpoints missed", n)
	}
	checkLedger(t, re, "post-recovery checkpoint")
	for i := 1; i <= 200; i++ {
		got, ok, err := re.Lookup(UserID(i))
		if err != nil || !ok || got != goldenObj(i, 9) {
			t.Fatalf("u%d = %+v ok=%v err=%v, want salt 9", i, got, ok, err)
		}
	}
}
