package peb

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/store"
)

// Tests for the phased checkpoint pipeline: serving during the build
// phase (verified by oracle under -race, not by wall clock — see
// TestCrashCheckpointUnderLoad), concurrent calls, the AutoCheckpoint
// maintainer, per-phase statistics, and startup orphan sweeping.

// gateBuild installs a checkpoint hook that blocks the pipeline's build
// phase until release is closed, and signals entered when the build
// starts. Returns the two channels.
func gateBuild(db *DB) (entered chan struct{}, release chan struct{}) {
	entered = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	db.ckptHook = func(phase string) {
		if phase != "build" {
			return
		}
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	return entered, release
}

// TestCrashCheckpointUnderLoad is the checkpoint-under-load oracle: a
// checkpoint's build phase is gated open while committers and queriers
// keep working — every commit acknowledged and every query answered
// *while the build is provably in flight* is the non-blocking evidence
// (no wall-clock comparison, which a 1-CPU CI box would make
// meaningless). Afterwards the gate lifts, the checkpoint must commit,
// and a power cut + reboot must recover every acknowledged commit,
// including those from the build window (they live in the WAL tail that
// log rotation preserves).
func TestCrashCheckpointUnderLoad(t *testing.T) {
	fs := store.NewCrashFS()
	opts := Options{Path: "load.idx", Durability: DurabilitySync, BufferPages: 16, FS: fs}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	day := TimeInterval{Start: 0, End: 1440}
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	if err := db.DefineRelation(1, 2, "f"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(1, "f", all, day); err != nil {
		t.Fatal(err)
	}
	obj := func(uid, salt int) Object {
		return Object{
			UID: UserID(uid),
			X:   float64((uid*37 + salt*131) % 1000),
			Y:   float64((uid*59 + salt*17) % 1000),
			T:   float64(salt % 50),
		}
	}
	oracle := make(map[UserID]Object)
	b := db.NewBatch()
	for i := 1; i <= 200; i++ {
		b.Upsert(obj(i, 0))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		oracle[UserID(i)] = obj(i, 0)
	}
	// First checkpoint ungated, so the gated one below reclaims a ledger.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Churn some pages so the gated checkpoint has work to do.
	for i := 1; i <= 60; i++ {
		if err := db.Upsert(obj(i, 1)); err != nil {
			t.Fatal(err)
		}
		oracle[UserID(i)] = obj(i, 1)
	}

	entered, release := gateBuild(db)
	ckptErr := make(chan error, 1)
	go func() { ckptErr <- db.Checkpoint() }()
	<-entered // the build phase is now provably in flight

	// Commits and queries from several goroutines, all of which must
	// complete while the build is still gated. Each committer owns a
	// disjoint uid range so the oracle merge is deterministic.
	const committers, perC = 3, 25
	var wg sync.WaitGroup
	workErr := make(chan error, committers+2)
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				uid := 1000 + g*100 + i
				if err := db.Upsert(obj(uid, 2)); err != nil {
					workErr <- fmt.Errorf("upsert u%d during build: %w", uid, err)
					return
				}
			}
		}(g)
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := db.RangeQuery(2, all, 30); err != nil {
					workErr <- fmt.Errorf("range query during build: %w", err)
					return
				}
				if _, _, err := db.Lookup(UserID(i%200 + 1)); err != nil {
					workErr <- fmt.Errorf("lookup during build: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-workErr:
		t.Fatal(err)
	default:
	}
	select {
	case err := <-ckptErr:
		t.Fatalf("checkpoint finished while its build was gated (err=%v)", err)
	default: // still gated, as it must be
	}
	for g := 0; g < committers; g++ {
		for i := 0; i < perC; i++ {
			uid := 1000 + g*100 + i
			oracle[UserID(uid)] = obj(uid, 2)
		}
	}

	close(release)
	if err := <-ckptErr; err != nil {
		t.Fatalf("gated checkpoint failed: %v", err)
	}
	// Every acknowledged commit is visible on the live DB...
	for uid, want := range oracle {
		got, ok, err := db.Lookup(uid)
		if err != nil || !ok || got != want {
			t.Fatalf("u%d after checkpoint = %+v %v %v, want %+v", uid, got, ok, err, want)
		}
	}
	// ...and recoverable after a power cut: the checkpoint covers the cut
	// image, the rotated WAL tail covers the build-window commits.
	fs.CutPower()
	fs.Reboot(false)
	re, err := Open(opts)
	if err != nil {
		t.Fatalf("recovery after checkpoint-under-load: %v", err)
	}
	defer re.Close()
	if re.Size() != len(oracle) {
		t.Fatalf("recovered size = %d, want %d", re.Size(), len(oracle))
	}
	for uid, want := range oracle {
		got, ok, err := re.Lookup(uid)
		if err != nil || !ok || got != want {
			t.Fatalf("u%d after recovery = %+v %v %v, want %+v", uid, got, ok, err, want)
		}
	}
}

// TestConcurrentCheckpointsCoverCallers: Checkpoint calls that overlap run
// one pipeline each, in turn, and each returns a checkpoint covering every
// commit its caller made before calling — also the calls that arrive while
// another pipeline's build is in flight, whose cut predates their commits.
// Without a write-ahead log a checkpoint is the only durable copy, so a
// power cut after the calls return shows what they covered.
func TestConcurrentCheckpointsCoverCallers(t *testing.T) {
	fs := store.NewCrashFS()
	opts := Options{Path: "c.idx", FS: fs}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	obj := func(i int) Object {
		return Object{UID: UserID(i), X: float64(i * 7 % 1000), Y: float64(i * 13 % 1000), T: 0}
	}
	const before, callers = 100, 3
	for i := 1; i <= before; i++ {
		if err := db.Upsert(obj(i)); err != nil {
			t.Fatal(err)
		}
	}

	entered, release := gateBuild(db)
	first := make(chan error, 1)
	go func() { first <- db.Checkpoint() }()
	<-entered // the first pipeline's cut is taken
	errs := make(chan error, callers)
	for c := 1; c <= callers; c++ {
		// Each caller commits after that cut, then checkpoints.
		if err := db.Upsert(obj(before + c)); err != nil {
			t.Fatal(err)
		}
		go func() { errs <- db.Checkpoint() }()
	}
	select {
	case err := <-errs:
		t.Fatalf("a Checkpoint returned while another pipeline's build was gated (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := db.CheckpointStats(); st.Checkpoints != 1+callers {
		t.Fatalf("Checkpoints = %d, want %d: every call runs its own pipeline", st.Checkpoints, 1+callers)
	}

	fs.CutPower()
	fs.Reboot(false)
	re, err := OpenExisting(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Size() != before+callers {
		t.Fatalf("recovered %d objects, want %d", re.Size(), before+callers)
	}
	for i := 1; i <= before+callers; i++ {
		if got, ok, err := re.Lookup(UserID(i)); err != nil || !ok || got != obj(i) {
			t.Fatalf("u%d after power cut = %+v %v %v, want %+v", i, got, ok, err, obj(i))
		}
	}
}

// TestCheckpointStats: the pipeline reports per-phase durations and work
// counters, and the publish-phase segment drop accounts the WAL bytes.
// The small WALSegmentBytes forces the load to seal several segments so
// publish actually has covered segments to remove.
func TestCheckpointStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.idx")
	db := mustOpen(t, Options{Path: path, Durability: DurabilitySync, WALSegmentBytes: 4 << 10})
	load := func(salt int) {
		t.Helper()
		for i := 1; i <= 150; i++ {
			if err := db.Upsert(Object{UID: UserID(i), X: float64((i*31 + salt) % 1000), Y: float64((i*67 + salt) % 1000), T: float64(salt)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	load(0)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	load(1) // rewrite everything: COW churn to reclaim + WAL to truncate
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.CheckpointStats()
	if st.Checkpoints != 2 {
		t.Fatalf("Checkpoints = %d, want 2", st.Checkpoints)
	}
	if st.PagesFlushed == 0 {
		t.Error("PagesFlushed = 0, want > 0")
	}
	if st.PagesReclaimed == 0 {
		t.Error("PagesReclaimed = 0, want > 0 (the second checkpoint sweeps the first's quarantine)")
	}
	if st.WALBytesTruncated == 0 {
		t.Error("WALBytesTruncated = 0, want > 0")
	}
	if st.WALSegmentsRemoved == 0 {
		t.Error("WALSegmentsRemoved = 0, want > 0 (publish drops covered sealed segments)")
	}
	ws := db.WALStats()
	if ws.SegmentsSealed == 0 {
		t.Error("WALStats.SegmentsSealed = 0, want > 0 (load crossed the roll threshold)")
	}
	if ws.SegmentsRemoved == 0 {
		t.Error("WALStats.SegmentsRemoved = 0, want > 0")
	}
	if st.LastBuild <= 0 || st.TotalBuild < st.LastBuild {
		t.Errorf("implausible build durations: last %v, total %v", st.LastBuild, st.TotalBuild)
	}
	if st.TotalCut <= 0 || st.TotalPublish <= 0 {
		t.Errorf("implausible cut/publish durations: %v, %v", st.TotalCut, st.TotalPublish)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoCheckpointThreshold: with AutoCheckpoint configured, committing
// past the byte threshold (about 20 of these ~100-byte records) checkpoints in the background — no manual
// Checkpoint call — which truncates the log and survives a crash.
func TestAutoCheckpointThreshold(t *testing.T) {
	fs := store.NewCrashFS()
	opts := Options{
		Path:           "auto.idx",
		Durability:     DurabilitySync,
		FS:             fs,
		AutoCheckpoint: AutoCheckpointPolicy{WALBytes: 2 << 10},
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[UserID]Object)
	for i := 1; i <= 120; i++ {
		o := Object{UID: UserID(i), X: float64(i * 13 % 1000), Y: float64(i * 29 % 1000), T: 5}
		if err := db.Upsert(o); err != nil {
			t.Fatal(err)
		}
		oracle[o.UID] = o
	}
	// The maintainer runs asynchronously; give it a bounded window.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := db.CheckpointStats()
		if st.AutoTriggered >= 1 && st.Checkpoints >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no automatic checkpoint after 120 commits with WALBytes=2 KiB (stats %+v)", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Crash without Close: recovery must see every acknowledged commit,
	// whichever side of the auto checkpoint it landed on. The dead process's
	// maintainer must not outlive the power cut, or it would checkpoint the
	// rebooted filesystem under the recovery's feet.
	fs.CutPower()
	db.stopAutoCheckpoint()
	fs.Reboot(false)
	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Size() != len(oracle) {
		t.Fatalf("recovered size = %d, want %d", re.Size(), len(oracle))
	}
	for uid, want := range oracle {
		got, ok, err := re.Lookup(uid)
		if err != nil || !ok || got != want {
			t.Fatalf("u%d after recovery = %+v %v %v, want %+v", uid, got, ok, err, want)
		}
	}
}

// TestAutoCheckpointRests: a byte threshold the log's active segment alone
// exceeds re-arms the maintainer on every commit, and the maintainer then
// rests as long as each pipeline ran — at most half the time checkpoints,
// not back to back.
func TestAutoCheckpointRests(t *testing.T) {
	const build, window = 50 * time.Millisecond, 600 * time.Millisecond
	db, err := Open(Options{
		Path:           "rest.idx",
		Durability:     DurabilitySync,
		FS:             store.NewCrashFS(),
		AutoCheckpoint: AutoCheckpointPolicy{WALBytes: 1 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.ckptHook = func(phase string) {
		if phase == "build" {
			time.Sleep(build)
		}
	}
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		o := Object{UID: UserID(i%500 + 1), X: float64(i * 13 % 1000), Y: float64(i * 29 % 1000), T: 5}
		if err := db.Upsert(o); err != nil {
			t.Fatal(err)
		}
	}
	// Back to back, a pipeline ends every build; resting, every two.
	st := db.CheckpointStats()
	if most := int(window / (2 * build)); st.Checkpoints < 1 || st.Checkpoints > uint64(most) {
		t.Fatalf("%d checkpoints in %v of %v builds, want 1 to %d", st.Checkpoints, window, build, most)
	}
}

// TestAutoCheckpointCleanClose: Close stops the maintainer and drains any
// in-flight pipeline; no goroutine leaks, no error.
func TestAutoCheckpointCleanClose(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	opts := Options{
		Path:           filepath.Join(dir, "ac.idx"),
		Durability:     DurabilitySync,
		AutoCheckpoint: AutoCheckpointPolicy{WALBytes: 1 << 12},
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: float64(i), Y: float64(i % 97), T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // idempotent, maintainer already stopped
		t.Fatal(err)
	}
	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if re.Size() != 200 {
		t.Fatalf("size after reopen = %d, want 200", re.Size())
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.WaitGoroutines(t, base)
}

// TestAutoCheckpointValidation: the threshold measures the WAL, so the
// policy without durability is a configuration error.
func TestAutoCheckpointValidation(t *testing.T) {
	_, err := Open(Options{Path: "x.idx", AutoCheckpoint: AutoCheckpointPolicy{WALBytes: 1 << 10}, FS: store.NewCrashFS()})
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("err = %v, want ErrBadOptions", err)
	}
}

// TestOpenExistingSweepsOrphans: staging files and non-live policies
// snapshots left by a crash between publish and cleanup are removed at
// the next open, instead of leaking forever.
func TestOpenExistingSweepsOrphans(t *testing.T) {
	fs := store.NewCrashFS()
	opts := Options{Path: "o.idx", FS: fs}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: float64(i), Y: float64(i), T: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant every species of orphan a crash can leave.
	plant := func(name string) {
		t.Helper()
		f, err := fs.OpenFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("junk"), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	orphans := []string{
		"o.idx.meta.tmp",       // staged meta never renamed
		"o.idx.policies.7.tmp", // policies staging leftover
		"o.idx.policies.99",    // never-committed policies snapshot
	}
	for _, name := range orphans {
		plant(name)
	}

	re, err := OpenExisting(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, name := range orphans {
		if ok, _ := fs.Exists(name); ok {
			t.Errorf("orphan %s survived OpenExisting", name)
		}
	}
	// The live snapshot is untouched and the DB works.
	if ok, _ := fs.Exists("o.idx.policies.1"); !ok {
		t.Error("live policies snapshot was swept")
	}
	if re.Size() != 50 {
		t.Fatalf("size = %d, want 50", re.Size())
	}
}

// TestRebuildDrainsCheckpoint: EncodePolicies during a gated build phase
// waits for the pipeline instead of swapping the tree under it.
func TestRebuildDrainsCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.idx")
	db := mustOpen(t, Options{Path: path})
	day := TimeInterval{Start: 0, End: 1440}
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	if err := db.DefineRelation(1, 2, "f"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(1, "f", all, day); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 60; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: float64(i * 9 % 1000), Y: float64(i * 5 % 1000), T: 1}); err != nil {
			t.Fatal(err)
		}
	}

	entered, release := gateBuild(db)
	ckptErr := make(chan error, 1)
	go func() { ckptErr <- db.Checkpoint() }()
	<-entered

	encodeDone := make(chan error, 1)
	go func() { encodeDone <- db.EncodePolicies() }()
	select {
	case err := <-encodeDone:
		t.Fatalf("EncodePolicies finished during the build phase (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-ckptErr; err != nil {
		t.Fatal(err)
	}
	if err := <-encodeDone; err != nil {
		t.Fatal(err)
	}
	// The rebuilt index still answers and checkpoints.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
