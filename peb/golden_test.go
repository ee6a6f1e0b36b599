package peb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/policy"
)

// Golden-fixture tests.
//
// peb/testdata/golden/current holds an on-disk database — page file,
// checkpoint meta, policies snapshot and one write-ahead log segment — as
// the script below leaves it under the current code. It pins the on-disk
// formats two ways: the script rerun in a scratch directory must reproduce
// the four files byte for byte, and the fixture must recover to exactly the
// scripted state (float fields are integers by construction, so object and
// policy-snapshot equality is exact).

// goldenDay and the regions below are the fixture's policy vocabulary.
var goldenDay = TimeInterval{Start: 0, End: 1440}

func goldenRegion(i int) Region {
	return Region{MinX: float64(i * 50), MinY: float64(i * 20), MaxX: float64(i*50 + 400), MaxY: float64(i*20 + 300)}
}

// goldenObj is the fixture's deterministic object generator; all fields are
// small integers, so recovered values compare exactly.
func goldenObj(uid, salt int) Object {
	return Object{
		UID: UserID(uid),
		X:   float64((uid*37 + salt*131) % 1000),
		Y:   float64((uid*59 + salt*17) % 1000),
		VX:  float64(uid%5) - 2,
		VY:  float64(salt%5) - 2,
		T:   float64(salt % 50),
	}
}

// runGoldenScript drives the fixture workload: policy setup, a bulk batch,
// an encode rebuild, single commits, a checkpoint, and a post-checkpoint
// tail that lives only in the write-ahead log (the part that exercises the
// record codec on recovery).
func runGoldenScript(db *DB) error {
	if err := db.DefineRelation(1, 2, "f"); err != nil {
		return err
	}
	if err := db.DefineRelation(2, 3, "f"); err != nil {
		return err
	}
	if err := db.DefineRelation(3, 1, "c"); err != nil {
		return err
	}
	for i := 1; i <= 3; i++ {
		role := Role("f")
		if i == 3 {
			role = "c"
		}
		if err := db.Grant(UserID(i), role, goldenRegion(i), goldenDay); err != nil {
			return err
		}
	}
	b := db.NewBatch()
	for i := 1; i <= 60; i++ {
		b.Upsert(goldenObj(i, 0))
	}
	if err := db.Apply(b); err != nil {
		return err
	}
	if err := db.EncodePolicies(); err != nil {
		return err
	}
	if err := db.Upsert(goldenObj(7, 1)); err != nil {
		return err
	}
	if err := db.Upsert(goldenObj(21, 1)); err != nil {
		return err
	}
	if err := db.Remove(5); err != nil {
		return err
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	// Post-checkpoint history: recovered purely from WAL records.
	if err := db.Grant(4, "f", goldenRegion(4), goldenDay); err != nil {
		return err
	}
	mb := db.NewBatch()
	mb.Upsert(goldenObj(61, 2))
	mb.Remove(9)
	mb.DefineRelation(4, 1, "f")
	if err := db.Apply(mb); err != nil {
		return err
	}
	if err := db.Upsert(goldenObj(2, 3)); err != nil {
		return err
	}
	return nil
}

// goldenObjects returns the exact object set the fixture must recover to.
func goldenObjects() map[UserID]Object {
	want := make(map[UserID]Object)
	for i := 1; i <= 60; i++ {
		want[UserID(i)] = goldenObj(i, 0)
	}
	want[7] = goldenObj(7, 1)
	want[21] = goldenObj(21, 1)
	delete(want, 5)
	want[61] = goldenObj(61, 2)
	delete(want, 9)
	want[2] = goldenObj(2, 3)
	return want
}

// goldenPolicies rebuilds the fixture's expected policy store.
func goldenPolicies(t *testing.T) *policy.Store {
	t.Helper()
	space := policy.Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	ps, err := policy.NewStore(space, 1440)
	if err != nil {
		t.Fatal(err)
	}
	ps.SetRelation(1, 2, "f")
	ps.SetRelation(2, 3, "f")
	ps.SetRelation(3, 1, "c")
	for i := 1; i <= 3; i++ {
		role := policy.Role("f")
		if i == 3 {
			role = "c"
		}
		if err := ps.AddPolicy(policy.UserID(i), policy.Policy{Role: role, Locr: goldenRegion(i), Tint: goldenDay}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.AddPolicy(4, policy.Policy{Role: "f", Locr: goldenRegion(4), Tint: goldenDay}); err != nil {
		t.Fatal(err)
	}
	ps.SetRelation(4, 1, "f")
	return ps
}

// goldenDir is the fixture: the script's output in the one format
// generation the engine reads and writes.
const goldenDir = "testdata/golden/current"

func goldenOptions(dir string) Options {
	return Options{
		Path:        filepath.Join(dir, "golden.idx"),
		Durability:  DurabilitySync,
		BufferPages: 8,
	}
}

// verifyGoldenState checks a recovered DB against the scripted state.
func verifyGoldenState(t *testing.T, db *DB) {
	t.Helper()
	want := goldenObjects()
	if got := db.Size(); got != len(want) {
		t.Fatalf("recovered size = %d, want %d", got, len(want))
	}
	for uid, wo := range want {
		got, ok, err := db.Lookup(uid)
		if err != nil {
			t.Fatalf("lookup u%d: %v", uid, err)
		}
		if !ok {
			t.Fatalf("u%d missing after recovery", uid)
		}
		if got != wo {
			t.Fatalf("u%d = %+v, want %+v", uid, got, wo)
		}
	}
	var gotPol, wantPol bytes.Buffer
	if err := db.SavePolicies(&gotPol); err != nil {
		t.Fatal(err)
	}
	if err := goldenPolicies(t).Save(&wantPol); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPol.Bytes(), wantPol.Bytes()) {
		t.Fatal("recovered policy snapshot differs from the fixture's scripted state")
	}
}

// TestGoldenBytesStable reruns the script in a scratch directory and
// compares every file it leaves with the committed fixture, byte for byte:
// the page image, the checkpoint meta, the policies snapshot and the log
// segment are all deterministic, so any difference is a format change.
// For one that is meant, PEB_REGEN_GOLDEN=1 runs the script into
// testdata/golden/regen-out instead (never over the committed fixture);
// move that directory to testdata/golden/current.
func TestGoldenBytesStable(t *testing.T) {
	dir := t.TempDir()
	if os.Getenv("PEB_REGEN_GOLDEN") != "" {
		dir = "testdata/golden/regen-out"
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(goldenOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := runGoldenScript(db); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got, want := dirImage(t, dir), dirImage(t, goldenDir)
	if len(got) != 4 || len(want) != 4 {
		t.Fatalf("script left %d files, fixture holds %d, want 4 and 4", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s: script output (%d bytes, written %v) differs from the fixture (%d bytes)", name, len(g), ok, len(w))
		}
	}
}

// TestGoldenRecovery recovers the fixture — a checkpoint plus a log tail —
// to exactly the scripted state, and the recovered DB stays fully
// operational: it accepts new commits, checkpoints (dropping the log's
// covered prefix), and survives a second recovery with the new history
// intact.
func TestGoldenRecovery(t *testing.T) {
	// A copy: recovery legitimately appends to the log and sweeps side files.
	dir := writeImage(t, dirImage(t, goldenDir))
	db, err := OpenExisting(goldenOptions(dir))
	if err != nil {
		t.Fatalf("recover golden fixture: %v", err)
	}
	defer db.Close()
	verifyGoldenState(t, db)

	extra := goldenObj(99, 4)
	if err := db.Upsert(extra); err != nil {
		t.Fatalf("post-recovery upsert: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("post-recovery checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenExisting(goldenOptions(dir))
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer re.Close()
	got, ok, err := re.Lookup(99)
	if err != nil || !ok || got != extra {
		t.Fatalf("post-checkpoint object lost: %+v ok=%v err=%v", got, ok, err)
	}
	want := goldenObjects()
	if got := re.Size(); got != len(want)+1 {
		t.Fatalf("post-checkpoint size = %d, want %d", got, len(want)+1)
	}
}
