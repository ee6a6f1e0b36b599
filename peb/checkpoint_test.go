package peb

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

func TestCheckpointRequiresFileBacking(t *testing.T) {
	db := mustOpen(t, Options{})
	if err := db.Checkpoint(); err == nil {
		t.Error("memory-backed checkpoint accepted")
	}
}

func TestCheckpointAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "city.idx")
	opts := Options{Path: path}
	db := mustOpen(t, opts)

	day := TimeInterval{Start: 0, End: 1440}
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	rng := rand.New(rand.NewSource(21))
	const n = 400
	for i := 1; i <= n; i++ {
		peer := UserID(rng.Intn(n) + 1)
		if peer != UserID(i) {
			db.DefineRelation(UserID(i), peer, "f")
			if err := db.Grant(UserID(i), "f", all, day); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{
			UID: UserID(i + 1),
			X:   rng.Float64() * 1000, Y: rng.Float64() * 1000,
			VX: rng.Float64()*4 - 2, VY: rng.Float64()*4 - 2,
			T: rng.Float64() * 50,
		}
		if err := db.Upsert(objs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Reference answers before the checkpoint.
	type q struct {
		issuer UserID
		r      Region
		tq     float64
	}
	queries := make([]q, 20)
	refs := make([][]Object, 20)
	for i := range queries {
		queries[i] = q{
			issuer: UserID(rng.Intn(n) + 1),
			r:      Region{MinX: 100, MinY: 100, MaxX: 100 + rng.Float64()*800, MaxY: 100 + rng.Float64()*800},
			tq:     rng.Float64() * 60,
		}
		res, err := db.RangeQuery(queries[i].issuer, queries[i].r, queries[i].tq)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and replay: identical answers, no reinsertion.
	db2, err := OpenExisting(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Size() != n {
		t.Fatalf("reopened size = %d, want %d", db2.Size(), n)
	}
	for i, qq := range queries {
		res, err := db2.RangeQuery(qq.issuer, qq.r, qq.tq)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(refs[i]) {
			t.Fatalf("query %d: %d results after reopen, want %d", i, len(res), len(refs[i]))
		}
		want := make(map[UserID]bool, len(refs[i]))
		for _, o := range refs[i] {
			want[o.UID] = true
		}
		for _, o := range res {
			if !want[o.UID] {
				t.Fatalf("query %d: unexpected u%d after reopen", i, o.UID)
			}
		}
	}

	// The reopened DB accepts further updates and queries.
	upd := objs[0]
	upd.X, upd.Y, upd.T = 500, 500, 70
	if err := db2.Upsert(upd); err != nil {
		t.Fatal(err)
	}
	got, ok, err := db2.Lookup(upd.UID)
	if err != nil || !ok || got != upd {
		t.Fatalf("Lookup after reopen+update = %+v %v %v", got, ok, err)
	}
	// And a brand-new user gets a fresh sequence value (NextSV restored).
	if err := db2.Upsert(Object{UID: 9999, X: 1, Y: 1, T: 70}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenExistingErrors(t *testing.T) {
	if _, err := OpenExisting(Options{}); err == nil {
		t.Error("no path accepted")
	}
	if _, err := OpenExisting(Options{Path: filepath.Join(t.TempDir(), "missing.idx")}); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

// TestCheckpointDisarmsWALBytesTrigger: the WALBytes threshold counts the
// bytes logged past the last checkpoint's cut. A checkpoint therefore
// disarms it even though the active segment — which no checkpoint can
// drop — still holds every byte, and it re-arms only once another
// WALBytes have been logged.
func TestCheckpointDisarmsWALBytesTrigger(t *testing.T) {
	const threshold = 2 << 10
	db := mustOpen(t, Options{Path: filepath.Join(t.TempDir(), "trig.idx"), Durability: DurabilitySync})
	// Set after Open, so no maintainer runs: the test reads the trigger.
	db.opts.AutoCheckpoint = AutoCheckpointPolicy{WALBytes: threshold}
	uid := UserID(0)
	logUntilDue := func() (logged uint64) {
		t.Helper()
		start := db.WALStats().BytesAppended
		for !db.autoCheckpointDue() {
			uid++
			if err := db.Upsert(Object{UID: uid, X: float64(uid % 1000), Y: 7, T: 1}); err != nil {
				t.Fatal(err)
			}
		}
		return db.WALStats().BytesAppended - start
	}
	logUntilDue()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.autoCheckpointDue() {
		t.Fatal("the trigger is still armed right after a checkpoint")
	}
	if logged := logUntilDue(); logged < threshold || logged > threshold+256 {
		t.Fatalf("the trigger re-armed after %d bytes, want %d (plus at most one record)", logged, threshold)
	}
	if db.WALStats().SegmentsSealed != 0 {
		t.Fatal("the log rolled a segment: the active segment did not hold every byte")
	}
}

// policiesFile returns the policies file db's checkpoint meta names.
func policiesFile(t *testing.T, db *DB) string {
	t.Helper()
	raw, err := db.opts.FS.ReadFile(db.opts.Path + ".meta")
	if err != nil {
		t.Fatal(err)
	}
	mf, err := decodeMeta(raw)
	if err != nil {
		t.Fatal(err)
	}
	return mf.Policies
}

// TestCheckpointReusesUnchangedPolicies: a checkpoint with no policy
// operation since the last one names the live policies file and writes
// none; one after a Grant writes a new file and drops the old one.
func TestCheckpointReusesUnchangedPolicies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reuse.idx")
	db := mustOpen(t, Options{Path: path})
	all := Region{MaxX: 1000, MaxY: 1000}
	day := TimeInterval{End: 1440}
	exists := func(name string) bool {
		ok, err := db.opts.FS.Exists(filepath.Join(filepath.Dir(path), name))
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if err := db.Grant(1, "f", all, day); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first := policiesFile(t, db)
	if err := db.Upsert(Object{UID: 2, X: 5, Y: 5, T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := policiesFile(t, db); got != first || exists("reuse.idx.policies.2") {
		t.Fatalf("a checkpoint with no policy op since the last named %s (wrote policies.2: %v), want the live %s",
			got, exists("reuse.idx.policies.2"), first)
	}
	if err := db.Grant(1, "f", Region{MaxX: 10, MaxY: 10}, day); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := policiesFile(t, db); got == first || !exists(got) || exists(first) {
		t.Fatalf("after a Grant the checkpoint names %s (exists %v), the old %s exists %v; want a new file and the old one dropped",
			got, exists(got), first, exists(first))
	}
}

// policyFileRun grants, checkpoints, upserts, checkpoints again (reusing
// the policies file), grants and checkpoints a third time (writing a new
// one). It returns how many grants were acknowledged; other errors are
// ignored — the filesystem is dying mid-run by design.
func policyFileRun(fs store.VFS) (acked int) {
	db, err := Open(Options{Path: "pf.idx", Durability: DurabilitySync, FS: fs})
	if err != nil {
		return 0
	}
	defer db.Close()
	grant := func(maxX float64) bool {
		if db.Grant(1, "f", Region{MaxX: maxX, MaxY: 1000}, TimeInterval{End: 1440}) != nil {
			return false
		}
		acked++
		return true
	}
	if !grant(1000) || db.Checkpoint() != nil ||
		db.Upsert(Object{UID: 2, X: 5, Y: 5, T: 1}) != nil || db.Checkpoint() != nil ||
		!grant(10) {
		return acked
	}
	_ = db.Checkpoint()
	return acked
}

// TestCheckpointPolicyReuseCrash cuts power at every fault point of
// policyFileRun: recovery holds every acknowledged grant, whether the live
// checkpoint pairs with a reused policies file or a fresh one.
func TestCheckpointPolicyReuseCrash(t *testing.T) {
	golden := store.NewCrashFS()
	if acked := policyFileRun(golden); acked != 2 {
		t.Fatalf("golden run acknowledged %d of 2 grants", acked)
	}
	total := golden.Ops()
	for _, keep := range []bool{false, true} {
		for k := 0; k < total; k++ {
			fs := store.NewCrashFS()
			fs.SetFailAfter(k)
			acked := policyFileRun(fs)
			if !fs.Dead() {
				fs.CutPower()
			}
			fs.Reboot(keep)
			if ok, _ := fs.Exists("pf.idx.meta"); !ok {
				if ok, _ := store.SegmentedWALExists(fs, "pf.idx.wal"); !ok {
					continue // nothing was ever durable
				}
			}
			db, err := OpenExisting(Options{Path: "pf.idx", Durability: DurabilitySync, FS: fs})
			if err != nil {
				t.Fatalf("k=%d keep=%v: recovery: %v", k, keep, err)
			}
			if n := savedPolicies(t, db); n < acked || n > 2 {
				t.Fatalf("k=%d keep=%v: recovered %d policies, acknowledged %d of 2", k, keep, n, acked)
			}
			db.Close()
		}
	}
}

// TestReencodeBulkLoads: re-encoding a populated DB rebuilds its index
// with the same bulk load a fresh batch into an empty tree uses, so the
// rebuilt tree has exactly as many leaves as a fresh load of the same
// objects — not the larger count of inserting them one by one.
func TestReencodeBulkLoads(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(41))
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{UID: UserID(i + 1), X: rng.Float64() * 1000, Y: rng.Float64() * 1000, T: 1}
	}
	grown := mustOpen(t, Options{})
	for i, o := range objs {
		if i%3 == 0 {
			if err := grown.DefineRelation(o.UID, UserID(rng.Intn(n)+1), "f"); err != nil {
				t.Fatal(err)
			}
		}
		if err := grown.Upsert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := grown.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	fresh := mustOpen(t, Options{})
	b := fresh.NewBatch()
	for _, o := range objs {
		b.Upsert(o)
	}
	if err := fresh.Apply(b); err != nil {
		t.Fatal(err)
	}
	if got, want := grown.tree.LeafCount(), fresh.tree.LeafCount(); got != want {
		t.Fatalf("re-encoded tree has %d leaves, a fresh bulk load %d", got, want)
	}
}

// TestCheckpointMetaSize: a checkpoint meta holds what its engine cannot
// derive, so its size is fixed plus one sequence value per user holding one
// and one entry per free page: at most 64 B + 9 B per value + 5 B per free
// page. The store's users and the indexed users are not in it, so an
// engine holding only policies — a router's policy engine — writes a meta
// under 1 KB at any population.
func TestCheckpointMetaSize(t *testing.T) {
	meta := func(db *DB) metaFile {
		t.Helper()
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		raw, err := db.opts.FS.ReadFile(db.opts.Path + ".meta")
		if err != nil {
			t.Fatal(err)
		}
		mf, err := decodeMeta(raw)
		if err != nil {
			t.Fatal(err)
		}
		if bound := 64 + 9*len(mf.SVs) + 5*len(mf.Free); len(raw) > bound {
			t.Fatalf("%d-byte meta for %d sequence values and %d free pages, want at most %d",
				len(raw), len(mf.SVs), len(mf.Free), bound)
		}
		if got := len(raw); got >= 1<<10 && len(mf.SVs) == 0 {
			t.Fatalf("%d-byte meta without a sequence value, want under 1 KB", got)
		}
		return mf
	}
	all := Region{MaxX: 1000, MaxY: 1000}
	day := TimeInterval{End: 1440}
	const users = 20000
	for _, n := range []int{1000, users} {
		// Policies only: n users related in pairs.
		db := mustOpen(t, Options{Path: "m.idx", FS: store.NewCrashFS()})
		b := db.NewBatch()
		for i := 1; i <= n/2; i++ {
			b.DefineRelation(UserID(i), UserID(i+n/2), "f")
			b.Grant(UserID(i), "f", all, day)
		}
		if err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
		if mf := meta(db); len(mf.SVs) != 0 {
			t.Fatalf("%d policy users: the meta holds %d sequence values, want none", n, len(mf.SVs))
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Objects: every indexed user has a sequence value, then a re-encode
	// and a checkpoint leave free pages.
	db := mustOpen(t, Options{Path: "m.idx", FS: store.NewCrashFS()})
	defer db.Close()
	b := db.NewBatch()
	for i := 1; i <= users; i++ {
		b.Upsert(Object{UID: UserID(i * 3), X: float64(i % 1000), Y: float64(i * 7 % 1000), T: 1})
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	meta(db)
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	if mf := meta(db); len(mf.SVs) != users || len(mf.Free) == 0 {
		t.Fatalf("meta holds %d sequence values and %d free pages, want %d and some", len(mf.SVs), len(mf.Free), users)
	}
}
