package peb

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestOpenDefaults(t *testing.T) {
	db := mustOpen(t, Options{})
	if db.Size() != 0 {
		t.Errorf("fresh DB size = %d", db.Size())
	}
}

func TestLifecycle(t *testing.T) {
	db := mustOpen(t, Options{})
	day := TimeInterval{Start: 0, End: 1440}
	everywhere := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}

	db.DefineRelation(2, 1, "friend") // u2 considers u1 a friend
	if err := db.Grant(2, "friend", everywhere, day); err != nil {
		t.Fatal(err)
	}
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}

	if err := db.Upsert(Object{UID: 1, X: 100, Y: 100, T: 0}); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Object{UID: 2, X: 110, Y: 105, T: 0}); err != nil {
		t.Fatal(err)
	}
	if db.Size() != 2 {
		t.Fatalf("Size = %d, want 2", db.Size())
	}

	// u1 may see u2 (u2 granted it); u2 may not see u1 (no grant).
	got, err := db.RangeQuery(1, Region{MinX: 0, MinY: 0, MaxX: 200, MaxY: 200}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].UID != 2 {
		t.Fatalf("u1's query = %v, want [u2]", got)
	}
	got, err = db.RangeQuery(2, Region{MinX: 0, MinY: 0, MaxX: 200, MaxY: 200}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("u2's query = %v, want empty", got)
	}

	nn, err := db.NearestNeighbors(1, 100, 100, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 1 || nn[0].Object.UID != 2 {
		t.Fatalf("NN = %v, want [u2]", nn)
	}

	obj, ok, err := db.Lookup(2)
	if err != nil || !ok || obj.UID != 2 {
		t.Fatalf("Lookup = %v %v %v", obj, ok, err)
	}
	if err := db.Remove(2); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Lookup(2); ok {
		t.Error("Lookup after Remove found entry")
	}
}

func TestUpsertBeforeEncode(t *testing.T) {
	// Users inserted before any encoding get singleton sequence values and
	// remain queryable.
	db := mustOpen(t, Options{})
	day := TimeInterval{Start: 0, End: 1440}
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	for i := 1; i <= 20; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: float64(i * 10), Y: 500, T: 0}); err != nil {
			t.Fatal(err)
		}
	}
	db.DefineRelation(7, 1, "f")
	if err := db.Grant(7, "f", all, day); err != nil {
		t.Fatal(err)
	}
	// u7 was inserted before its policy existed; without re-encoding the
	// query must still find it (clustering is just worse).
	got, err := db.RangeQuery(1, all, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].UID != 7 {
		t.Fatalf("query = %v, want [u7]", got)
	}
	// Re-encoding rebuilds the index; results are unchanged.
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	got, err = db.RangeQuery(1, all, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].UID != 7 {
		t.Fatalf("query after re-encode = %v, want [u7]", got)
	}
	if db.Size() != 20 {
		t.Fatalf("size after re-encode = %d, want 20", db.Size())
	}
}

func TestInvalidRegionRejected(t *testing.T) {
	db := mustOpen(t, Options{})
	if _, err := db.RangeQuery(1, Region{MinX: 5, MaxX: 1, MinY: 0, MaxY: 1}, 0); err == nil {
		t.Error("invalid region accepted")
	}
}

func TestFileBacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peb.idx")
	db := mustOpen(t, Options{Path: path})
	day := TimeInterval{Start: 0, End: 1440}
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	db.DefineRelation(2, 1, "f")
	if err := db.Grant(2, "f", all, day); err != nil {
		t.Fatal(err)
	}
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 500; i++ {
		if err := db.Upsert(Object{UID: UserID(i), X: float64(i % 100 * 10), Y: float64(i % 97 * 10), T: 0}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := db.RangeQuery(1, all, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].UID != 2 {
		t.Fatalf("file-backed query = %d results, want [u2]", len(got))
	}
}

// TestMatchesOracle drives the DB with a random population and checks both
// query types against a literal implementation of Definitions 2–3.
func TestMatchesOracle(t *testing.T) {
	db := mustOpen(t, Options{})
	rng := rand.New(rand.NewSource(9))
	const n = 150
	day := func() TimeInterval {
		s := rng.Float64() * 1440
		return TimeInterval{Start: s, End: math.Mod(s+360+rng.Float64()*720, 1440)}
	}
	region := func() Region {
		w, h := 200+rng.Float64()*600, 200+rng.Float64()*600
		x, y := rng.Float64()*(1000-w), rng.Float64()*(1000-h)
		return Region{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
	}
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{
			UID: UserID(i + 1),
			X:   rng.Float64() * 1000, Y: rng.Float64() * 1000,
			VX: rng.Float64()*4 - 2, VY: rng.Float64()*4 - 2,
			T: rng.Float64() * 50,
		}
	}
	for i := 0; i < n; i++ {
		for f := 0; f < 5; f++ {
			peer := UserID(rng.Intn(n) + 1)
			if peer == UserID(i+1) {
				continue
			}
			role := Role(rune('a' + f))
			db.DefineRelation(UserID(i+1), peer, role)
			if err := db.Grant(UserID(i+1), role, region(), day()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := db.Upsert(o); err != nil {
			t.Fatal(err)
		}
	}

	for trial := 0; trial < 25; trial++ {
		issuer := UserID(rng.Intn(n) + 1)
		tq := rng.Float64() * 60
		r := region()
		got, err := db.RangeQuery(issuer, r, tq)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[UserID]bool)
		for _, o := range objs {
			if o.UID == issuer {
				continue
			}
			x, y := o.PositionAt(tq)
			if r.Contains(x, y) && db.Allows(o.UID, issuer, x, y, tq) {
				want[o.UID] = true
			}
		}
		if len(got) != len(want) {
			t.Errorf("trial %d: got %d, want %d", trial, len(got), len(want))
			continue
		}
		for _, o := range got {
			if !want[o.UID] {
				t.Errorf("trial %d: unexpected u%d", trial, o.UID)
			}
		}

		// kNN oracle.
		k := 1 + rng.Intn(4)
		qx, qy := rng.Float64()*1000, rng.Float64()*1000
		nn, err := db.NearestNeighbors(issuer, qx, qy, k, tq)
		if err != nil {
			t.Fatal(err)
		}
		type cand struct {
			uid  UserID
			dist float64
		}
		var cands []cand
		for _, o := range objs {
			if o.UID == issuer {
				continue
			}
			x, y := o.PositionAt(tq)
			if db.Allows(o.UID, issuer, x, y, tq) {
				cands = append(cands, cand{o.UID, math.Hypot(x-qx, y-qy)})
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
		if len(cands) > k {
			cands = cands[:k]
		}
		if len(nn) != len(cands) {
			t.Fatalf("trial %d: kNN got %d, want %d", trial, len(nn), len(cands))
		}
		for i := range cands {
			if nn[i].Object.UID != cands[i].uid {
				t.Errorf("trial %d: kNN[%d] = u%d, want u%d", trial, i, nn[i].Object.UID, cands[i].uid)
			}
		}
	}
}

// TestConcurrentAccess checks that the mutex serializes mixed readers and
// writers (run with -race).
func TestConcurrentAccess(t *testing.T) {
	db := mustOpen(t, Options{})
	day := TimeInterval{Start: 0, End: 1440}
	all := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	for i := 1; i <= 50; i++ {
		db.DefineRelation(UserID(i), UserID(i%50+1), "f")
		if err := db.Grant(UserID(i), "f", all, day); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 100; i++ {
				uid := UserID(rng.Intn(50) + 1)
				switch i % 3 {
				case 0:
					_ = db.Upsert(Object{UID: uid, X: rng.Float64() * 1000, Y: rng.Float64() * 1000, T: float64(i)})
				case 1:
					_, _ = db.RangeQuery(uid, all, float64(i))
				default:
					_, _ = db.NearestNeighbors(uid, 500, 500, 3, float64(i))
				}
			}
		}(w)
	}
	wg.Wait()
	if db.IOStats().Accesses() == 0 {
		t.Error("no page accesses recorded")
	}
	db.ResetStats()
	if db.IOStats().Accesses() != 0 {
		t.Error("ResetStats did not clear counters")
	}
}
