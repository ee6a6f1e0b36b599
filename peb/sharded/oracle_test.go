package sharded

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/peb"
)

// The oracle suite cross-checks sharded.DB against a single peb.DB fed the
// exact same operation stream: every query answer — PRQ, PkNN, lookups,
// sizes, snapshots — must be equal (PRQ results are compared as
// UID-sorted sets, since the single tree returns scan order).

type pair struct {
	sharded *DB
	oracle  *peb.DB
}

func newPair(t *testing.T, shards int) pair {
	t.Helper()
	sh, err := Open(Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	or, err := peb.Open(peb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sh.Close()
		or.Close()
	})
	return pair{sharded: sh, oracle: or}
}

func (p pair) upsert(t *testing.T, o Object) {
	t.Helper()
	serr := p.sharded.Upsert(o)
	oerr := p.oracle.Upsert(o)
	if (serr == nil) != (oerr == nil) {
		t.Fatalf("upsert %v: sharded err %v, oracle err %v", o, serr, oerr)
	}
}

func (p pair) remove(t *testing.T, uid UserID) {
	t.Helper()
	serr := p.sharded.Remove(uid)
	oerr := p.oracle.Remove(uid)
	if (serr == nil) != (oerr == nil) {
		t.Fatalf("remove %d: sharded err %v, oracle err %v", uid, serr, oerr)
	}
}

func (p pair) grant(t *testing.T, owner UserID, role Role, locr Region, tint TimeInterval) {
	t.Helper()
	if err := p.sharded.Grant(owner, role, locr, tint); err != nil {
		t.Fatal(err)
	}
	if err := p.oracle.Grant(owner, role, locr, tint); err != nil {
		t.Fatal(err)
	}
}

func (p pair) relate(t *testing.T, owner, peer UserID, role Role) {
	t.Helper()
	if err := p.sharded.DefineRelation(owner, peer, role); err != nil {
		t.Fatal(err)
	}
	if err := p.oracle.DefineRelation(owner, peer, role); err != nil {
		t.Fatal(err)
	}
}

func (p pair) encode(t *testing.T) {
	t.Helper()
	if err := p.sharded.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	if err := p.oracle.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
}

// sortedByUID returns a UID-sorted copy (the sharded engine's canonical
// result order).
func sortedByUID(objs []Object) []Object {
	out := append([]Object(nil), objs...)
	sort.Slice(out, func(i, j int) bool { return out[i].UID < out[j].UID })
	return out
}

// check compares every query surface for the given issuers, regions, and
// query times.
func (p pair) check(t *testing.T, label string, issuers []UserID, regions []Region, times []float64, ks []int) {
	t.Helper()
	if sz, oz := p.sharded.Size(), p.oracle.Size(); sz != oz {
		t.Fatalf("%s: size %d vs oracle %d", label, sz, oz)
	}
	for _, issuer := range issuers {
		for _, tm := range times {
			for _, r := range regions {
				got, err := p.sharded.RangeQuery(issuer, r, tm)
				if err != nil {
					t.Fatalf("%s: sharded PRQ: %v", label, err)
				}
				want, err := p.oracle.RangeQuery(issuer, r, tm)
				if err != nil {
					t.Fatalf("%s: oracle PRQ: %v", label, err)
				}
				if !reflect.DeepEqual(got, sortedByUID(want)) {
					t.Fatalf("%s: PRQ(issuer %d, %+v, t=%g):\n sharded %v\n oracle  %v",
						label, issuer, r, tm, got, sortedByUID(want))
				}
			}
			for _, k := range ks {
				p.checkKNN(t, label, issuer, r999(issuer, tm), r999(issuer*31, tm), k, tm)
			}
		}
	}
}

// checkKNN compares one PkNN through both engines and returns its size.
func (p pair) checkKNN(t *testing.T, label string, issuer UserID, x, y float64, k int, tm float64) int {
	t.Helper()
	got, err := p.sharded.NearestNeighbors(issuer, x, y, k, tm)
	if err != nil {
		t.Fatalf("%s: sharded PkNN: %v", label, err)
	}
	want, err := p.oracle.NearestNeighbors(issuer, x, y, k, tm)
	if err != nil {
		t.Fatalf("%s: oracle PkNN: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: PkNN(issuer %d, (%g,%g), k=%d, t=%g):\n sharded %v\n oracle  %v",
			label, issuer, x, y, k, tm, got, want)
	}
	return len(got)
}

// checkRoutedCost is the routed-cost gate. A batch of PkNN goes through
// both engines; the answers must be equal, and the page requests summed over
// the shards must stay within (mean shards visited + 1) × what the single
// tree spent on the same batch. A shard searches only for the grantors it
// holds, so its share of a routed query costs at most what the whole tree's
// search costs; the +1 leaves room for the descents every extra tree adds.
// Requests count hits and misses alike, so the gate is deterministic. A
// shard that searches to the edge of the space for grantors stored elsewhere
// breaks it many times over.
func (p pair) checkRoutedCost(t *testing.T, label string, issuer UserID) {
	t.Helper()
	const queries, k = 64, 5
	before := p.sharded.Stats()
	singleBefore := p.oracle.IOStats().Accesses()
	answers := 0
	for i := 0; i < queries; i++ {
		answers += p.checkKNN(t, label, issuer, float64(i*131%1000), float64(i*577%1000), k, float64(20+i%3*20))
	}
	after := p.sharded.Stats()
	single := p.oracle.IOStats().Accesses() - singleBefore
	routed := after.Buffer.Accesses() - before.Buffer.Accesses()
	var visits uint64
	for i := range after.Shards {
		visits += after.Shards[i].Queries - before.Shards[i].Queries
	}
	if answers == 0 || single == 0 {
		t.Fatalf("%s: the batch returned %d neighbors for %d single-tree page requests — the gate would check nothing",
			label, answers, single)
	}
	if routed*queries > (visits+queries)*single {
		t.Fatalf("%s: %d routed PkNN made %d page requests over %d shard visits; the single tree made %d — "+
			"over the (visits per query + 1) × single-tree bound",
			label, queries, routed, visits, single)
	}
}

// r999 is a deterministic pseudo-position derived from the inputs.
func r999(a UserID, tm float64) float64 {
	return float64((int(a)*2654435761 + int(tm*7)) % 999)
}

func TestShardedOracleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := newPair(t, 4)

	const users = 160
	day := TimeInterval{Start: 0, End: 1440}
	space := Region{MaxX: 1000, MaxY: 1000}

	// Policies: a web of relations among the first 40 users, granting wide
	// visibility so queries have non-trivial results, plus some regional
	// grants that actually filter.
	for u := UserID(2); u <= 40; u++ {
		p.relate(t, u, 1, "friend")
		if u%2 == 0 {
			p.grant(t, u, "friend", space, day)
		} else {
			p.grant(t, u, "friend", Region{MinX: 0, MinY: 0, MaxX: 600, MaxY: 600},
				TimeInterval{Start: 0, End: 720})
		}
		if u%5 == 0 {
			p.relate(t, u, 7, "colleague")
			p.grant(t, u, "colleague", Region{MinX: 200, MinY: 200, MaxX: 900, MaxY: 900}, day)
		}
	}

	obj := func(uid int) Object {
		return Object{
			UID: UserID(uid),
			X:   rng.Float64() * 1000,
			Y:   rng.Float64() * 1000,
			VX:  rng.Float64()*6 - 3,
			VY:  rng.Float64()*6 - 3,
			T:   rng.Float64() * 50,
		}
	}
	issuers := []UserID{1, 7, 99}
	regions := []Region{
		{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000},
		{MinX: 100, MinY: 100, MaxX: 450, MaxY: 450},
		{MinX: 480, MinY: 480, MaxX: 520, MaxY: 520}, // straddles every shard boundary
		{MinX: 700, MinY: 50, MaxX: 990, MaxY: 400},
	}
	times := []float64{30, 90}
	ks := []int{1, 3, 8}

	// Phase 1: initial load through single-op upserts.
	for u := 1; u <= users; u++ {
		p.upsert(t, obj(u))
	}
	p.check(t, "loaded", issuers, regions, times, ks)

	// Phase 2: policy encoding (each shard rebuilds its own index).
	p.encode(t)
	p.check(t, "encoded", issuers, regions, times, ks)

	// Phase 3: churn — moves (many across shard boundaries), removals, and
	// policy changes, checked at intervals.
	for round := 0; round < 4; round++ {
		for i := 0; i < 60; i++ {
			u := rng.Intn(users) + 1
			switch rng.Intn(10) {
			case 0:
				if _, ok, _ := p.oracle.Lookup(UserID(u)); ok {
					p.remove(t, UserID(u))
				}
			case 1:
				p.relate(t, UserID(u), UserID(rng.Intn(users)+1), "friend")
			default:
				p.upsert(t, obj(u))
			}
		}
		p.check(t, fmt.Sprintf("churn round %d", round), issuers, regions, times, ks)
	}

	// Phase 4: batches, including one spanning every shard and one that
	// fails (remove of an unindexed user) and must leave both sides
	// untouched.
	sb := p.sharded.NewBatch()
	ob := p.oracle.NewBatch()
	for i := 0; i < 40; i++ {
		o := obj(rng.Intn(users) + 1)
		sb.Upsert(o)
		ob.Upsert(o)
	}
	sb.Grant(3, "friend", Region{MinX: 50, MinY: 50, MaxX: 800, MaxY: 800}, day)
	ob.Grant(3, "friend", Region{MinX: 50, MinY: 50, MaxX: 800, MaxY: 800}, day)
	if err := p.sharded.Apply(sb); err != nil {
		t.Fatal(err)
	}
	if err := p.oracle.Apply(ob); err != nil {
		t.Fatal(err)
	}
	p.check(t, "batched", issuers, regions, times, ks)

	before := p.sharded.Size()
	bad := p.sharded.NewBatch()
	bad.Upsert(obj(1))
	bad.Remove(UserID(users + 500)) // never indexed: the batch must fail
	if err := p.sharded.Apply(bad); err == nil {
		t.Fatal("batch with unindexed remove applied")
	}
	obad := p.oracle.NewBatch()
	obad.Upsert(obj(1))
	obad.Remove(UserID(users + 500))
	if err := p.oracle.Apply(obad); err == nil {
		t.Fatal("oracle batch with unindexed remove applied")
	}
	if p.sharded.Size() != before {
		t.Fatalf("failed batch changed size: %d -> %d", before, p.sharded.Size())
	}
	p.check(t, "after failed batch", issuers, regions, times, ks)

	// Phase 5: snapshots over the same cut answer identically, and stay
	// pinned while both sides keep mutating.
	ssnap, err := p.sharded.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer ssnap.Close()
	osnap, err := p.oracle.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer osnap.Close()
	for i := 0; i < 30; i++ {
		p.upsert(t, obj(rng.Intn(users)+1))
	}
	if ssnap.Size() != osnap.Size() {
		t.Fatalf("snapshot size %d vs oracle %d", ssnap.Size(), osnap.Size())
	}
	for _, issuer := range issuers {
		for _, r := range regions {
			got, err := ssnap.RangeQuery(issuer, r, 30)
			if err != nil {
				t.Fatal(err)
			}
			want, err := osnap.RangeQuery(issuer, r, 30)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, sortedByUID(want)) {
				t.Fatalf("snapshot PRQ(%d, %+v) diverged:\n sharded %v\n oracle  %v",
					issuer, r, got, sortedByUID(want))
			}
		}
		gotN, err := ssnap.NearestNeighbors(issuer, 400, 400, 5, 30)
		if err != nil {
			t.Fatal(err)
		}
		wantN, err := osnap.NearestNeighbors(issuer, 400, 400, 5, 30)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotN, wantN) {
			t.Fatalf("snapshot PkNN(%d) diverged:\n sharded %v\n oracle  %v", issuer, gotN, wantN)
		}
	}
	// And the live DBs, which moved on, still agree with each other.
	p.check(t, "post-snapshot", issuers, regions, times, ks)
}

// TestShardedOracleShardCounts runs a compact oracle pass and the
// routed-cost gate at several shard counts, including 1 (the degenerate
// router) and a count that does not divide the space evenly.
func TestShardedOracleShardCounts(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + shards)))
			p := newPair(t, shards)
			day := TimeInterval{Start: 0, End: 1440}
			for u := UserID(2); u <= 20; u++ {
				p.relate(t, u, 1, "friend")
				p.grant(t, u, "friend", Region{MaxX: 1000, MaxY: 1000}, day)
			}
			for u := 1; u <= 80; u++ {
				p.upsert(t, Object{
					UID: UserID(u),
					X:   rng.Float64() * 1000, Y: rng.Float64() * 1000,
					VX: rng.Float64()*4 - 2, VY: rng.Float64()*4 - 2,
					T: rng.Float64() * 40,
				})
			}
			p.encode(t)
			p.check(t, "loaded",
				[]UserID{1, 50},
				[]Region{{MaxX: 1000, MaxY: 1000}, {MinX: 300, MinY: 300, MaxX: 700, MaxY: 700}},
				[]float64{20, 60},
				[]int{1, 5})
			p.checkRoutedCost(t, "loaded", 1)
		})
	}
}

// TestShardedOracleMidSplit holds a split open between its route flip and
// its drain — cover ≠ route, the upper half's objects still on the source —
// and moves part of the population meanwhile, so both halves hold objects of
// the divided range. Residency is a property of each shard's view, so the
// two halves between them must still answer as the single tree does, at the
// single tree's cost.
func TestShardedOracleMidSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := newPair(t, 2)
	day := TimeInterval{Start: 0, End: 1440}
	for u := UserID(2); u <= 20; u++ {
		p.relate(t, u, 1, "friend")
		p.grant(t, u, "friend", Region{MaxX: 1000, MaxY: 1000}, day)
	}
	obj := func(u int) Object {
		return Object{
			UID: UserID(u),
			X:   rng.Float64() * 1000, Y: rng.Float64() * 1000,
			VX: rng.Float64()*4 - 2, VY: rng.Float64()*4 - 2,
			T: rng.Float64() * 40,
		}
	}
	for u := 1; u <= 80; u++ {
		p.upsert(t, obj(u))
	}
	p.encode(t)
	check := func(label string) {
		t.Helper()
		p.check(t, label,
			[]UserID{1, 50},
			[]Region{{MaxX: 1000, MaxY: 1000}, {MinX: 300, MinY: 300, MaxX: 700, MaxY: 700}},
			[]float64{20, 60},
			[]int{1, 5})
		p.checkRoutedCost(t, label, 1)
	}

	src := hottestShard(p.sharded.Stats())
	if err := p.sharded.beginSplit(src); err != nil {
		t.Fatal(err)
	}
	for _, ss := range p.sharded.Stats().Shards {
		if ss.ID == src && ss.Cover == ss.Route {
			t.Fatal("split source's cover already equals its route — nothing is mid-flight")
		}
	}
	check("route flipped")
	for u := 1; u <= 80; u += 3 {
		p.upsert(t, obj(u))
	}
	check("moved mid-split")
	if err := p.sharded.finishPending(); err != nil {
		t.Fatal(err)
	}
	check("split finished")
}
