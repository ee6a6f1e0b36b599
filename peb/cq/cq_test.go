package cq_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/peb"
	"repro/peb/cq"
)

// mirror replays a subscription's delta stream into a result-set copy,
// validating kind transitions as it goes (Enter only for absent objects,
// Leave/Update only for present ones).
type mirror struct {
	t    *testing.T
	name string
	objs map[peb.UserID]peb.Object
	dist map[peb.UserID]float64
}

func newMirror(t *testing.T, name string) *mirror {
	return &mirror{t: t, name: name, objs: make(map[peb.UserID]peb.Object), dist: make(map[peb.UserID]float64)}
}

func (m *mirror) drain(sub *cq.Subscription) {
	for {
		select {
		case d, ok := <-sub.Deltas():
			if !ok {
				m.t.Fatalf("%s: channel closed unexpectedly: %v", m.name, sub.Err())
			}
			if d.Dropped != 0 {
				m.t.Fatalf("%s: unexpected drop of %d deltas", m.name, d.Dropped)
			}
			m.apply(d)
		default:
			return
		}
	}
}

func (m *mirror) apply(d cq.Delta) {
	uid := d.Object.UID
	_, present := m.objs[uid]
	switch d.Kind {
	case cq.Enter:
		if present {
			m.t.Fatalf("%s: Enter for already-present user %d (seq %d)", m.name, uid, d.Seq)
		}
		m.objs[uid] = d.Object
		m.dist[uid] = d.Dist
	case cq.Leave:
		if !present {
			m.t.Fatalf("%s: Leave for absent user %d (seq %d)", m.name, uid, d.Seq)
		}
		delete(m.objs, uid)
		delete(m.dist, uid)
	case cq.Update:
		if !present {
			m.t.Fatalf("%s: Update for absent user %d (seq %d)", m.name, uid, d.Seq)
		}
		m.objs[uid] = d.Object
		m.dist[uid] = d.Dist
	default:
		m.t.Fatalf("%s: bad delta kind %v", m.name, d.Kind)
	}
}

func (m *mirror) checkRange(db *peb.DB, issuer peb.UserID, r peb.Region, qt float64) {
	m.t.Helper()
	want, err := db.RangeQuery(issuer, r, qt)
	if err != nil {
		m.t.Fatalf("%s: oracle query: %v", m.name, err)
	}
	if len(want) != len(m.objs) {
		m.t.Fatalf("%s: mirror has %d objects, oracle %d", m.name, len(m.objs), len(want))
	}
	for _, o := range want {
		got, ok := m.objs[o.UID]
		if !ok {
			m.t.Fatalf("%s: oracle has user %d, mirror does not", m.name, o.UID)
		}
		if got != o {
			m.t.Fatalf("%s: user %d state diverged: mirror %v oracle %v", m.name, o.UID, got, o)
		}
	}
}

func (m *mirror) checkKNN(db *peb.DB, issuer peb.UserID, x, y float64, k int, qt float64) {
	m.t.Helper()
	want, err := db.NearestNeighbors(issuer, x, y, k, qt)
	if err != nil {
		m.t.Fatalf("%s: oracle query: %v", m.name, err)
	}
	if len(want) != len(m.objs) {
		m.t.Fatalf("%s: mirror has %d neighbors, oracle %d", m.name, len(m.objs), len(want))
	}
	for _, n := range want {
		got, ok := m.objs[n.Object.UID]
		if !ok {
			m.t.Fatalf("%s: oracle has neighbor %d, mirror does not", m.name, n.Object.UID)
		}
		if got != n.Object {
			m.t.Fatalf("%s: neighbor %d state diverged", m.name, n.Object.UID)
		}
		if m.dist[n.Object.UID] != n.Dist {
			m.t.Fatalf("%s: neighbor %d distance diverged: mirror %g oracle %g", m.name, n.Object.UID, m.dist[n.Object.UID], n.Dist)
		}
	}
}

// seedPolicies wires nUsers users into overlapping friend groups with
// space- and time-restricted grants, so membership flips on movement.
func seedPolicies(t testing.TB, db *peb.DB, rng *rand.Rand, nUsers int) {
	t.Helper()
	everywhere := peb.Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	allDay := peb.TimeInterval{Start: 0, End: 1440}
	for u := 1; u <= nUsers; u++ {
		role := peb.Role(fmt.Sprintf("peer%d", u))
		for f := 0; f < 2+rng.Intn(5); f++ {
			peer := peb.UserID(1 + rng.Intn(nUsers))
			if peer == peb.UserID(u) {
				continue
			}
			if err := db.DefineRelation(peb.UserID(u), peer, role); err != nil {
				t.Fatal(err)
			}
		}
		locr := everywhere
		tint := allDay
		if rng.Intn(2) == 0 {
			cx, cy := rng.Float64()*1000, rng.Float64()*1000
			locr = peb.Region{MinX: cx - 250, MinY: cy - 250, MaxX: cx + 250, MaxY: cy + 250}
			locr = clampRegion(locr)
		}
		if err := db.Grant(peb.UserID(u), role, locr, tint); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
}

func clampRegion(r peb.Region) peb.Region {
	if r.MinX < 0 {
		r.MinX = 0
	}
	if r.MinY < 0 {
		r.MinY = 0
	}
	if r.MaxX > 1000 {
		r.MaxX = 1000
	}
	if r.MaxY > 1000 {
		r.MaxY = 1000
	}
	return r
}

func randObject(rng *rand.Rand, uid peb.UserID, now float64) peb.Object {
	return peb.Object{
		UID: uid,
		X:   rng.Float64() * 1000,
		Y:   rng.Float64() * 1000,
		VX:  (rng.Float64() - 0.5) * 3,
		VY:  (rng.Float64() - 0.5) * 3,
		T:   now,
	}
}

// TestDeltaOracle drives a random commit stream — upserts, removes,
// batches, grant/relation flips, re-encodings — against live range and
// PkNN subscriptions and checks after every commit that replaying the
// delta stream reproduces exactly what a full re-run returns.
func TestDeltaOracle(t *testing.T) {
	const (
		nUsers = 40
		steps  = 400
		qt     = 300.0
	)
	rng := rand.New(rand.NewSource(7))
	db, err := peb.Open(peb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seedPolicies(t, db, rng, nUsers)

	eng, err := cq.Attach(db)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Initial population.
	b := db.NewBatch()
	for u := 1; u <= nUsers; u++ {
		b.Upsert(randObject(rng, peb.UserID(u), rng.Float64()*100))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}

	type rangeSub struct {
		sub    *cq.Subscription
		m      *mirror
		issuer peb.UserID
		region peb.Region
	}
	type knnSub struct {
		sub    *cq.Subscription
		m      *mirror
		issuer peb.UserID
		x, y   float64
		k      int
	}
	opt := cq.SubOptions{Buffer: 8192}

	var rsubs []rangeSub
	for i := 0; i < 6; i++ {
		issuer := peb.UserID(1 + rng.Intn(nUsers))
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		side := 100 + rng.Float64()*300
		region := clampRegion(peb.Region{MinX: cx - side/2, MinY: cy - side/2, MaxX: cx + side/2, MaxY: cy + side/2})
		sub, initial, err := eng.SubscribeRange(issuer, region, qt, opt)
		if err != nil {
			t.Fatal(err)
		}
		m := newMirror(t, fmt.Sprintf("range[%d]", i))
		for _, o := range initial {
			m.objs[o.UID] = o
		}
		m.checkRange(db, issuer, region, qt)
		rsubs = append(rsubs, rangeSub{sub, m, issuer, region})
	}
	var ksubs []knnSub
	for i := 0; i < 4; i++ {
		issuer := peb.UserID(1 + rng.Intn(nUsers))
		x, y := rng.Float64()*1000, rng.Float64()*1000
		k := 1 + rng.Intn(6)
		sub, initial, err := eng.SubscribePkNN(issuer, x, y, k, qt, opt)
		if err != nil {
			t.Fatal(err)
		}
		m := newMirror(t, fmt.Sprintf("knn[%d]", i))
		for _, n := range initial {
			m.objs[n.Object.UID] = n.Object
			m.dist[n.Object.UID] = n.Dist
		}
		m.checkKNN(db, issuer, x, y, k, qt)
		ksubs = append(ksubs, knnSub{sub, m, issuer, x, y, k})
	}

	now := 100.0
	removed := make(map[peb.UserID]bool)
	for step := 0; step < steps; step++ {
		now += rng.Float64() * 2
		switch op := rng.Intn(20); {
		case op < 10: // single upsert
			uid := peb.UserID(1 + rng.Intn(nUsers))
			if err := db.Upsert(randObject(rng, uid, now)); err != nil {
				t.Fatal(err)
			}
			delete(removed, uid)
		case op < 13: // batch of movement updates (some repeat users)
			nb := db.NewBatch()
			for j := 0; j < 1+rng.Intn(8); j++ {
				uid := peb.UserID(1 + rng.Intn(nUsers))
				nb.Upsert(randObject(rng, uid, now))
				delete(removed, uid)
			}
			if err := db.Apply(nb); err != nil {
				t.Fatal(err)
			}
		case op < 15: // remove an indexed user
			uid := peb.UserID(1 + rng.Intn(nUsers))
			if removed[uid] {
				continue
			}
			if err := db.Remove(uid); err != nil {
				t.Fatal(err)
			}
			removed[uid] = true
		case op < 17: // grant flip: add a policy for a random owner
			owner := peb.UserID(1 + rng.Intn(nUsers))
			role := peb.Role(fmt.Sprintf("peer%d", owner))
			cx, cy := rng.Float64()*1000, rng.Float64()*1000
			locr := clampRegion(peb.Region{MinX: cx - 200, MinY: cy - 200, MaxX: cx + 200, MaxY: cy + 200})
			if err := db.Grant(owner, role, locr, peb.TimeInterval{Start: 0, End: 1440}); err != nil {
				t.Fatal(err)
			}
		case op < 19: // relation flip: wire a new peer into an owner's role
			owner := peb.UserID(1 + rng.Intn(nUsers))
			peer := peb.UserID(1 + rng.Intn(nUsers))
			if owner == peer {
				continue
			}
			if err := db.DefineRelation(owner, peer, peb.Role(fmt.Sprintf("peer%d", owner))); err != nil {
				t.Fatal(err)
			}
		default: // re-encode (rebuild)
			if err := db.EncodePolicies(); err != nil {
				t.Fatal(err)
			}
		}

		for i := range rsubs {
			rs := &rsubs[i]
			rs.m.drain(rs.sub)
			rs.m.checkRange(db, rs.issuer, rs.region, qt)
		}
		for i := range ksubs {
			ks := &ksubs[i]
			ks.m.drain(ks.sub)
			ks.m.checkKNN(db, ks.issuer, ks.x, ks.y, ks.k, qt)
		}
	}

	st := eng.Stats()
	if st.Commits == 0 || st.Deltas == 0 {
		t.Fatalf("engine saw no traffic: %+v", st)
	}
	if st.Naive <= st.Evaluated {
		t.Errorf("incremental evaluation (%d) not cheaper than naive (%d)", st.Evaluated, st.Naive)
	}
	t.Logf("stats: %+v (reduction %.1fx)", st, float64(st.Naive)/float64(st.Evaluated+1))
}

// TestSubscribeAtomicity checks the delta stream continues the initial
// result exactly: an object present initially never Enters again without
// leaving first (guaranteed by the mirror's kind validation under load in
// TestDeltaOracle; here we check the simplest handoff explicitly).
func TestSubscribeAtomicity(t *testing.T) {
	db, err := peb.Open(peb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	everywhere := peb.Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	if err := db.DefineRelation(2, 1, "f"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(2, "f", everywhere, peb.TimeInterval{Start: 0, End: 1440}); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(peb.Object{UID: 2, X: 100, Y: 100, T: 0}); err != nil {
		t.Fatal(err)
	}

	eng, err := cq.Attach(db)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sub, initial, err := eng.SubscribeRange(1, everywhere, 10, cq.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(initial) != 1 || initial[0].UID != 2 {
		t.Fatalf("initial = %v, want user 2", initial)
	}
	// A movement update inside the region: exactly one Update delta.
	if err := db.Upsert(peb.Object{UID: 2, X: 200, Y: 200, T: 5}); err != nil {
		t.Fatal(err)
	}
	d := <-sub.Deltas()
	if d.Kind != cq.Update || d.Object.UID != 2 || d.Object.X != 200 {
		t.Fatalf("delta = %+v, want Update of user 2 at x=200", d)
	}
	// Leaving the space-time region: one Leave delta.
	if err := db.Remove(2); err != nil {
		t.Fatal(err)
	}
	d = <-sub.Deltas()
	if d.Kind != cq.Leave || d.Object.UID != 2 {
		t.Fatalf("delta = %+v, want Leave of user 2", d)
	}
	sub.Close()
	if _, ok := <-sub.Deltas(); ok {
		t.Fatal("channel still open after Close")
	}
	if sub.Err() != nil {
		t.Fatalf("err after plain Close = %v, want nil", sub.Err())
	}
}

// TestPreparedAbortEmitsNoDelta: a cross-shard participant's batch reaches
// a subscription only when it commits — a prepare abandoned uncommitted,
// which is how a transaction aborts, emits nothing (no Enter followed by a
// compensating Leave), a committed one exactly its Enter, at Commit.
func TestPreparedAbortEmitsNoDelta(t *testing.T) {
	db, err := peb.Open(peb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	everywhere := peb.Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	if err := db.DefineRelation(2, 1, "f"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(2, "f", everywhere, peb.TimeInterval{Start: 0, End: 1440}); err != nil {
		t.Fatal(err)
	}
	eng, err := cq.Attach(db)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sub, initial, err := eng.SubscribeRange(1, everywhere, 10, cq.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(initial) != 0 {
		t.Fatalf("initial = %v, want empty", initial)
	}
	// Deliveries happen inside the commit, so anything emitted is queued by
	// the time the call returns.
	none := func(when string) {
		t.Helper()
		select {
		case d := <-sub.Deltas():
			t.Fatalf("%s: delta %+v", when, d)
		default:
		}
	}
	prepare := func() *peb.Prepared {
		t.Helper()
		b := db.NewBatch()
		b.Upsert(peb.Object{UID: 2, X: 100, Y: 100, T: 0})
		p, err := db.Prepare(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	prepare() // abandoned: the abort
	none("after an abandoned prepare")

	p := prepare()
	none("after prepare")
	if err := p.Commit(2, nil); err != nil {
		t.Fatal(err)
	}
	if d := <-sub.Deltas(); d.Kind != cq.Enter || d.Object.UID != 2 {
		t.Fatalf("delta at commit = %+v, want Enter of user 2", d)
	}
	none("after the commit's Enter")
}

// TestSlowConsumerDropOldest fills a tiny buffer and checks the oldest
// deltas are discarded with an exact Dropped count on the next delivery.
func TestSlowConsumerDropOldest(t *testing.T) {
	db, eng, sub := slowConsumerSetup(t, cq.SubOptions{Buffer: 2, Overflow: cq.DropOldest})
	defer db.Close()
	defer eng.Close()

	// 5 updates into a 2-slot buffer: 3 dropped.
	for i := 1; i <= 5; i++ {
		if err := db.Upsert(peb.Object{UID: 2, X: float64(100 + i), Y: 100, T: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	d1 := <-sub.Deltas()
	d2 := <-sub.Deltas()
	if d1.Dropped+d2.Dropped != 3 {
		t.Fatalf("dropped %d+%d, want 3 total", d1.Dropped, d2.Dropped)
	}
	if d2.Object.X != 105 {
		t.Fatalf("newest delta x = %g, want 105 (drops must evict oldest)", d2.Object.X)
	}
	if st := eng.Stats(); st.Dropped != 3 {
		t.Fatalf("stats.Dropped = %d, want 3", st.Dropped)
	}
}

// TestSlowConsumerCancel checks the Cancel policy tears the subscription
// down with ErrSlowConsumer.
func TestSlowConsumerCancel(t *testing.T) {
	db, eng, sub := slowConsumerSetup(t, cq.SubOptions{Buffer: 1, Overflow: cq.Cancel})
	defer db.Close()
	defer eng.Close()

	for i := 1; i <= 3; i++ {
		if err := db.Upsert(peb.Object{UID: 2, X: float64(100 + i), Y: 100, T: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Drain until close.
	for range sub.Deltas() {
	}
	if !errors.Is(sub.Err(), cq.ErrSlowConsumer) {
		t.Fatalf("err = %v, want ErrSlowConsumer", sub.Err())
	}
	// The engine dropped the subscription: further commits are fine.
	if err := db.Upsert(peb.Object{UID: 2, X: 500, Y: 500, T: 10}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Live != 0 {
		t.Fatalf("live subs = %d, want 0", st.Live)
	}
}

func slowConsumerSetup(t *testing.T, opt cq.SubOptions) (*peb.DB, *cq.Engine, *cq.Subscription) {
	t.Helper()
	db, err := peb.Open(peb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	everywhere := peb.Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	if err := db.DefineRelation(2, 1, "f"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(2, "f", everywhere, peb.TimeInterval{Start: 0, End: 1440}); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(peb.Object{UID: 2, X: 100, Y: 100, T: 0}); err != nil {
		t.Fatal(err)
	}
	eng, err := cq.Attach(db)
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := eng.SubscribeRange(1, everywhere, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	return db, eng, sub
}

// TestEngineClose checks Close cancels live subscriptions with
// ErrEngineClosed and rejects new ones.
func TestEngineClose(t *testing.T) {
	db, eng, sub := slowConsumerSetup(t, cq.SubOptions{})
	defer db.Close()
	eng.Close()
	if _, ok := <-sub.Deltas(); ok {
		t.Fatal("channel open after engine close")
	}
	if !errors.Is(sub.Err(), cq.ErrEngineClosed) {
		t.Fatalf("err = %v, want ErrEngineClosed", sub.Err())
	}
	if _, _, err := eng.SubscribeRange(1, peb.Region{MaxX: 10, MaxY: 10}, 0, cq.SubOptions{}); !errors.Is(err, cq.ErrEngineClosed) {
		t.Fatalf("subscribe after close = %v, want ErrEngineClosed", err)
	}
	// Commits still work with the hook detached.
	if err := db.Upsert(peb.Object{UID: 2, X: 1, Y: 1, T: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestResultDiff checks the one diff every tracked result goes through:
// which deltas a transition amounts to, and in what order.
func TestResultDiff(t *testing.T) {
	obj := func(uid peb.UserID, x float64) peb.Object { return peb.Object{UID: uid, X: x, T: 1} }
	nb := func(uid peb.UserID, x, dist float64) peb.Neighbor {
		return peb.Neighbor{Object: obj(uid, x), Dist: dist}
	}
	var got []cq.Delta
	emit := func(d cq.Delta) { got = append(got, d) }
	expect := func(step string, want ...cq.Delta) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: emitted %+v, want %+v", step, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: delta %d = %+v, want %+v", step, i, got[i], want[i])
			}
		}
		got = got[:0]
	}

	// Range form: distances stay zero; Set decides one user at a time.
	r := cq.Result{}
	r.Set(7, nb(7, 10, 0), true, 1, emit)
	expect("enter", cq.Delta{Kind: cq.Enter, Object: obj(7, 10), Seq: 1})
	r.Set(7, nb(7, 10, 0), true, 2, emit)
	expect("unchanged")
	r.Set(7, nb(7, 11, 0), true, 3, emit)
	expect("update", cq.Delta{Kind: cq.Update, Object: obj(7, 11), Seq: 3})
	r.Set(9, peb.Neighbor{}, false, 4, emit)
	expect("absent stays absent")
	r.Set(7, peb.Neighbor{}, false, 5, emit)
	expect("leave carries the last state", cq.Delta{Kind: cq.Leave, Object: obj(7, 11), Seq: 5})
	if len(r) != 0 {
		t.Fatalf("tracked result after the leave: %v", r)
	}

	// A rescan: leaves by user id first, then enters and updates in
	// result order; an unchanged member emits nothing.
	r.Replace([]peb.Neighbor{nb(5, 1, 0), nb(3, 1, 0), nb(8, 1, 0), nb(4, 1, 0)}, 6, emit)
	expect("seed", cq.Delta{Kind: cq.Enter, Object: obj(5, 1), Seq: 6}, cq.Delta{Kind: cq.Enter, Object: obj(3, 1), Seq: 6},
		cq.Delta{Kind: cq.Enter, Object: obj(8, 1), Seq: 6}, cq.Delta{Kind: cq.Enter, Object: obj(4, 1), Seq: 6})
	r.Replace([]peb.Neighbor{nb(4, 2, 0), nb(9, 1, 0), nb(3, 1, 0)}, 7, emit)
	expect("rescan",
		cq.Delta{Kind: cq.Leave, Object: obj(5, 1), Seq: 7}, cq.Delta{Kind: cq.Leave, Object: obj(8, 1), Seq: 7},
		cq.Delta{Kind: cq.Update, Object: obj(4, 2), Seq: 7}, cq.Delta{Kind: cq.Enter, Object: obj(9, 1), Seq: 7})

	// PkNN form: a changed distance alone is an Update, and a Leave
	// reports the distance the neighbor last had.
	k := cq.Result{}
	k.Replace([]peb.Neighbor{nb(1, 0, 2.5), nb(2, 0, 4)}, 1, emit)
	expect("knn seed", cq.Delta{Kind: cq.Enter, Object: obj(1, 0), Dist: 2.5, Seq: 1}, cq.Delta{Kind: cq.Enter, Object: obj(2, 0), Dist: 4, Seq: 1})
	k.Replace([]peb.Neighbor{nb(3, 0, 1), nb(1, 0, 3)}, 2, emit)
	expect("knn re-run", cq.Delta{Kind: cq.Leave, Object: obj(2, 0), Dist: 4, Seq: 2},
		cq.Delta{Kind: cq.Enter, Object: obj(3, 0), Dist: 1, Seq: 2}, cq.Delta{Kind: cq.Update, Object: obj(1, 0), Dist: 3, Seq: 2})
	if len(k) != 2 || k[3].Dist != 1 || k[1].Dist != 3 {
		t.Fatalf("tracked PkNN result: %v", k)
	}
}

// TestWatchContract checks the callback registration directly: the current
// result first with Seq 0, commit deltas after, a false verdict drops the
// registration without calling end, and end reports an engine Close only
// to registrations that were not stopped.
func TestWatchContract(t *testing.T) {
	db, eng, sub := slowConsumerSetup(t, cq.SubOptions{})
	defer db.Close()
	defer sub.Close()
	q := cq.Query{Issuer: 1, Region: peb.Region{MaxX: 1000, MaxY: 1000}, T: 10}

	var seen []cq.Delta
	ended := 0
	stop, err := eng.Watch(q, func(d cq.Delta) bool {
		seen = append(seen, d)
		return len(seen) < 3
	}, func(error) { ended++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0].Kind != cq.Enter || seen[0].Seq != 0 || seen[0].Object.UID != 2 {
		t.Fatalf("registration delivered %+v, want user 2 entering with Seq 0", seen)
	}
	for i := 1; i <= 4; i++ {
		if err := db.Upsert(peb.Object{UID: 2, X: float64(100 + i), Y: 100, T: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 3 || seen[2].Kind != cq.Update || seen[2].Seq <= seen[1].Seq {
		t.Fatalf("deliveries %+v, want two updates in commit order and none after the false verdict", seen)
	}
	if st := eng.Stats(); st.Live != 1 || ended != 0 {
		t.Fatalf("after the false verdict: %d live (want the channel subscription only), end called %d times", st.Live, ended)
	}
	stop() // idempotent on a dropped registration

	var reason error
	stopped, err := eng.Watch(q, func(cq.Delta) bool { return true }, func(error) { ended++ })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Watch(q, func(cq.Delta) bool { return true }, func(err error) { reason = err }); err != nil {
		t.Fatal(err)
	}
	stopped()
	eng.Close()
	if !errors.Is(reason, cq.ErrEngineClosed) || ended != 0 {
		t.Fatalf("engine Close: live registration got %v, stopped one got %d calls", reason, ended)
	}
}
