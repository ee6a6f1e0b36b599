package sharded

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/peb"
	"repro/peb/cq"
)

// The sharded continuous-query suite checks the merged delta streams
// against full re-runs of the one-shot queries. Two shards' commits
// interleave arbitrarily, so equivalence is checked at quiescence: after a
// burst of commits the stream is drained until silent, and a mirror built
// purely from the deltas must equal the query result. Well-formedness
// (Enter only for absent users, Leave/Update only for present ones) is
// enforced on every delta along the way.

// cqMirror replays a merged delta stream into a result-set copy.
type cqMirror struct {
	name string
	objs map[UserID]Object
	dist map[UserID]float64
	knn  bool
}

func newCQMirror(name string, knn bool) *cqMirror {
	return &cqMirror{name: name, objs: make(map[UserID]Object), dist: make(map[UserID]float64), knn: knn}
}

func (m *cqMirror) seedRange(init []Object) {
	for _, o := range init {
		m.objs[o.UID] = o
	}
}

func (m *cqMirror) seedKNN(init []Neighbor) {
	for _, nb := range init {
		m.objs[nb.Object.UID] = nb.Object
		m.dist[nb.Object.UID] = nb.Dist
	}
}

func (m *cqMirror) apply(t *testing.T, d cq.Delta) {
	t.Helper()
	uid := d.Object.UID
	_, has := m.objs[uid]
	switch d.Kind {
	case cq.Enter:
		if has {
			t.Fatalf("%s: Enter for present user %d", m.name, uid)
		}
		m.objs[uid] = d.Object
		m.dist[uid] = d.Dist
	case cq.Leave:
		if !has {
			t.Fatalf("%s: Leave for absent user %d", m.name, uid)
		}
		delete(m.objs, uid)
		delete(m.dist, uid)
	case cq.Update:
		if !has {
			t.Fatalf("%s: Update for absent user %d", m.name, uid)
		}
		m.objs[uid] = d.Object
		m.dist[uid] = d.Dist
	default:
		t.Fatalf("%s: malformed delta %+v", m.name, d)
	}
	if d.Dropped != 0 {
		t.Fatalf("%s: unexpected drop report %d (buffers are sized to never drop here)", m.name, d.Dropped)
	}
}

// drainQuiet applies deltas until the stream has been silent for quiet.
func drainQuiet(t *testing.T, sub *Subscription, m *cqMirror, quiet time.Duration) {
	t.Helper()
	timer := time.NewTimer(quiet)
	defer timer.Stop()
	for {
		select {
		case d, ok := <-sub.Deltas():
			if !ok {
				t.Fatalf("%s: stream closed during drain: %v", m.name, sub.Err())
			}
			m.apply(t, d)
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(quiet)
		case <-timer.C:
			return
		}
	}
}

func (m *cqMirror) checkRange(t *testing.T, db *DB, issuer UserID, r Region, qt float64) {
	t.Helper()
	want, err := db.RangeQuery(issuer, r, qt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(m.objs) {
		t.Fatalf("%s: mirror has %d objects, query returns %d", m.name, len(m.objs), len(want))
	}
	for _, o := range want {
		got, ok := m.objs[o.UID]
		if !ok || got != o {
			t.Fatalf("%s: user %d: mirror %+v (present %v), query %+v", m.name, o.UID, got, ok, o)
		}
	}
}

func (m *cqMirror) checkKNN(t *testing.T, db *DB, issuer UserID, x, y float64, k int, qt float64) {
	t.Helper()
	want, err := db.NearestNeighbors(issuer, x, y, k, qt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(m.objs) {
		t.Fatalf("%s: mirror has %d neighbors, query returns %d", m.name, len(m.objs), len(want))
	}
	for _, nb := range want {
		got, ok := m.objs[nb.Object.UID]
		if !ok || got != nb.Object || m.dist[nb.Object.UID] != nb.Dist {
			t.Fatalf("%s: neighbor %d: mirror %+v d=%g (present %v), query %+v d=%g",
				m.name, nb.Object.UID, got, m.dist[nb.Object.UID], ok, nb.Object, nb.Dist)
		}
	}
}

func cqClamp(r Region, side float64) Region {
	if r.MinX < 0 {
		r.MinX = 0
	}
	if r.MinY < 0 {
		r.MinY = 0
	}
	if r.MaxX > side {
		r.MaxX = side
	}
	if r.MaxY > side {
		r.MaxY = side
	}
	return r
}

func cqRandObject(rng *rand.Rand, uid UserID, now, side float64) Object {
	return Object{
		UID: uid,
		X:   rng.Float64() * side,
		Y:   rng.Float64() * side,
		VX:  (rng.Float64() - 0.5) * 3,
		VY:  (rng.Float64() - 0.5) * 3,
		T:   now,
	}
}

func cqSeedPolicies(t *testing.T, db *DB, rng *rand.Rand, nUsers int, side float64) {
	t.Helper()
	allDay := TimeInterval{Start: 0, End: 1440}
	for u := 1; u <= nUsers; u++ {
		role := Role(fmt.Sprintf("peer%d", u))
		for f := 0; f < 2+rng.Intn(5); f++ {
			peer := UserID(1 + rng.Intn(nUsers))
			if peer == UserID(u) {
				continue
			}
			if err := db.DefineRelation(UserID(u), peer, role); err != nil {
				t.Fatal(err)
			}
		}
		locr := Region{MinX: 0, MinY: 0, MaxX: side, MaxY: side}
		if rng.Intn(2) == 0 {
			cx, cy := rng.Float64()*side, rng.Float64()*side
			locr = cqClamp(Region{MinX: cx - 250, MinY: cy - 250, MaxX: cx + 250, MaxY: cy + 250}, side)
		}
		if err := db.Grant(UserID(u), role, locr, allDay); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCQOracle drives a random commit stream — single-shard
// upserts, re-homing moves, cross-shard batches, removes, policy flips,
// re-encodings — against merged range and PkNN subscriptions on a 4-shard
// DB, and periodically checks at quiescence that every delta mirror equals
// a fresh one-shot query.
func TestShardedCQOracle(t *testing.T) {
	const (
		shards    = 4
		nUsers    = 30
		steps     = 240
		checkEach = 80
		qt        = 300.0
		quiet     = 50 * time.Millisecond
	)
	db, err := Open(Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	side := db.shards[0].Bounds().MaxX
	rng := rand.New(rand.NewSource(7))
	cqSeedPolicies(t, db, rng, nUsers, side)
	now := 1.0
	for u := 1; u <= nUsers; u++ {
		if err := db.Upsert(cqRandObject(rng, UserID(u), now, side)); err != nil {
			t.Fatal(err)
		}
	}

	c, err := AttachCQ(db)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type rangeSub struct {
		sub    *Subscription
		mirror *cqMirror
		issuer UserID
		r      Region
	}
	type knnSub struct {
		sub    *Subscription
		mirror *cqMirror
		issuer UserID
		x, y   float64
		k      int
	}
	opt := cq.SubOptions{Buffer: 8192}
	var rsubs []rangeSub
	for i := 0; i < 5; i++ {
		issuer := UserID(1 + rng.Intn(nUsers))
		cx, cy := rng.Float64()*side, rng.Float64()*side
		r := cqClamp(Region{MinX: cx - 220, MinY: cy - 220, MaxX: cx + 220, MaxY: cy + 220}, side)
		sub, init, err := c.SubscribeRange(issuer, r, qt, opt)
		if err != nil {
			t.Fatal(err)
		}
		m := newCQMirror(fmt.Sprintf("range[%d]", i), false)
		m.seedRange(init)
		m.checkRange(t, db, issuer, r, qt) // registration is atomic: initial == fresh query
		rsubs = append(rsubs, rangeSub{sub, m, issuer, r})
	}
	var ksubs []knnSub
	for i := 0; i < 3; i++ {
		issuer := UserID(1 + rng.Intn(nUsers))
		x, y := rng.Float64()*side, rng.Float64()*side
		k := 2 + rng.Intn(4)
		sub, init, err := c.SubscribePkNN(issuer, x, y, k, qt, opt)
		if err != nil {
			t.Fatal(err)
		}
		m := newCQMirror(fmt.Sprintf("knn[%d]", i), true)
		m.seedKNN(init)
		m.checkKNN(t, db, issuer, x, y, k, qt)
		ksubs = append(ksubs, knnSub{sub, m, issuer, x, y, k})
	}

	checkAll := func() {
		t.Helper()
		for _, rs := range rsubs {
			drainQuiet(t, rs.sub, rs.mirror, quiet)
			rs.mirror.checkRange(t, db, rs.issuer, rs.r, qt)
		}
		for _, ks := range ksubs {
			drainQuiet(t, ks.sub, ks.mirror, quiet)
			ks.mirror.checkKNN(t, db, ks.issuer, ks.x, ks.y, ks.k, qt)
		}
	}

	allDay := TimeInterval{Start: 0, End: 1440}
	for step := 1; step <= steps; step++ {
		now += rng.Float64()
		switch rng.Intn(10) {
		case 0: // cross-shard batch (2PC path)
			b := db.NewBatch()
			for j := 0; j < 2+rng.Intn(4); j++ {
				b.Upsert(cqRandObject(rng, UserID(1+rng.Intn(nUsers)), now, side))
			}
			if err := db.Apply(b); err != nil {
				t.Fatal(err)
			}
		case 1: // remove (tolerated failure when not indexed)
			_ = db.Remove(UserID(1 + rng.Intn(nUsers)))
		case 2: // policy flip: grant a fresh window
			u := UserID(1 + rng.Intn(nUsers))
			cx, cy := rng.Float64()*side, rng.Float64()*side
			locr := cqClamp(Region{MinX: cx - 300, MinY: cy - 300, MaxX: cx + 300, MaxY: cy + 300}, side)
			if err := db.Grant(u, Role(fmt.Sprintf("peer%d", u)), locr, allDay); err != nil {
				t.Fatal(err)
			}
		case 3: // relation flip
			u := UserID(1 + rng.Intn(nUsers))
			peer := UserID(1 + rng.Intn(nUsers))
			if peer != u {
				if err := db.DefineRelation(u, peer, Role(fmt.Sprintf("peer%d", u))); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			if step%60 == 0 { // occasional re-encode (rebuild rescan, empty diff)
				if err := db.EncodePolicies(); err != nil {
					t.Fatal(err)
				}
				break
			}
			fallthrough
		default: // movement update anywhere in space — re-homing at will
			if err := db.Upsert(cqRandObject(rng, UserID(1+rng.Intn(nUsers)), now, side)); err != nil {
				t.Fatal(err)
			}
		}
		if step%checkEach == 0 {
			checkAll()
		}
	}
	checkAll()
	st := c.Stats()
	if st.Naive <= st.Evaluated {
		t.Errorf("incremental evaluation did not beat naive: %+v", st)
	}
	t.Logf("sharded cq stats: %+v (reduction %.1fx)", st, float64(st.Naive)/float64(st.Evaluated))
	for _, rs := range rsubs {
		rs.sub.Close()
	}
	for _, ks := range ksubs {
		ks.sub.Close()
	}
}

// TestShardedCQRehoming moves one object back and forth across a shard
// boundary inside a subscribed region and checks, at each quiescence, that
// the mirror tracks the true state — re-homing must never lose or
// duplicate the user in the merged stream.
func TestShardedCQRehoming(t *testing.T) {
	const qt = 100.0
	db, err := Open(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	side := db.shards[0].Bounds().MaxX
	if err := db.DefineRelation(1, 2, "buddy"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(1, "buddy", Region{MinX: 0, MinY: 0, MaxX: side, MaxY: side},
		TimeInterval{Start: 0, End: 1440}); err != nil {
		t.Fatal(err)
	}

	// Two positions in the subscribed region homed in different shards.
	var pa, pb [2]float64
	found := false
	r := Region{MinX: 0, MinY: 0, MaxX: side, MaxY: side}
	for y := side / 8; y < side && !found; y += side / 8 {
		for x := side / 16; x < side; x += side / 16 {
			if db.shardOf(x, y) != db.shardOf(side-x, side-y) {
				pa = [2]float64{x, y}
				pb = [2]float64{side - x, side - y}
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no shard boundary found in space")
	}

	now := 1.0
	if err := db.Upsert(Object{UID: 1, X: pa[0], Y: pa[1], T: now}); err != nil {
		t.Fatal(err)
	}
	c, err := AttachCQ(db)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, init, err := c.SubscribeRange(2, r, qt, cq.SubOptions{Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	m := newCQMirror("rehoming", false)
	m.seedRange(init)
	if len(m.objs) != 1 {
		t.Fatalf("expected user 1 in initial result, got %d objects", len(m.objs))
	}
	for i := 0; i < 20; i++ {
		now++
		p := pa
		if i%2 == 0 {
			p = pb
		}
		if err := db.Upsert(Object{UID: 1, X: p[0], Y: p[1], T: now}); err != nil {
			t.Fatal(err)
		}
		drainQuiet(t, sub, m, 30*time.Millisecond)
		got, ok := m.objs[1]
		if !ok {
			t.Fatalf("step %d: user 1 lost across re-homing", i)
		}
		if got.X != p[0] || got.Y != p[1] || got.T != now {
			t.Fatalf("step %d: mirror stale: %+v, want pos (%g,%g) t=%g", i, got, p[0], p[1], now)
		}
	}
}

// TestShardedCQLifecycle covers teardown: a caller Close ends the stream
// with a nil Err, CQ.Close cancels live subscriptions with
// cq.ErrEngineClosed, and subscriptions after CQ.Close are refused. Along
// the way Stats counts subscriptions, not legs, and the deltas lost at the
// merged channel.
func TestShardedCQLifecycle(t *testing.T) {
	db, err := Open(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	side := db.shards[0].Bounds().MaxX
	c, err := AttachCQ(db)
	if err != nil {
		t.Fatal(err)
	}
	r := Region{MinX: 0, MinY: 0, MaxX: side, MaxY: side}
	if err := db.DefineRelation(2, 1, "f"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(2, "f", r, TimeInterval{Start: 0, End: 1440}); err != nil {
		t.Fatal(err)
	}

	s1, _, err := c.SubscribeRange(1, r, 10, cq.SubOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Live != 1 || cqLegsLive(c) != 2 {
		t.Fatalf("Live = %d over %d legs, want 1 subscription over 2 legs", st.Live, cqLegsLive(c))
	}
	for i := 1; i <= 3; i++ { // Enter, Update, Update into one slot
		if err := db.Upsert(Object{UID: 2, X: float64(i), Y: 1, T: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Dropped != 2 {
		t.Fatalf("Dropped = %d, want the 2 deltas the 1-slot channel evicted", st.Dropped)
	}
	s1.Close()
	if d, ok := <-s1.Deltas(); !ok || d.Dropped != 2 {
		t.Fatalf("buffered delta after Close = %+v (open %v), want one reporting 2 dropped", d, ok)
	}
	if st := c.Stats(); st.Live != 0 {
		t.Fatalf("Live = %d after Close, want 0", st.Live)
	}
	if _, ok := <-s1.Deltas(); ok {
		t.Fatal("channel still open after Close")
	}
	if err := s1.Err(); err != nil {
		t.Fatalf("caller Close must leave a nil Err, got %v", err)
	}
	s1.Close() // idempotent

	s2, _, err := c.SubscribePkNN(1, side/2, side/2, 3, 10, cq.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	for range s2.Deltas() {
	}
	if err := s2.Err(); err != cq.ErrEngineClosed {
		t.Fatalf("CQ.Close must cancel with ErrEngineClosed, got %v", err)
	}
	if _, _, err := c.SubscribeRange(1, r, 10, cq.SubOptions{}); err != cq.ErrEngineClosed {
		t.Fatalf("subscribe after Close must fail with ErrEngineClosed, got %v", err)
	}
	c.Close() // idempotent
}

// TestShardedCQConcurrent runs committers against churning subscribers on
// a sharded DB — the -race exercise for merging inside the commit.
func TestShardedCQConcurrent(t *testing.T) {
	const (
		nUsers      = 40
		committers  = 3
		commitsEach = 120
		subscribers = 3
		subCycles   = 15
	)
	db, err := Open(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	side := db.shards[0].Bounds().MaxX
	rng := rand.New(rand.NewSource(3))
	cqSeedPolicies(t, db, rng, nUsers, side)
	for u := 1; u <= nUsers; u++ {
		if err := db.Upsert(cqRandObject(rng, UserID(u), 0, side)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := AttachCQ(db)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errc := make(chan error, committers+subscribers)
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			now := 1.0
			for i := 0; i < commitsEach; i++ {
				now += rng.Float64()
				var err error
				switch {
				case rng.Intn(12) == 0:
					b := db.NewBatch()
					for j := 0; j < 1+rng.Intn(4); j++ {
						b.Upsert(cqRandObject(rng, UserID(1+rng.Intn(nUsers)), now, side))
					}
					err = db.Apply(b)
				case rng.Intn(12) == 0:
					u := UserID(1 + rng.Intn(nUsers))
					err = db.Grant(u, Role(fmt.Sprintf("peer%d", u)),
						Region{MinX: 0, MinY: 0, MaxX: side, MaxY: side}, TimeInterval{Start: 0, End: 1440})
				default:
					err = db.Upsert(cqRandObject(rng, UserID(1+rng.Intn(nUsers)), now, side))
				}
				if err != nil {
					errc <- fmt.Errorf("committer: %w", err)
					return
				}
			}
		}(int64(w) + 400)
	}
	for w := 0; w < subscribers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for cyc := 0; cyc < subCycles; cyc++ {
				issuer := UserID(1 + rng.Intn(nUsers))
				var sub *Subscription
				var err error
				if rng.Intn(2) == 0 {
					cx, cy := rng.Float64()*side, rng.Float64()*side
					r := cqClamp(Region{MinX: cx - 200, MinY: cy - 200, MaxX: cx + 200, MaxY: cy + 200}, side)
					sub, _, err = c.SubscribeRange(issuer, r, 200, cq.SubOptions{Buffer: 64})
				} else {
					sub, _, err = c.SubscribePkNN(issuer, rng.Float64()*side, rng.Float64()*side,
						1+rng.Intn(4), 200, cq.SubOptions{Buffer: 64, Overflow: cq.Cancel})
				}
				if err != nil {
					errc <- fmt.Errorf("subscribe: %w", err)
					return
				}
				deadline := time.After(5 * time.Millisecond)
			drain:
				for {
					select {
					case _, ok := <-sub.Deltas():
						if !ok {
							break drain
						}
					case <-deadline:
						break drain
					}
				}
				sub.Close()
			}
		}(int64(w) + 500)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if live, legs := c.Stats().Live, cqLegsLive(c); live != 0 || legs != 0 {
		t.Fatalf("leaked %d subscriptions and %d per-shard legs", live, legs)
	}
}

// cqLegsLive sums the per-shard engines' registrations: the legs of every
// merged subscription.
func cqLegsLive(c *CQ) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.engines {
		n += e.Stats().Live
	}
	return n
}

// drainReady applies the deltas already in the channel. Deliveries run
// inside the commit, so once a write has returned nothing else is due.
func drainReady(t *testing.T, sub *Subscription, m *cqMirror) int {
	t.Helper()
	n := 0
	for {
		select {
		case d, ok := <-sub.Deltas():
			if !ok {
				return n
			}
			m.apply(t, d)
			n++
		default:
			return n
		}
	}
}

// cqOpenPopulated opens a memory-backed sharded DB with nUsers users who
// all let user 1 see them everywhere, all day.
func cqOpenPopulated(t *testing.T, shards, nUsers int, rng *rand.Rand) (*DB, float64) {
	t.Helper()
	db, err := Open(Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	side := db.shards[0].Bounds().MaxX
	everywhere := Region{MinX: 0, MinY: 0, MaxX: side, MaxY: side}
	for u := 2; u <= nUsers; u++ {
		if err := db.DefineRelation(UserID(u), 1, "f"); err != nil {
			t.Fatal(err)
		}
		if err := db.Grant(UserID(u), "f", everywhere, TimeInterval{Start: 0, End: 1440}); err != nil {
			t.Fatal(err)
		}
		if err := db.Upsert(cqRandObject(rng, UserID(u), 1, side)); err != nil {
			t.Fatal(err)
		}
	}
	return db, side
}

// TestShardedCQFootprint pins what a merged subscription costs while it
// idles: no goroutine, and a consumer channel plus per-shard registration
// state, not per-shard buffers.
func TestShardedCQFootprint(t *testing.T) {
	const subs = 100
	rng := rand.New(rand.NewSource(5))
	db, side := cqOpenPopulated(t, 4, 40, rng)
	defer db.Close()
	c, err := AttachCQ(db)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()
	held := make([]*Subscription, 0, subs)
	for i := 0; i < subs; i++ {
		cx, cy := rng.Float64()*side, rng.Float64()*side
		r := cqClamp(Region{MinX: cx - 150, MinY: cy - 150, MaxX: cx + 150, MaxY: cy + 150}, side)
		sub, _, err := c.SubscribeRange(1, r, 10, cq.SubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, sub)
	}
	if extra := runtime.NumGoroutine() - goroutines; extra != 0 {
		t.Errorf("%d subscriptions started %d goroutines, want none", subs, extra)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSub := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / subs
	t.Logf("%d legs, %d KB of live heap per subscription", cqLegsLive(c), perSub/1024)
	if perSub >= 100<<10 {
		t.Errorf("live heap per subscription = %d KB, want under 100 KB", perSub/1024)
	}
	for _, sub := range held {
		sub.Close()
	}
}

// TestShardedCQDeliveredBeforeReturn pins that a commit's deltas are in
// the consumer channel when the write returns: closing right after the
// last Upsert loses nothing.
func TestShardedCQDeliveredBeforeReturn(t *testing.T) {
	const (
		rounds  = 50
		upserts = 59
		nUsers  = 30
		qt      = 10.0
	)
	rng := rand.New(rand.NewSource(9))
	db, side := cqOpenPopulated(t, 4, nUsers, rng)
	defer db.Close()
	c, err := AttachCQ(db)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := Region{MinX: side / 4, MinY: side / 4, MaxX: 3 * side / 4, MaxY: 3 * side / 4}
	now := 1.0
	lost := 0
	for round := 0; round < rounds; round++ {
		sub, init, err := c.SubscribeRange(1, r, qt, cq.SubOptions{Buffer: 4096})
		if err != nil {
			t.Fatal(err)
		}
		m := newCQMirror(fmt.Sprintf("round %d", round), false)
		m.seedRange(init)
		for i := 0; i < upserts; i++ {
			now += 0.01
			if err := db.Upsert(cqRandObject(rng, UserID(2+rng.Intn(nUsers-1)), now, side)); err != nil {
				t.Fatal(err)
			}
		}
		sub.Close()
		for d := range sub.Deltas() {
			m.apply(t, d)
		}
		want, err := db.RangeQuery(1, r, qt)
		if err != nil {
			t.Fatal(err)
		}
		same := len(want) == len(m.objs)
		for _, o := range want {
			same = same && m.objs[o.UID] == o
		}
		if !same {
			lost++
		}
	}
	if lost != 0 {
		t.Fatalf("%d of %d rounds lost deltas to a Close right after the last Upsert", lost, rounds)
	}
}

// TestShardedCQSlowConsumer covers a consumer that does not read, under
// both overflow policies and both query forms. A witness subscription on
// the same query with room for everything counts what the merge emitted.
func TestShardedCQSlowConsumer(t *testing.T) {
	const (
		nUsers = 30
		buffer = 4
		qt     = 10.0
	)
	for _, tc := range []struct {
		name   string
		knn    bool
		policy cq.OverflowPolicy
	}{
		{"range/DropOldest", false, cq.DropOldest},
		{"knn/DropOldest", true, cq.DropOldest},
		{"range/Cancel", false, cq.Cancel},
		{"knn/Cancel", true, cq.Cancel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			db, side := cqOpenPopulated(t, 4, nUsers, rng)
			defer db.Close()
			c, err := AttachCQ(db)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			r := Region{MinX: side / 5, MinY: side / 5, MaxX: 4 * side / 5, MaxY: 4 * side / 5}
			subscribe := func(opt cq.SubOptions) (*Subscription, *cqMirror) {
				t.Helper()
				m := newCQMirror(tc.name, tc.knn)
				if tc.knn {
					sub, init, err := c.SubscribePkNN(1, side/2, side/2, 3, qt, opt)
					if err != nil {
						t.Fatal(err)
					}
					m.seedKNN(init)
					return sub, m
				}
				sub, init, err := c.SubscribeRange(1, r, qt, opt)
				if err != nil {
					t.Fatal(err)
				}
				m.seedRange(init)
				return sub, m
			}
			check := func(m *cqMirror) {
				t.Helper()
				if tc.knn {
					m.checkKNN(t, db, 1, side/2, side/2, 3, qt)
				} else {
					m.checkRange(t, db, 1, r, qt)
				}
			}
			slow, _ := subscribe(cq.SubOptions{Buffer: buffer, Overflow: tc.policy})
			defer slow.Close()
			witness, wm := subscribe(cq.SubOptions{Buffer: 4096})
			defer witness.Close()

			now := 1.0
			for i := 0; i < 60; i++ {
				now += 0.01
				if err := db.Upsert(cqRandObject(rng, UserID(2+rng.Intn(nUsers-1)), now, side)); err != nil {
					t.Fatalf("commit %d beside a stuck consumer: %v", i, err)
				}
			}
			emitted := drainReady(t, witness, wm)
			check(wm) // the other subscription saw everything
			if emitted <= buffer {
				t.Fatalf("only %d deltas emitted; the %d-slot buffer never overflowed", emitted, buffer)
			}

			got, reported := 0, 0
			if tc.policy == cq.DropOldest {
				if err := slow.Err(); err != nil {
					t.Fatalf("DropOldest subscription died: %v", err)
				}
				for len(slow.Deltas()) > 0 {
					reported += (<-slow.Deltas()).Dropped
					got++
				}
				if got != buffer || reported != emitted-buffer {
					t.Fatalf("read %d deltas reporting %d dropped, want %d reporting %d", got, reported, buffer, emitted-buffer)
				}
				// The engines' state is exact whatever the consumer missed.
				fresh, fm := subscribe(cq.SubOptions{})
				check(fm)
				fresh.Close()
			} else {
				for range slow.Deltas() { // closed: what was buffered, then the end
					got++
				}
				if got != buffer {
					t.Fatalf("read %d buffered deltas before the close, want %d", got, buffer)
				}
				if err := slow.Err(); err != cq.ErrSlowConsumer {
					t.Fatalf("Err = %v, want cq.ErrSlowConsumer", err)
				}
			}
			wantDropped := uint64(emitted - buffer)
			if tc.policy == cq.Cancel {
				wantDropped = 1 // the delta that found the buffer full
			}
			if st := c.Stats(); st.Dropped != wantDropped {
				t.Fatalf("Stats().Dropped = %d, want %d", st.Dropped, wantDropped)
			}
			slow.Close()
			witness.Close()
			if legs := cqLegsLive(c); legs != 0 {
				t.Fatalf("%d legs still registered after every Close", legs)
			}
		})
	}
}

// readFaultFS fails every page read while armed; everything else passes
// through to the wrapped filesystem.
type readFaultFS struct {
	store.VFS
	armed atomic.Bool
}

type readFaultFile struct {
	store.VFile
	fs *readFaultFS
}

func (f *readFaultFS) OpenFile(name string) (store.VFile, error) {
	vf, err := f.VFS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return readFaultFile{vf, f}, nil
}

func (f readFaultFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.armed.Load() {
		return 0, errInjectedRead
	}
	return f.VFile.ReadAt(p, off)
}

var errInjectedRead = errors.New("injected read fault")

// TestShardedCQRefanError pins what a failed re-fan-out does: a merge
// widens the target shard's cover over a subscription that had no leg
// there, the new leg's initial query hits a read fault, and the
// subscription ends with that error — and a router event — instead of
// silently never covering the shard.
func TestShardedCQRefanError(t *testing.T) {
	fs := &readFaultFS{VFS: store.NewCrashFS()}
	db, err := Open(Options{
		Shards: 2,
		Dir:    "root",
		DB:     peb.Options{Durability: peb.DurabilitySync, FS: fs, BufferPages: 4, MaxSpeed: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		fs.armed.Store(false)
		db.Close()
	}()
	side := db.shards[0].Bounds().MaxX
	everywhere := Region{MinX: 0, MinY: 0, MaxX: side, MaxY: side}
	rng := rand.New(rand.NewSource(2))
	for u := 2; u <= 400; u++ { // far more index pages than buffer pages
		if err := db.DefineRelation(UserID(u), 1, "f"); err != nil {
			t.Fatal(err)
		}
		if err := db.Grant(UserID(u), "f", everywhere, TimeInterval{Start: 0, End: 1440}); err != nil {
			t.Fatal(err)
		}
		if err := db.Upsert(cqRandObject(rng, UserID(u), 1, side)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := AttachCQ(db)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A window inside one shard, farther than the motion slack from the
	// other.
	src := db.metas[db.shardOf(50, 50)].id
	sub, _, err := c.SubscribeRange(1, Region{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 1, cq.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if legs := cqLegsLive(c); legs != 1 {
		t.Fatalf("subscription fans out to %d shards, want 1", legs)
	}
	witness, _, err := c.SubscribePkNN(1, 50, 50, 3, 1, cq.SubOptions{}) // on both shards already
	if err != nil {
		t.Fatal(err)
	}
	defer witness.Close()

	events := db.Events().Total()
	fs.armed.Store(true)
	_ = db.Merge(src) // the migration's own reads fail too; only the route flip matters here
	fs.armed.Store(false)

	select {
	case d, ok := <-sub.Deltas():
		if ok {
			t.Fatalf("delta %+v after the failed re-fan-out, want a closed channel", d)
		}
	default:
		t.Fatal("channel still open after the failed re-fan-out")
	}
	if err := sub.Err(); !errors.Is(err, errInjectedRead) {
		t.Fatalf("Err = %v, want the injected read fault", err)
	}
	if db.Events().Total() == events {
		t.Fatal("no router event recorded")
	}
	if err := witness.Err(); err != nil {
		t.Fatalf("a subscription that needed no new leg died: %v", err)
	}
}
