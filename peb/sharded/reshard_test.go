package sharded

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/store"
	"repro/peb"
	"repro/peb/cq"
)

// hottestShard returns the id of the routed shard holding the most
// objects (the natural forced-split target in tests).
func hottestShard(st Stats) int {
	id, size := -1, -1
	for _, ss := range st.Shards {
		if !ss.NoRoute && ss.Size > size {
			id, size = ss.ID, ss.Size
		}
	}
	return id
}

func TestSplitAndMergeBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db, err := Open(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	day := TimeInterval{Start: 0, End: 1440}
	if err := db.DefineRelation(1, 99, "w"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(1, "w", Region{MaxX: 1000, MaxY: 1000}, day); err != nil {
		t.Fatal(err)
	}
	const users = 200
	for u := 1; u <= users; u++ {
		o := Object{UID: UserID(u), X: rng.Float64() * 1000, Y: rng.Float64() * 1000, T: 1}
		if err := db.Upsert(o); err != nil {
			t.Fatal(err)
		}
	}
	epoch0 := db.Epoch()

	target := hottestShard(db.Stats())
	if err := db.Split(target); err != nil {
		t.Fatalf("split shard %d: %v", target, err)
	}
	if got := db.Shards(); got != 3 {
		t.Fatalf("Shards() = %d after split, want 3", got)
	}
	st := db.Stats()
	if st.Splits != 1 || st.Merges != 0 {
		t.Fatalf("counters after split: %d splits, %d merges", st.Splits, st.Merges)
	}
	if st.Epoch != epoch0+2 {
		t.Fatalf("epoch %d after split, want %d (flip + finalize)", st.Epoch, epoch0+2)
	}
	if db.Size() != users {
		t.Fatalf("size %d after split, want %d", db.Size(), users)
	}
	// The new shard got its id from the allocator, not a reused slot id.
	seenNew := false
	for _, ss := range st.Shards {
		if ss.ID == 2 {
			seenNew = true
		}
		if ss.NoRoute || ss.Route != ss.Cover {
			t.Fatalf("shard %d still mid-migration after Split returned: %+v", ss.ID, ss)
		}
	}
	if !seenNew {
		t.Fatalf("expected a shard with id 2 after the split: %+v", st.Shards)
	}
	// Every object now lives in the shard routing its position.
	for i, s := range db.shards {
		objs, err := s.Objects()
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs {
			if db.shardOf(o.X, o.Y) != i {
				t.Fatalf("user %d at (%g,%g) held by slot %d, routed to %d",
					o.UID, o.X, o.Y, i, db.shardOf(o.X, o.Y))
			}
		}
	}
	// Policies followed the split: the new shard evaluates the predicate.
	res, err := db.RangeQuery(99, Region{MaxX: 1000, MaxY: 1000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("full-space query found nothing after split")
	}

	// A second concurrent topology change is refused while one is pending —
	// but after Split returned, pending is resolved, so a merge is fine.
	if err := db.Merge(target); err != nil {
		t.Fatalf("merge shard %d: %v", target, err)
	}
	if got := db.Shards(); got != 2 {
		t.Fatalf("Shards() = %d after merge, want 2", got)
	}
	st = db.Stats()
	if st.Splits != 1 || st.Merges != 1 {
		t.Fatalf("counters after merge: %d splits, %d merges", st.Splits, st.Merges)
	}
	if db.Size() != users {
		t.Fatalf("size %d after merge, want %d", db.Size(), users)
	}
	ts := topoState{epoch: st.Epoch, nextID: db.nextID, metas: db.metas}
	if err := ts.validate(db.grid.Order); err != nil {
		t.Fatalf("post-merge topology invalid: %v", err)
	}

	// Degenerate refusals.
	if err := db.Split(999); err == nil {
		t.Fatal("split of unknown shard accepted")
	}
	if err := db.Merge(999); err == nil {
		t.Fatal("merge of unknown shard accepted")
	}
}

func TestMergeToSingleShardAndBack(t *testing.T) {
	db, err := Open(Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i, q := range quadrant {
		if err := db.Upsert(Object{UID: UserID(i + 1), X: q[0], Y: q[1], T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for db.Shards() > 1 {
		id := db.Stats().Shards[0].ID
		if err := db.Merge(id); err != nil {
			t.Fatalf("merge down (at %d shards): %v", db.Shards(), err)
		}
	}
	if err := db.Merge(db.Stats().Shards[0].ID); err == nil {
		t.Fatal("merge of the sole shard accepted")
	}
	if db.Size() != 4 {
		t.Fatalf("size %d after merging to one shard", db.Size())
	}
	// And split the survivor again: the id allocator keeps moving forward.
	if err := db.Split(db.Stats().Shards[0].ID); err != nil {
		t.Fatal(err)
	}
	if db.Shards() != 2 || db.Size() != 4 {
		t.Fatalf("post-resplit: %d shards, %d users", db.Shards(), db.Size())
	}
}

// TestReshardOracleCycles forces split and merge cycles between churn
// rounds and asserts query-for-query equality with a single peb.DB
// throughout — the resharding must be invisible to every query surface.
func TestReshardOracleCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p := newPair(t, 2)
	day := TimeInterval{Start: 0, End: 1440}
	for u := UserID(2); u <= 30; u++ {
		p.relate(t, u, 1, "friend")
		if u%2 == 0 {
			p.grant(t, u, "friend", Region{MaxX: 1000, MaxY: 1000}, day)
		} else {
			p.grant(t, u, "friend", Region{MaxX: 650, MaxY: 650}, TimeInterval{Start: 0, End: 720})
		}
	}
	obj := func(uid int) Object {
		return Object{
			UID: UserID(uid),
			X:   rng.Float64() * 1000, Y: rng.Float64() * 1000,
			VX: rng.Float64()*6 - 3, VY: rng.Float64()*6 - 3,
			T: rng.Float64() * 50,
		}
	}
	const users = 120
	for u := 1; u <= users; u++ {
		p.upsert(t, obj(u))
	}
	p.encode(t)

	issuers := []UserID{1, 99}
	regions := []Region{
		{MaxX: 1000, MaxY: 1000},
		{MinX: 100, MinY: 100, MaxX: 450, MaxY: 450},
		{MinX: 480, MinY: 480, MaxX: 520, MaxY: 520},
	}
	times := []float64{30, 90}
	ks := []int{1, 5}
	churn := func() {
		for i := 0; i < 40; i++ {
			u := rng.Intn(users) + 1
			if rng.Intn(8) == 0 {
				if _, ok, _ := p.oracle.Lookup(UserID(u)); ok {
					p.remove(t, UserID(u))
					continue
				}
			}
			p.upsert(t, obj(u))
		}
	}

	p.check(t, "pre-reshard", issuers, regions, times, ks)
	for cycle := 0; cycle < 3; cycle++ {
		target := hottestShard(p.sharded.Stats())
		if err := p.sharded.Split(target); err != nil {
			t.Fatalf("cycle %d: split %d: %v", cycle, target, err)
		}
		p.check(t, fmt.Sprintf("cycle %d post-split", cycle), issuers, regions, times, ks)
		churn()
		p.check(t, fmt.Sprintf("cycle %d post-split churn", cycle), issuers, regions, times, ks)
	}
	if got := p.sharded.Shards(); got != 5 {
		t.Fatalf("%d shards after three splits, want 5", got)
	}
	for p.sharded.Shards() > 2 {
		id := p.sharded.Stats().Shards[0].ID
		if err := p.sharded.Merge(id); err != nil {
			t.Fatalf("merge %d: %v", id, err)
		}
		p.check(t, fmt.Sprintf("after merging %d", id), issuers, regions, times, ks)
		churn()
	}
	p.check(t, "post-merges", issuers, regions, times, ks)
}

// TestShardedReshardCycles runs 100 split/merge cycles on a durable
// router, with a write and a query between cycles. Every merge closes its
// source's engine and reclaims its directory, so afterwards the population
// is intact, only the live shards hold files, no goroutine is left behind,
// and Close leaves nothing running.
func TestShardedReshardCycles(t *testing.T) {
	base := runtime.NumGoroutine()
	fs := store.NewCrashFS()
	db, err := Open(Options{
		Shards: 2,
		Dir:    "cycles",
		DB:     peb.Options{Durability: peb.DurabilitySync, FS: fs},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const users = 40
	for u := 1; u <= users; u++ {
		if err := db.Upsert(Object{UID: UserID(u), X: rng.Float64() * 1000, Y: rng.Float64() * 1000, T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	steady := runtime.NumGoroutine()

	for cycle := 0; cycle < 100; cycle++ {
		if err := db.Split(hottestShard(db.Stats())); err != nil {
			t.Fatalf("cycle %d: split: %v", cycle, err)
		}
		if err := db.Merge(db.nextID - 1); err != nil {
			t.Fatalf("cycle %d: merge: %v", cycle, err)
		}
		u := UserID(1 + rng.Intn(users))
		if err := db.Upsert(Object{UID: u, X: rng.Float64() * 1000, Y: rng.Float64() * 1000, T: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.RangeQuery(1, Region{MaxX: 1000, MaxY: 1000}, 2); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Splits != 100 || st.Merges != 100 || len(st.Shards) != 2 {
		t.Fatalf("%d splits, %d merges, %d shards; want 100, 100, 2", st.Splits, st.Merges, len(st.Shards))
	}
	if db.Size() != users {
		t.Fatalf("size %d after the cycles, want %d", db.Size(), users)
	}
	live := make(map[int]bool)
	for _, ss := range st.Shards {
		live[ss.ID] = true
	}
	for id := 0; id < db.nextID; id++ {
		names, err := fs.ListDir(shardDir("cycles", id))
		if err != nil {
			t.Fatal(err)
		}
		if live[id] != (len(names) > 0) {
			t.Fatalf("shard %d (live %v) holds %d files", id, live[id], len(names))
		}
	}
	leakcheck.WaitGoroutines(t, steady)

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.WaitGoroutines(t, base)
}

// TestReshardDurability: splits and merges survive reopen — the adopted
// topology matches what was committed, and every object is where the
// routes say.
func TestReshardDurability(t *testing.T) {
	fs := store.NewCrashFS()
	opts := Options{
		Shards: 2,
		Dir:    "root",
		DB:     peb.Options{Durability: peb.DurabilitySync, FS: fs},
	}
	rng := rand.New(rand.NewSource(5))
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const users = 80
	for u := 1; u <= users; u++ {
		o := Object{UID: UserID(u), X: rng.Float64() * 1000, Y: rng.Float64() * 1000, T: 1}
		if err := db.Upsert(o); err != nil {
			t.Fatal(err)
		}
	}
	target := hottestShard(db.Stats())
	if err := db.Split(target); err != nil {
		t.Fatal(err)
	}
	epoch := db.Epoch()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen after split: %v", err)
	}
	if re.Shards() != 3 || re.Size() != users {
		t.Fatalf("reopen: %d shards, %d users; want 3, %d", re.Shards(), re.Size(), users)
	}
	if re.Epoch() != epoch {
		t.Fatalf("reopen epoch %d, want %d", re.Epoch(), epoch)
	}
	if err := re.Merge(target); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	re2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen after merge: %v", err)
	}
	defer re2.Close()
	if re2.Shards() != 2 || re2.Size() != users {
		t.Fatalf("second reopen: %d shards, %d users; want 2, %d", re2.Shards(), re2.Size(), users)
	}
	// The merged-away shard's directory was reclaimed.
	ids := make(map[int]bool)
	for _, ss := range re2.Stats().Shards {
		ids[ss.ID] = true
	}
	if ids[target] {
		t.Fatalf("merged shard %d still in the topology: %v", target, ids)
	}

	// A corrupt manifest is a clear error, not a silent fresh start.
	if err := store.WriteFileAtomic(fs, "root/sharded.json", []byte("not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

func TestLoadMeterRates(t *testing.T) {
	db, err := Open(Options{Shards: 2, LoadRateHalfLife: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	now := time.Unix(1000, 0)
	db.now = func() time.Time { return now }
	db.Stats() // anchor every meter's clock

	// 200 commits into quadrant 0 (one shard), none elsewhere.
	for i := 0; i < 200; i++ {
		if err := db.Upsert(Object{UID: UserID(i + 1), X: 250, Y: 250, T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.RangeQuery(1, Region{MinX: 200, MinY: 200, MaxX: 300, MaxY: 300}, 1); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Second)
	st := db.Stats()
	hot, cold := -1, -1
	for i, ss := range st.Shards {
		if ss.Commits >= 200 {
			hot = i
		} else {
			cold = i
		}
	}
	if hot < 0 || cold < 0 {
		t.Fatalf("commit counters did not separate the shards: %+v", st.Shards)
	}
	// One half-life at 200/s instantaneous: EWMA folds in half of it.
	hr := st.Shards[hot].CommitRate
	if hr < 50 || hr > 200 {
		t.Fatalf("hot shard commit rate %g, want around 100", hr)
	}
	if st.Shards[cold].CommitRate > 25 {
		t.Fatalf("cold shard commit rate %g, want near 0", st.Shards[cold].CommitRate)
	}
	if st.Shards[hot].QueryRate <= 0 {
		t.Fatalf("query rate %g after a routed query", st.Shards[hot].QueryRate)
	}

	// With no further traffic the rate decays toward zero.
	now = now.Add(10 * time.Second)
	st = db.Stats()
	if decayed := st.Shards[hot].CommitRate; decayed >= hr/4 {
		t.Fatalf("rate failed to decay: %g -> %g", hr, decayed)
	}

	// Lifetime counters never decay.
	if st.Shards[hot].Commits < 200 {
		t.Fatalf("lifetime commits %d", st.Shards[hot].Commits)
	}
}

// TestAutoReshardSplitsHotShard drives the maintainer with a skewed load —
// one small rectangle hammered, the rest of the space holding objects that
// never move again — and requires both kinds of topology change: the hot
// shard splits, two cold neighbours merge, and the population survives the
// migrations exactly.
func TestAutoReshardSplitsHotShard(t *testing.T) {
	db, err := Open(Options{
		Shards:           4,
		LoadRateHalfLife: 50 * time.Millisecond,
		AutoReshard: AutoReshardPolicy{
			Interval:        10 * time.Millisecond,
			SplitCommitRate: 50,
			MergeCommitRate: 5,
			MaxShards:       5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	// Every user commits once up front — the loop below stops at the first
	// split and merge, which can fire before a random stream has covered
	// the whole population. The cold users give a merge objects to move.
	rng := rand.New(rand.NewSource(9))
	const hotUsers, coldUsers = 64, 64
	hotObj := func(u int) Object {
		return Object{UID: UserID(u), X: 200 + rng.Float64()*100, Y: 200 + rng.Float64()*100, T: 1}
	}
	for u := 1; u <= hotUsers; u++ {
		if err := db.Upsert(hotObj(u)); err != nil {
			t.Fatal(err)
		}
	}
	for u := hotUsers + 1; u <= hotUsers+coldUsers; u++ {
		if err := db.Upsert(Object{UID: UserID(u), X: rng.Float64() * 1000, Y: rng.Float64() * 1000, T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	var st Stats
	for st.Splits == 0 || st.Merges == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after 10s of skewed load: %d splits, %d merges, want at least one of each", st.Splits, st.Merges)
		}
		for i := 0; i < 50; i++ {
			if err := db.Upsert(hotObj(1 + rng.Intn(hotUsers))); err != nil {
				t.Fatal(err)
			}
		}
		st = db.Stats()
	}
	if got := db.Size(); got != hotUsers+coldUsers {
		t.Fatalf("size %d across automatic split and merge, want %d", got, hotUsers+coldUsers)
	}
}

func TestAutoReshardOptionValidation(t *testing.T) {
	bad := []Options{
		{AutoReshard: AutoReshardPolicy{Interval: time.Second, SplitCommitRate: -1}},
		{AutoReshard: AutoReshardPolicy{Interval: time.Second, SplitCommitRate: 10, MergeCommitRate: 10}},
		{AutoReshard: AutoReshardPolicy{Interval: time.Second, MinShards: 8, MaxShards: 4}},
		{LoadRateHalfLife: -time.Second},
	}
	for i, o := range bad {
		if _, err := Open(o); !errors.Is(err, peb.ErrBadOptions) {
			t.Fatalf("case %d: got %v, want ErrBadOptions", i, err)
		}
	}
}

// TestCQSurvivesSplitAndMerge pins the resharding contract for standing
// queries: live range and PkNN subscriptions keep streaming across a
// split and a merge, with every delta well-formed and the mirrors equal
// to fresh one-shot queries at quiescence.
func TestCQSurvivesSplitAndMerge(t *testing.T) {
	const qt = 100.0
	rng := rand.New(rand.NewSource(13))
	db, err := Open(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cqSeedPolicies(t, db, rng, 24, 1000)
	c, err := AttachCQ(db)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for u := 1; u <= 24; u++ {
		if err := db.Upsert(cqRandObject(rng, UserID(u), 1, 1000)); err != nil {
			t.Fatal(err)
		}
	}

	opt := cq.SubOptions{Buffer: 4096}
	region := Region{MinX: 150, MinY: 150, MaxX: 850, MaxY: 850}
	rsub, rinit, err := c.SubscribeRange(1, region, qt, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer rsub.Close()
	rm := newCQMirror("range", false)
	rm.seedRange(rinit)
	ksub, kinit, err := c.SubscribePkNN(2, 500, 500, 6, qt, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ksub.Close()
	km := newCQMirror("knn", true)
	km.seedKNN(kinit)

	quiet := 60 * time.Millisecond
	settle := func(label string) {
		t.Helper()
		drainQuiet(t, rsub, rm, quiet)
		rm.checkRange(t, db, 1, region, qt)
		drainQuiet(t, ksub, km, quiet)
		km.checkKNN(t, db, 2, 500, 500, 6, qt)
		_ = label
	}
	churn := func(now float64) {
		for i := 0; i < 40; i++ {
			if err := db.Upsert(cqRandObject(rng, UserID(1+rng.Intn(24)), now, 1000)); err != nil {
				t.Fatal(err)
			}
		}
	}

	churn(2)
	settle("pre-split")

	target := hottestShard(db.Stats())
	if err := db.Split(target); err != nil {
		t.Fatal(err)
	}
	settle("post-split")
	churn(3)
	settle("post-split churn")

	// Split again so the merge below crosses a boundary the subscriptions
	// watch, then merge twice to land below the starting count.
	if err := db.Split(hottestShard(db.Stats())); err != nil {
		t.Fatal(err)
	}
	churn(4)
	settle("post-second-split")

	for db.Shards() > 2 {
		id := db.Stats().Shards[0].ID
		if err := db.Merge(id); err != nil {
			t.Fatal(err)
		}
		churn(5)
		settle(fmt.Sprintf("post-merge-%d", id))
	}

	// The streams survived it all; a plain Close still works.
	rsub.Close()
	if err := rsub.Err(); err != nil {
		t.Fatalf("range subscription died with %v", err)
	}
	ksub.Close()
	if err := ksub.Err(); err != nil {
		t.Fatalf("knn subscription died with %v", err)
	}
}
