package sharded

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/peb"
)

func TestShardedFollowerValidation(t *testing.T) {
	if _, err := Open(Options{ReplicasPerShard: -1}); !errors.Is(err, peb.ErrBadOptions) {
		t.Fatalf("negative replicas: %v", err)
	}
	if _, err := Open(Options{ReplicasPerShard: 1}); !errors.Is(err, peb.ErrBadOptions) {
		t.Fatalf("replicas without durability: %v", err)
	}
}

// newFollowerPair is newPair with a durable sharded side running follower
// reads: every query the oracle comparison issues is answered by a
// replica (or a deliberate primary fallback) instead of a shard primary.
func newFollowerPair(t *testing.T, shards, replicas int, staleness uint64) pair {
	t.Helper()
	fs := store.NewCrashFS()
	sh, err := Open(Options{
		Shards: shards,
		Dir:    "frdb",
		DB: peb.Options{
			Durability:      peb.DurabilitySync,
			FS:              fs,
			WALSegmentBytes: 1 << 10,
		},
		ReplicasPerShard: replicas,
		StalenessBound:   staleness,
	})
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

// TestShardedFollowerOracleEquivalence is the routed follower-read
// oracle: a sharded DB whose queries are served by replicas must answer
// exactly like a single-tree DB fed the same operations — across policy
// changes, re-homing movement, removes, an encode rebuild, and a
// checkpoint that drops covered segments mid-history.
func TestShardedFollowerOracleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p := newFollowerPair(t, 4, 2, 0)

	issuers := []UserID{1, 2, 3, 50}
	regions := []Region{
		{MinX: 0, MinY: 0, MaxX: 999, MaxY: 999},
		{MinX: 200, MinY: 200, MaxX: 600, MaxY: 600},
		{MinX: 700, MinY: 100, MaxX: 950, MaxY: 450},
	}
	times := []float64{5, 30}
	ks := []int{1, 5}

	for i := 1; i <= 60; i++ {
		p.upsert(t, Object{UID: UserID(i), X: float64(rng.Intn(1000)), Y: float64(rng.Intn(1000)), T: 1})
	}
	for _, iss := range issuers {
		for u := 1; u <= 60; u += 7 {
			if UserID(u) == iss {
				// No self-relations: a self-related issuer's own entry is
				// excluded from the SV search and surfaces only through
				// incidental leaf co-location, which legitimately differs
				// between the single tree and the shard trees.
				continue
			}
			p.relate(t, UserID(u), iss, "f")
		}
	}
	for u := 1; u <= 60; u += 3 {
		p.grant(t, UserID(u), "f", Region{MaxX: 1000, MaxY: 1000}, TimeInterval{Start: 0, End: 1440})
	}
	p.check(t, "after setup", issuers, regions, times, ks)

	// Movement (with cross-shard re-homing), removes, and more grants.
	for i := 1; i <= 60; i++ {
		p.upsert(t, Object{UID: UserID(i), X: float64(rng.Intn(1000)), Y: float64(rng.Intn(1000)), T: 10})
	}
	for u := 5; u <= 20; u += 5 {
		p.remove(t, UserID(u))
	}
	p.check(t, "after churn", issuers, regions, times, ks)

	p.encode(t)
	if err := p.sharded.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 30; i <= 90; i++ {
		p.upsert(t, Object{UID: UserID(i), X: float64(rng.Intn(1000)), Y: float64(rng.Intn(1000)), T: 20})
	}
	p.check(t, "after encode+checkpoint", issuers, regions, times, ks)

	st := p.sharded.Stats()
	if st.FollowerReads == 0 {
		t.Fatal("FollowerReads = 0: the oracle queries never touched a replica")
	}
	if st.WAL.SegmentsSealed == 0 {
		t.Error("aggregate SegmentsSealed = 0, want > 0 (tiny segment size)")
	}
	if st.Checkpoints.WALSegmentsRemoved == 0 {
		t.Error("aggregate WALSegmentsRemoved = 0, want > 0")
	}
}

// TestShardedFollowerReadYourWrites interleaves writes and reads from
// many goroutines: a query issued right after a write, by a viewer the
// written user has granted visibility to, must include that write even
// when a follower serves it (the router's per-shard horizon check plus
// the follower's synchronous catch-up guarantee it). The viewer is in
// every written user's friend list up front, so the PRQ searches each
// written user's sequence value directly — visibility is guaranteed by
// the policy, not by incidental leaf co-location.
func TestShardedFollowerReadYourWrites(t *testing.T) {
	p := newFollowerPair(t, 4, 1, 0)
	db := p.sharded
	const viewer = UserID(9)
	const writers, rounds = 4, 25
	for w := 0; w < writers; w++ {
		for i := 0; i < rounds; i++ {
			uid := UserID(100+w*1000) + UserID(i)
			if err := db.DefineRelation(uid, viewer, "f"); err != nil {
				t.Fatal(err)
			}
			if err := db.Grant(uid, "f", Region{MaxX: 1000, MaxY: 1000}, TimeInterval{Start: 0, End: 1440}); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := UserID(100 + w*1000)
			for i := 0; i < rounds; i++ {
				uid := base + UserID(i)
				o := Object{UID: uid, X: float64((w*251 + i*37) % 1000), Y: float64((w*653 + i*41) % 1000), T: float64(i)}
				if err := db.Upsert(o); err != nil {
					errc <- err
					return
				}
				res, err := db.RangeQuery(viewer, Region{MinX: 0, MinY: 0, MaxX: 999, MaxY: 999}, o.T)
				if err != nil {
					errc <- err
					return
				}
				found := false
				for _, ro := range res {
					if ro.UID == uid && ro.T == o.T {
						found = true
						break
					}
				}
				if !found {
					errc <- fmt.Errorf("writer %d round %d: own write of u%d not visible in follower read", w, i, uid)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	st := db.Stats()
	if st.FollowerReads == 0 {
		t.Fatal("FollowerReads = 0: reads never reached a follower")
	}
	t.Logf("follower reads %d, primary fallbacks %d", st.FollowerReads, st.PrimaryFallbacks)
}

// TestShardedFollowerHorizons: the lag observability hooks report one
// horizon per attached replica per shard, and the router's exposition one
// peb_follower_lag_records series per follower, each 0 once the followers
// have caught up with a quiet primary.
func TestShardedFollowerHorizons(t *testing.T) {
	p := newFollowerPair(t, 2, 3, 0)
	for i := 1; i <= 10; i++ {
		p.upsert(t, Object{UID: UserID(i), X: float64(i * 97 % 1000), Y: float64(i * 61 % 1000), T: 0})
	}
	hs := p.sharded.FollowerHorizons()
	if len(hs) != 2 {
		t.Fatalf("FollowerHorizons shards = %d, want 2", len(hs))
	}
	for i, pool := range hs {
		if len(pool) != 3 {
			t.Fatalf("shard %d pool = %d horizons, want 3", i, len(pool))
		}
	}

	want := make(map[string]bool)
	for _, sm := range p.sharded.metas {
		for k, r := range sm.followers.pool {
			if _, err := r.CatchUp(); err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf(`peb_follower_lag_records{shard="%s",replica="%d"} 0`, shardLabel(sm.id), k)] = true
		}
	}
	got := followerLagSeries(t, p.sharded)
	if len(got) != len(want) {
		t.Fatalf("exposition has %d follower lag series, want %d: %q", len(got), len(want), got)
	}
	for _, line := range got {
		if !want[line] {
			t.Errorf("follower lag series %q, want one of %d series reading 0", line, len(want))
		}
	}
}

// TestShardedFollowerStaleness: a generous staleness bound lets followers
// serve without any catch-up (no fallback pressure), and results are
// still valid objects from the committed history.
func TestShardedFollowerStaleness(t *testing.T) {
	p := newFollowerPair(t, 2, 2, 1<<20)
	db := p.sharded
	for i := 1; i <= 30; i++ {
		p.upsert(t, Object{UID: UserID(i), X: float64(i * 37 % 1000), Y: float64(i * 91 % 1000), T: 1})
	}
	for i := 0; i < 20; i++ {
		if _, err := db.RangeQuery(1, Region{MaxX: 999, MaxY: 999}, 2); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.FollowerReads == 0 {
		t.Fatal("FollowerReads = 0 under a permissive staleness bound")
	}
	if st.PrimaryFallbacks != 0 {
		t.Fatalf("PrimaryFallbacks = %d, want 0: the bound admits any lag", st.PrimaryFallbacks)
	}
}

// catchUpFollowers drains every follower of db up to its primary's log
// end, so a positive staleness bound leaves nothing stale for a
// comparison against the oracle.
func catchUpFollowers(t *testing.T, db *DB) {
	t.Helper()
	db.smu.RLock()
	defer db.smu.RUnlock()
	for _, sm := range db.metas {
		for _, r := range sm.followers.replicas() {
			if _, err := r.CatchUp(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkFollowerPools asserts every live shard carries a pool of n
// followers.
func checkFollowerPools(t *testing.T, db *DB, n int) {
	t.Helper()
	db.smu.RLock()
	defer db.smu.RUnlock()
	for _, sm := range db.metas {
		if sm.followers == nil || len(sm.followers.pool) != n {
			t.Fatalf("shard %d carries pool %+v, want %d followers", sm.id, sm.followers, n)
		}
	}
}

// followerLagSeries returns the router exposition's
// peb_follower_lag_records lines.
func followerLagSeries(t *testing.T, db *DB) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteText(&buf, db.MetricsRegistries()...); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "peb_follower_lag_records{") {
			got = append(got, line)
		}
	}
	return got
}

// TestShardedFollowerOracleMidSplit is TestShardedOracleMidSplit with the
// queries served by followers: the split's new shard gets a pool of its
// own before its route flips, so reads of both halves, mid-drain and
// after, go through replicas and still answer as the single tree does.
func TestShardedFollowerOracleMidSplit(t *testing.T) {
	for _, staleness := range []uint64{0, 3} {
		t.Run(fmt.Sprintf("staleness=%d", staleness), func(t *testing.T) {
			p := newFollowerPair(t, 2, 2, staleness)
			testOracleMidSplit(t, p, staleness)
			checkFollowerPools(t, p.sharded, 2)
			if st := p.sharded.Stats(); st.FollowerReads == 0 {
				t.Fatal("FollowerReads = 0: the oracle queries never touched a replica")
			}
		})
	}
}

// TestShardedFollowerOracleMerge holds a merge open mid-drain, moves part
// of the population, then finishes it: follower-served answers match the
// single tree throughout, the source's pool closes with the source, and
// the survivors' pools keep serving reads after the topology change.
func TestShardedFollowerOracleMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := newFollowerPair(t, 4, 2, 0)
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
	}

	check("before merge")
	if err := p.sharded.beginMerge(p.sharded.Stats().Shards[0].ID); err != nil {
		t.Fatal(err)
	}
	check("route flipped")
	for u := 1; u <= 80; u += 3 {
		p.upsert(t, obj(u))
	}
	check("moved mid-merge")
	if err := p.sharded.finishPending(); err != nil {
		t.Fatal(err)
	}
	if got := p.sharded.Shards(); got != 3 {
		t.Fatalf("%d shards after the merge, want 3", got)
	}
	checkFollowerPools(t, p.sharded, 2)
	before := p.sharded.Stats().FollowerReads
	check("merged")
	if after := p.sharded.Stats().FollowerReads; after <= before {
		t.Fatalf("FollowerReads %d -> %d: no follower served a read after the merge", before, after)
	}
}

// TestShardedFollowerReshardCycles runs 100 split/merge cycles with one
// follower per shard. Every split attaches a pool to its new shard and
// every merge closes its source's, so afterwards no tailer goroutine is
// left behind, the exposition carries exactly one lag series per live
// follower, and Close leaves nothing running.
func TestShardedFollowerReshardCycles(t *testing.T) {
	base := runtime.NumGoroutine()
	db, err := Open(Options{
		Shards:           2,
		Dir:              "cycles",
		DB:               peb.Options{Durability: peb.DurabilitySync, FS: store.NewCrashFS()},
		ReplicasPerShard: 1,
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
	if st.FollowerReads == 0 {
		t.Fatal("FollowerReads = 0: no follower served a read across the cycles")
	}
	leakcheck.WaitGoroutines(t, steady)

	checkFollowerPools(t, db, 1)
	want := make(map[string]bool)
	for _, ss := range st.Shards {
		want[fmt.Sprintf(`peb_follower_lag_records{shard="%s",replica="0"}`, shardLabel(ss.ID))] = true
	}
	got := followerLagSeries(t, db)
	if len(got) != len(want) {
		t.Fatalf("exposition has %d follower lag series, want %d: %q", len(got), len(want), got)
	}
	for _, line := range got {
		if !want[line[:strings.LastIndexByte(line, ' ')]] {
			t.Errorf("follower lag series %q names no live follower", line)
		}
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.WaitGoroutines(t, base)
}
