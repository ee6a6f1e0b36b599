package sharded

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/zcurve"
	"repro/peb"
)

func TestShardedOptionsValidation(t *testing.T) {
	if _, err := Open(Options{Shards: -1}); !errors.Is(err, peb.ErrBadOptions) {
		t.Fatalf("negative shards: %v", err)
	}
	if _, err := Open(Options{DB: peb.Options{Path: "x.idx"}}); !errors.Is(err, peb.ErrBadOptions) {
		t.Fatalf("explicit per-shard path: %v", err)
	}
	if _, err := Open(Options{DB: peb.Options{Durability: peb.DurabilitySync}}); !errors.Is(err, peb.ErrBadOptions) {
		t.Fatalf("durability without dir: %v", err)
	}
}

func TestShardedRehomeOnMove(t *testing.T) {
	db, err := Open(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Walk one user through all four quadrants; it must exist exactly once
	// throughout, and the per-shard sizes must follow it.
	for step, q := range quadrant {
		if err := db.Upsert(Object{UID: 42, X: q[0], Y: q[1], T: float64(step)}); err != nil {
			t.Fatal(err)
		}
		if db.Size() != 1 {
			t.Fatalf("step %d: size %d, want 1", step, db.Size())
		}
		st := db.Stats()
		total, nonEmpty := 0, 0
		for _, ss := range st.Shards {
			total += ss.Size
			if ss.Size > 0 {
				nonEmpty++
			}
		}
		if total != 1 || nonEmpty != 1 {
			t.Fatalf("step %d: population spread %v", step, st.Shards)
		}
		o, ok, err := db.Lookup(42)
		if err != nil || !ok || o.T != float64(step) {
			t.Fatalf("step %d: lookup %v %v %v", step, o, ok, err)
		}
	}
	if err := db.Remove(42); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(42); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestShardedReopen(t *testing.T) {
	fs := store.NewCrashFS()
	opts := Options{
		Shards: 4,
		Dir:    "db",
		DB:     peb.Options{Durability: peb.DurabilitySync, FS: fs},
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range quadrant {
		if err := db.Upsert(Object{UID: UserID(i + 1), X: q[0], Y: q[1], T: 5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DefineRelation(2, 1, "friend"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(2, "friend", Region{MaxX: 1000, MaxY: 1000}, TimeInterval{End: 1440}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Object{UID: 9, X: 500, Y: 500, T: 6}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Size() != 5 {
		t.Fatalf("reopened size %d, want 5", re.Size())
	}
	for i := range quadrant {
		if _, ok, _ := re.Lookup(UserID(i + 1)); !ok {
			t.Fatalf("user %d lost across reopen", i+1)
		}
	}
	if _, ok, _ := re.Lookup(9); !ok {
		t.Fatal("post-checkpoint commit lost across reopen")
	}
	if !re.Allows(2, 1, 250, 750, 30) {
		t.Fatal("policy lost across reopen")
	}

	re.Close()

	// Options.Shards counts only at creation: a reopen with a different
	// count adopts the manifest's topology instead of erroring.
	other := opts
	other.Shards = 8
	re2, err := Open(other)
	if err != nil {
		t.Fatalf("reopen with different Shards option refused: %v", err)
	}
	defer re2.Close()
	if got := re2.Shards(); got != 4 {
		t.Fatalf("reopen adopted %d shards, want the manifest's 4", got)
	}
	if re2.Size() != 5 {
		t.Fatalf("size %d after topology-adopting reopen, want 5", re2.Size())
	}
}

func TestShardedStatsAggregation(t *testing.T) {
	fs := store.NewCrashFS()
	db, err := Open(Options{
		Shards: 2,
		Dir:    "s",
		DB:     peb.Options{Durability: peb.DurabilitySync, FS: fs},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i, q := range quadrant {
		if err := db.Upsert(Object{UID: UserID(i + 1), X: q[0], Y: q[1], T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// A routed policy commit logs on the policy engine alone.
	if err := db.Grant(1, "f", Region{MaxX: 100, MaxY: 100}, TimeInterval{End: 10}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if len(st.Shards) != 2 {
		t.Fatalf("stats cover %d shards", len(st.Shards))
	}
	pol := db.pe.WALStats()
	if pol.Appends != 1 || pol.Syncs == 0 {
		t.Fatalf("policy engine log: %+v, want the grant's one append, synced", pol)
	}
	appends, syncs := pol.Appends, pol.Syncs
	var swaps uint64
	var sizes int
	for _, ss := range st.Shards {
		appends += ss.WAL.Appends
		syncs += ss.WAL.Syncs
		swaps += ss.ViewSwaps
		sizes += ss.Size
	}
	if st.WAL.Appends != appends || st.WAL.Syncs != syncs || st.ViewSwaps != swaps {
		t.Fatalf("aggregate mismatch: %+v", st)
	}
	if sizes != 4 {
		t.Fatalf("per-shard sizes sum to %d, want 4", sizes)
	}
	if st.WAL.Appends < 4 {
		t.Fatalf("WAL appends %d, want at least one per upsert", st.WAL.Appends)
	}
	if st.Checkpoints.Checkpoints != 3 {
		t.Fatalf("aggregate checkpoints %d, want one per shard and the policy engine's", st.Checkpoints.Checkpoints)
	}
	var buf bytes.Buffer
	if err := obs.WriteText(&buf, db.MetricsRegistries()...); err != nil {
		t.Fatal(err)
	}
	if want := `peb_wal_appends_total{shard="policies"} 1`; !strings.Contains(buf.String(), want) {
		t.Fatalf("metrics lack the policy engine's series %s", want)
	}
}

// TestShardedRoutingPrunes verifies the router consults only the shards
// whose Hilbert range can matter: a query deep inside one quadrant must
// not touch the other shards' trees (observed through per-shard I/O
// counters after a cold start).
func TestShardedRoutingPrunes(t *testing.T) {
	db, err := Open(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	day := TimeInterval{Start: 0, End: 1440}
	for i, q := range quadrant {
		uid := UserID(i + 1)
		if err := db.DefineRelation(uid, 99, "w"); err != nil {
			t.Fatal(err)
		}
		if err := db.Grant(uid, "w", Region{MaxX: 1000, MaxY: 1000}, day); err != nil {
			t.Fatal(err)
		}
		if err := db.Upsert(Object{UID: uid, X: q[0], Y: q[1], T: 0}); err != nil {
			t.Fatal(err)
		}
	}
	// A tight window around quadrant 0's point, at the update time (zero
	// gap, so the only enlargement is the shard's own slack = 0·speed).
	r := Region{MinX: 240, MinY: 240, MaxX: 260, MaxY: 260}
	idxs := db.routeRegion(r, 0, db.shardSlack)
	if len(idxs) != 1 {
		t.Fatalf("routeRegion(%+v) = %v, want exactly the owning shard", r, idxs)
	}
	res, err := db.RangeQuery(99, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].UID != 1 {
		t.Fatalf("pruned query returned %v", res)
	}
	// The kNN expansion order must start at the shard owning the query
	// point's quadrant.
	order := db.knnOrder(250, 250, 0, db.shardSlack)
	if order[0].idx != idxs[0] {
		t.Fatalf("knnOrder starts at shard %d, want %d", order[0].idx, idxs[0])
	}
	if order[0].lb != 0 {
		t.Fatalf("containing shard's bound = %g, want 0", order[0].lb)
	}

	// With motion slack (query time far from update time) the same window
	// may legitimately route to more shards — never fewer.
	wide := db.routeRegion(r, 60, db.shardSlack)
	if len(wide) < len(idxs) {
		t.Fatalf("slack shrank the route: %v -> %v", idxs, wide)
	}
}

// TestShardedRangesSpanSpace: the shard ranges partition the curve
// exactly; every grid position maps to exactly one shard.
func TestShardedRangesSpanSpace(t *testing.T) {
	db, err := Open(Options{Shards: 5}) // deliberately not a power of two
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Shards(); got != 5 {
		t.Fatalf("Shards() = %d", got)
	}
	total := zcurve.Interval{Lo: 0, Hi: db.grid.MaxValue()}
	var covered uint64
	for _, sm := range db.metas {
		covered += sm.route.Len()
	}
	if covered != total.Len() {
		t.Fatalf("routes cover %d of %d values", covered, total.Len())
	}
	for x := 25.0; x < 1000; x += 111 {
		for y := 25.0; y < 1000; y += 97 {
			i := db.shardOf(x, y)
			if !db.metas[i].route.Contains(db.grid.HilbertValue(x, y)) {
				t.Fatalf("shardOf(%g,%g)=%d does not own the position's value", x, y, i)
			}
		}
	}
}

func TestShardedClosedErrors(t *testing.T) {
	db, err := Open(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := db.Upsert(Object{UID: 1, X: 1, Y: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("upsert on closed: %v", err)
	}
	if _, err := db.RangeQuery(1, Region{MaxX: 10, MaxY: 10}, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("query on closed: %v", err)
	}
	if err := db.Apply(db.NewBatch()); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply on closed: %v", err)
	}
	if _, err := db.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot on closed: %v", err)
	}
}

// cannedShard answers every PkNN with a fixed list and counts its visits.
type cannedShard struct {
	nbs    []Neighbor
	visits atomic.Int32
}

func (c *cannedShard) RangeQuery(UserID, Region, float64) ([]Object, error) { return nil, nil }

func (c *cannedShard) NearestNeighbors(_ UserID, _, _ float64, k int, _ float64) ([]Neighbor, error) {
	c.visits.Add(1)
	if len(c.nbs) > k {
		return c.nbs[:k], nil
	}
	return c.nbs, nil
}

// TestGatherKNNProbeThenWave pins the router's PkNN merge on canned shards:
// which shards the wave reaches for a given probe result, and the merge
// rule (newer state wins a duplicate, order by distance then id, cut to k).
func TestGatherKNNProbeThenWave(t *testing.T) {
	nb := func(uid int, dist, tm float64) Neighbor {
		return Neighbor{Object: Object{UID: UserID(uid), T: tm}, Dist: dist}
	}
	uids := func(nbs []Neighbor) []UserID {
		var out []UserID
		for _, n := range nbs {
			out = append(out, n.Object.UID)
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		k       int
		bounds  []float64    // ascending lower bounds, one per shard
		answers [][]Neighbor // what each shard returns
		visited []int32
		want    []UserID
	}{
		{
			// The probe's k-th distance prunes the far shards; a tied bound is visited.
			name: "prune", k: 2,
			bounds:  []float64{0, 5, 5.01, 9},
			answers: [][]Neighbor{{nb(7, 1, 0), nb(8, 5, 0)}, {nb(3, 5, 0)}, {nb(1, 0.5, 0)}, nil},
			visited: []int32{1, 1, 0, 0},
			want:    []UserID{7, 3},
		},
		{
			// Fewer than k from the probe: the wave is unbounded.
			name: "unbounded", k: 3,
			bounds:  []float64{0, 400, 900},
			answers: [][]Neighbor{{nb(4, 2, 0)}, nil, {nb(5, 950, 0), nb(6, 960, 0), nb(9, 970, 0)}},
			visited: []int32{1, 1, 1},
			want:    []UserID{4, 5, 6},
		},
		{
			// The newer state wins a duplicate, and may leave the top k.
			name: "duplicate", k: 2,
			bounds:  []float64{0, 1},
			answers: [][]Neighbor{{nb(1, 2, 10), nb(2, 3, 10)}, {nb(1, 8, 20), nb(3, 4, 10)}},
			visited: []int32{1, 1},
			want:    []UserID{2, 3},
		},
		{
			// Nothing anywhere is nil, as on the single tree.
			name: "empty", k: 2,
			bounds:  []float64{0, 1},
			answers: [][]Neighbor{nil, nil},
			visited: []int32{1, 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shards := make([]*cannedShard, len(tc.bounds))
			order := make([]knnShard, len(tc.bounds))
			for i := range shards {
				shards[i] = &cannedShard{nbs: tc.answers[i]}
				order[i] = knnShard{idx: i, lb: tc.bounds[i]}
			}
			got, err := gatherKNN(order, 99, 0, 0, tc.k, 0, func(i int) querier { return shards[i] })
			if err != nil {
				t.Fatal(err)
			}
			if tc.want == nil && got != nil {
				t.Fatalf("empty result = %v, want nil", got)
			}
			if !reflect.DeepEqual(uids(got), tc.want) {
				t.Fatalf("neighbors %v, want %v", uids(got), tc.want)
			}
			for i, s := range shards {
				if v := s.visits.Load(); v != tc.visited[i] {
					t.Errorf("shard %d (bound %g) visited %d times, want %d", i, tc.bounds[i], v, tc.visited[i])
				}
			}
		})
	}
}

// TestPreparedGrantAllocsIndependentOfStore: a cross-shard Grant prepares
// and commits on every shard without copying any shard's policy store, so
// what one costs in allocations does not grow with the store.
func TestPreparedGrantAllocsIndependentOfStore(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	everywhere := Region{MaxX: 1000, MaxY: 1000}
	allDay := peb.TimeInterval{End: 1440}
	grantAllocs := func(policies int) float64 {
		db, err := Open(Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		b := db.NewBatch()
		for u := 1; u <= policies; u++ {
			b.Grant(UserID(u), "f", everywhere, allDay)
		}
		if err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
		owner := UserID(policies)
		return testing.AllocsPerRun(50, func() {
			owner++
			if err := db.Grant(owner, "f", everywhere, allDay); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := grantAllocs(200), grantAllocs(2000)
	t.Logf("one Grant on 4 shards: %.1f allocs with 200 policies stored, %.1f with 2000", small, large)
	if large > small+16 {
		t.Fatalf("a Grant allocates %.1f with 2000 policies stored but %.1f with 200: the store is copied", large, small)
	}
}
