package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bxtree"
	"repro/internal/motion"
	"repro/internal/policy"
	"repro/internal/store"
)

const testDayLen = 1440.0

// fixture bundles a policy store, objects, and a PEB-tree built over them.
type fixture struct {
	cfg    Config
	pol    *policy.Store
	objs   []motion.Object
	assign policy.Assignment
	tree   *Tree
}

// buildFixture creates n users with random motion and, for each, policies
// toward `friends` random peers. Policies use random sub-rectangles and
// time intervals so that policy evaluation outcomes vary by query location
// and time. Some pairs are made mutual to exercise both α cases.
func buildFixture(t *testing.T, rng *rand.Rand, cfg Config, n, friends int) *fixture {
	t.Helper()
	space := policy.Region{MinX: 0, MinY: 0, MaxX: cfg.Base.Grid.Side, MaxY: cfg.Base.Grid.Side}
	pol, err := policy.NewStore(space, testDayLen)
	if err != nil {
		t.Fatal(err)
	}

	objs := make([]motion.Object, n)
	for i := range objs {
		speed := rng.Float64() * cfg.Base.MaxSpeed
		dir := rng.Float64() * 2 * math.Pi
		objs[i] = motion.Object{
			UID: motion.UserID(i + 1),
			X:   rng.Float64() * cfg.Base.Grid.Side,
			Y:   rng.Float64() * cfg.Base.Grid.Side,
			VX:  speed * math.Cos(dir),
			VY:  speed * math.Sin(dir),
			T:   rng.Float64() * 60,
		}
	}

	randPolicy := func(role policy.Role) policy.Policy {
		w := 200 + rng.Float64()*700
		h := 200 + rng.Float64()*700
		x := rng.Float64() * (cfg.Base.Grid.Side - w)
		y := rng.Float64() * (cfg.Base.Grid.Side - h)
		start := rng.Float64() * testDayLen
		dur := testDayLen * (0.25 + rng.Float64()*0.5)
		return policy.Policy{
			Role: role,
			Locr: policy.Region{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h},
			Tint: policy.TimeInterval{Start: start, End: math.Mod(start+dur, testDayLen)},
		}
	}

	users := make([]policy.UserID, n)
	for i := range users {
		users[i] = policy.UserID(i + 1)
	}
	for i := 0; i < n; i++ {
		owner := users[i]
		for f := 0; f < friends; f++ {
			peer := users[rng.Intn(n)]
			if peer == owner {
				continue
			}
			role := policy.Role(fmt.Sprintf("r%d-%d", owner, peer))
			pol.SetRelation(owner, peer, role)
			if err := pol.AddPolicy(owner, randPolicy(role)); err != nil {
				t.Fatal(err)
			}
			// Half the pairs get a reverse policy too (the mutual case).
			if rng.Intn(2) == 0 {
				rrole := policy.Role(fmt.Sprintf("r%d-%d", peer, owner))
				pol.SetRelation(peer, owner, rrole)
				if err := pol.AddPolicy(peer, randPolicy(rrole)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	assign, err := policy.AssignSequenceValues(pol, users, policy.AssignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool := store.NewBufferPool(store.NewMemDisk(), store.DefaultBufferPages)
	tree, err := New(cfg, pool, pol, assign)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	return &fixture{cfg: cfg, pol: pol, objs: objs, assign: assign, tree: tree}
}

// brutePRQ applies Definition 2 literally.
func (f *fixture) brutePRQ(issuer motion.UserID, w bxtree.Window, tq float64) map[motion.UserID]bool {
	out := make(map[motion.UserID]bool)
	for _, o := range f.objs {
		if o.UID == issuer {
			continue
		}
		x, y := o.PositionAt(tq)
		if w.Contains(x, y) && f.pol.Allows(policy.UserID(o.UID), policy.UserID(issuer), x, y, tq) {
			out[o.UID] = true
		}
	}
	return out
}

// brutePKNN applies Definition 3 literally.
func (f *fixture) brutePKNN(issuer motion.UserID, qx, qy float64, k int, tq float64) []motion.UserID {
	type cand struct {
		uid  motion.UserID
		dist float64
	}
	var cands []cand
	for _, o := range f.objs {
		if o.UID == issuer {
			continue
		}
		x, y := o.PositionAt(tq)
		if f.pol.Allows(policy.UserID(o.UID), policy.UserID(issuer), x, y, tq) {
			cands = append(cands, cand{o.UID, math.Hypot(x-qx, y-qy)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].uid < cands[j].uid
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]motion.UserID, len(cands))
	for i, c := range cands {
		out[i] = c.uid
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.SV.Bits = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero SV bits accepted")
	}
	bad = DefaultConfig()
	bad.SV = policy.SVCodec{Bits: 8, FracBits: 8}
	if err := bad.Validate(); err == nil {
		t.Error("frac >= total bits accepted")
	}
	bad = DefaultConfig()
	bad.SV.Bits = 50 // 2 + 50 + 20 = 72 > 64
	if err := bad.Validate(); err == nil {
		t.Error("overflowing layout accepted")
	}
	bad = DefaultConfig()
	bad.Layout = KeyLayout(9)
	if err := bad.Validate(); err == nil {
		t.Error("bogus layout accepted")
	}
}

func TestKeyComponentOrder(t *testing.T) {
	cfg := DefaultConfig()
	// SV-first: a larger SV must dominate any ZV difference.
	loSV := cfg.Key(0, 10, cfg.Base.Grid.MaxValue())
	hiSV := cfg.Key(0, 11, 0)
	if loSV >= hiSV {
		t.Errorf("SV-first: key(sv=10, zv=max)=%d !< key(sv=11, zv=0)=%d", loSV, hiSV)
	}
	// TID dominates everything.
	if cfg.Key(0, 1<<20, 0) >= cfg.Key(1, 0, 0) {
		t.Error("TID does not dominate SV")
	}
	// ZV-first ablation: a larger ZV must dominate any SV difference.
	zf := cfg
	zf.Layout = ZVFirst
	loZV := zf.Key(0, 1<<uint(cfg.SV.Bits)-1, 10)
	hiZV := zf.Key(0, 0, 11)
	if loZV >= hiZV {
		t.Errorf("ZV-first: key(zv=10, sv=max)=%d !< key(zv=11, sv=0)=%d", loZV, hiZV)
	}
}

func TestKeyRoundTripComponents(t *testing.T) {
	cfg := DefaultConfig()
	tid, sv, zv := uint64(2), uint64(12345), uint64(67890)
	key := cfg.Key(tid, sv, zv)
	zvBits := uint(2 * cfg.Base.Grid.Order)
	svBits := uint(cfg.SV.Bits)
	if got := key & (1<<zvBits - 1); got != zv {
		t.Errorf("zv component = %d, want %d", got, zv)
	}
	if got := key >> zvBits & (1<<svBits - 1); got != sv {
		t.Errorf("sv component = %d, want %d", got, sv)
	}
	if got := key >> (zvBits + svBits); got != tid {
		t.Errorf("tid component = %d, want %d", got, tid)
	}
}

func TestInsertRequiresSV(t *testing.T) {
	cfg := DefaultConfig()
	pol, err := policy.NewStore(policy.Region{MaxX: 1000, MaxY: 1000}, testDayLen)
	if err != nil {
		t.Fatal(err)
	}
	pool := store.NewBufferPool(store.NewMemDisk(), store.DefaultBufferPages)
	tree, err := New(cfg, pool, pol, policy.Assignment{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(motion.Object{UID: 1, X: 1, Y: 1}); err == nil {
		t.Error("insert without sequence value accepted")
	}
	if err := tree.SetSV(1, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(motion.Object{UID: 1, X: 1, Y: 1}); err != nil {
		t.Fatalf("insert after SetSV: %v", err)
	}
	// SV changes while indexed are rejected.
	if err := tree.SetSV(1, 3.5); err == nil {
		t.Error("SV change of indexed user accepted")
	}
	if err := tree.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := tree.SetSV(1, 3.5); err != nil {
		t.Errorf("SV change after delete rejected: %v", err)
	}
}

func TestInsertGetDeleteUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := buildFixture(t, rng, DefaultConfig(), 50, 3)
	o := f.objs[10]
	got, ok, err := f.tree.Get(o.UID)
	if err != nil || !ok || got != o {
		t.Fatalf("Get = %+v, %v, %v; want %+v", got, ok, err, o)
	}
	upd := o
	upd.X, upd.Y, upd.T = 5, 5, 70
	if err := f.tree.Update(upd); err != nil {
		t.Fatal(err)
	}
	if f.tree.Size() != 50 {
		t.Errorf("Size = %d, want 50", f.tree.Size())
	}
	got, ok, _ = f.tree.Get(o.UID)
	if !ok || got != upd {
		t.Errorf("Get after update = %+v, want %+v", got, upd)
	}
	if err := f.tree.Delete(o.UID); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := f.tree.Get(o.UID); ok {
		t.Error("deleted user still found")
	}
}

func testPRQAgainstBruteForce(t *testing.T, layout KeyLayout) {
	cfg := DefaultConfig()
	cfg.Layout = layout
	rng := rand.New(rand.NewSource(11))
	f := buildFixture(t, rng, cfg, 200, 8)
	for trial := 0; trial < 40; trial++ {
		issuer := motion.UserID(1 + rng.Intn(200))
		cx := rng.Float64() * cfg.Base.Grid.Side
		cy := rng.Float64() * cfg.Base.Grid.Side
		r := 50 + rng.Float64()*300
		w := bxtree.Square(cx, cy, r)
		tq := rng.Float64() * 80
		got, err := f.tree.PRQ(issuer, w, tq)
		if err != nil {
			t.Fatalf("PRQ: %v", err)
		}
		want := f.brutePRQ(issuer, w, tq)
		gotSet := make(map[motion.UserID]bool, len(got))
		for _, o := range got {
			if gotSet[o.UID] {
				t.Errorf("trial %d: duplicate result u%d", trial, o.UID)
			}
			gotSet[o.UID] = true
		}
		if len(gotSet) != len(want) {
			t.Errorf("trial %d (issuer u%d): got %d results, want %d", trial, issuer, len(gotSet), len(want))
			continue
		}
		for uid := range want {
			if !gotSet[uid] {
				t.Errorf("trial %d: missing u%d", trial, uid)
			}
		}
	}
}

// TestCommunityEncodingInNarrowSVField encodes 200 users into a 10-bit
// sequence-value field, whose 16 integer values are too few: the encoder
// steps by a fraction, the tree accepts every value, a later user still
// fits above them, and PRQs still match Definition 2. A 7-bit field has
// fewer slots than users and is refused.
func TestCommunityEncodingInNarrowSVField(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := buildFixture(t, rng, DefaultConfig(), 200, 8)
	users := make([]policy.UserID, len(f.objs))
	for i, o := range f.objs {
		users[i] = policy.UserID(o.UID)
	}
	cfg := DefaultConfig()
	cfg.SV = policy.SVCodec{Bits: 10, FracBits: 6}
	assign, err := policy.AssignCommunities(f.pol, users, cfg.SV)
	if err != nil {
		t.Fatal(err)
	}
	if assign.MaxSV >= 16 || len(assign.SV) != len(users) {
		t.Fatalf("MaxSV %g for %d of %d users; the field's integer part holds 16", assign.MaxSV, len(assign.SV), len(users))
	}
	// A user added after the encoding takes a whole value δ above MaxSV.
	if _, err := cfg.SV.Encode(assign.MaxSV + 2); err != nil {
		t.Fatalf("no room above MaxSV %g: %v", assign.MaxSV, err)
	}
	tree, err := New(cfg, store.NewBufferPool(store.NewMemDisk(), store.DefaultBufferPages), f.pol, assign)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range f.objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 20; trial++ {
		issuer := motion.UserID(1 + rng.Intn(200))
		w := bxtree.Square(rng.Float64()*cfg.Base.Grid.Side, rng.Float64()*cfg.Base.Grid.Side, 50+rng.Float64()*300)
		tq := rng.Float64() * 80
		got, err := tree.PRQ(issuer, w, tq)
		if err != nil {
			t.Fatal(err)
		}
		want := f.brutePRQ(issuer, w, tq)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for _, o := range got {
			if !want[o.UID] {
				t.Fatalf("trial %d: u%d is not visible to u%d", trial, o.UID, issuer)
			}
		}
	}
	if _, err := policy.AssignCommunities(f.pol, users, policy.SVCodec{Bits: 7, FracBits: 6}); err == nil {
		t.Fatal("200 users fit a field of 128 slots")
	}
}

func TestPRQMatchesBruteForce(t *testing.T)        { testPRQAgainstBruteForce(t, SVFirst) }
func TestPRQMatchesBruteForceZVFirst(t *testing.T) { testPRQAgainstBruteForce(t, ZVFirst) }

func testPKNNAgainstBruteForce(t *testing.T, layout KeyLayout) {
	cfg := DefaultConfig()
	cfg.Layout = layout
	rng := rand.New(rand.NewSource(23))
	f := buildFixture(t, rng, cfg, 200, 8)
	for trial := 0; trial < 30; trial++ {
		issuer := motion.UserID(1 + rng.Intn(200))
		qx := rng.Float64() * cfg.Base.Grid.Side
		qy := rng.Float64() * cfg.Base.Grid.Side
		k := 1 + rng.Intn(6)
		tq := rng.Float64() * 80
		got, err := f.tree.PKNN(issuer, qx, qy, k, tq)
		if err != nil {
			t.Fatalf("PKNN: %v", err)
		}
		want := f.brutePKNN(issuer, qx, qy, k, tq)
		if len(got) != len(want) {
			t.Errorf("trial %d (issuer u%d, k=%d): got %d results, want %d",
				trial, issuer, k, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i].Object.UID != want[i] {
				t.Errorf("trial %d: neighbor %d = u%d (d=%.3f), want u%d",
					trial, i, got[i].Object.UID, got[i].Dist, want[i])
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Errorf("trial %d: unsorted results", trial)
			}
		}
	}
}

func TestPKNNMatchesBruteForce(t *testing.T)        { testPKNNAgainstBruteForce(t, SVFirst) }
func TestPKNNMatchesBruteForceZVFirst(t *testing.T) { testPKNNAgainstBruteForce(t, ZVFirst) }

func TestPRQNoFriends(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := buildFixture(t, rng, DefaultConfig(), 30, 2)
	// A user id outside the population has no grantors.
	got, err := f.tree.PRQ(9999, bxtree.Square(500, 500, 400), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("friendless issuer got %d results", len(got))
	}
	nn, err := f.tree.PKNN(9999, 500, 500, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 0 {
		t.Errorf("friendless issuer got %d neighbors", len(nn))
	}
}

func TestPKNNFewerQualifiedThanK(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := buildFixture(t, rng, DefaultConfig(), 60, 2)
	// Ask for far more neighbors than anyone's friend count; the search must
	// exhaust the matrix and return everything qualified.
	for trial := 0; trial < 10; trial++ {
		issuer := motion.UserID(1 + rng.Intn(60))
		tq := rng.Float64() * 80
		got, err := f.tree.PKNN(issuer, 500, 500, 50, tq)
		if err != nil {
			t.Fatal(err)
		}
		want := f.brutePKNN(issuer, 500, 500, 50, tq)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Object.UID != want[i] {
				t.Errorf("trial %d: neighbor %d = u%d, want u%d", trial, i, got[i].Object.UID, want[i])
			}
		}
	}
}

func TestPKNNInvalidK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := buildFixture(t, rng, DefaultConfig(), 20, 2)
	got, err := f.tree.PKNN(1, 500, 500, 0, 10)
	if err != nil || got != nil {
		t.Errorf("k=0 = %v, %v; want nil, nil", got, err)
	}
}

func TestPRQInvalidWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := buildFixture(t, rng, DefaultConfig(), 20, 2)
	if _, err := f.tree.PRQ(1, bxtree.Window{MinX: 5, MaxX: 1}, 10); err == nil {
		t.Error("invalid window accepted")
	}
}

func TestQueriesAfterUpdates(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(31))
	f := buildFixture(t, rng, cfg, 150, 5)
	// Fully update the population twice (Sec. 7.9's workload), re-checking
	// correctness after each round.
	for round := 0; round < 2; round++ {
		base := 60 + float64(round)*60
		for i := range f.objs {
			f.objs[i].X = rng.Float64() * cfg.Base.Grid.Side
			f.objs[i].Y = rng.Float64() * cfg.Base.Grid.Side
			f.objs[i].T = base + rng.Float64()*50
			if err := f.tree.Update(f.objs[i]); err != nil {
				t.Fatal(err)
			}
		}
		tq := base + 55
		issuer := motion.UserID(1 + rng.Intn(150))
		w := bxtree.Square(500, 500, 300)
		got, err := f.tree.PRQ(issuer, w, tq)
		if err != nil {
			t.Fatal(err)
		}
		want := f.brutePRQ(issuer, w, tq)
		if len(got) != len(want) {
			t.Fatalf("round %d: got %d, want %d", round, len(got), len(want))
		}
	}
}

func TestNoPinLeaksAfterQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := buildFixture(t, rng, DefaultConfig(), 100, 5)
	if _, err := f.tree.PRQ(3, bxtree.Square(500, 500, 200), 30); err != nil {
		t.Fatal(err)
	}
	if _, err := f.tree.PKNN(3, 500, 500, 5, 30); err != nil {
		t.Fatal(err)
	}
	if n := f.tree.Pool().PinnedPages(); n != 0 {
		t.Errorf("%d pages still pinned", n)
	}
}

// TestSVFirstClustersFriends verifies the design claim of Sec. 5.2: with
// SV-first keys, a user's policy-related peers occupy a narrower key span
// than unrelated users, so they land on fewer leaf pages.
func TestSVFirstClustersFriends(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := DefaultConfig()
	// Strongly grouped population: 10 groups of 10, policies only in-group.
	n := 100
	space := policy.Region{MaxX: cfg.Base.Grid.Side, MaxY: cfg.Base.Grid.Side}
	pol, err := policy.NewStore(space, testDayLen)
	if err != nil {
		t.Fatal(err)
	}
	users := make([]policy.UserID, n)
	for i := range users {
		users[i] = policy.UserID(i + 1)
	}
	full := policy.Policy{
		Role: "g",
		Locr: space,
		Tint: policy.TimeInterval{Start: 0, End: testDayLen / 2},
	}
	for i := 0; i < n; i++ {
		g := i / 10
		for j := g * 10; j < (g+1)*10; j++ {
			if i == j {
				continue
			}
			pol.SetRelation(users[i], users[j], "g")
		}
		if err := pol.AddPolicy(users[i], full); err != nil {
			t.Fatal(err)
		}
	}
	assign, err := policy.AssignSequenceValues(pol, users, policy.AssignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// For every user, friends' SVs must be within 1.0 of the group anchor,
	// while the next group's anchor is δ = 2 away.
	for i := 0; i < n; i++ {
		u := users[i]
		for j := i / 10 * 10; j < (i/10+1)*10; j++ {
			v := users[j]
			d := math.Abs(assign.SV[u] - assign.SV[v])
			if d >= 1.0+1e-9 {
				t.Fatalf("in-group SV distance |%g - %g| = %g >= 1", assign.SV[u], assign.SV[v], d)
			}
		}
	}
	_ = rng
}

// BenchmarkTreeUpsertChurn is BenchmarkUpsertChurn (internal/btree) one
// layer up: a tree of 20 000 users behind a 50-page pool, where each
// operation moves one user to a new position and time, and Insert deletes
// the user's old key and inserts the new one.
func BenchmarkTreeUpsertChurn(b *testing.B) {
	const n = 20_000
	cfg := DefaultConfig()
	side := cfg.Base.Grid.Side
	pol, err := policy.NewStore(policy.Region{MaxX: side, MaxY: side}, testDayLen)
	if err != nil {
		b.Fatal(err)
	}
	assign := policy.Assignment{SV: make(map[policy.UserID]float64, n)}
	for uid := 1; uid <= n; uid++ {
		assign.SV[policy.UserID(uid)] = float64(uid % 997)
	}
	tree, err := New(cfg, store.NewBufferPool(store.NewMemDisk(), 50), pol, assign)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	move := func(uid int, t float64) motion.Object {
		return motion.Object{UID: motion.UserID(uid), X: rng.Float64() * side, Y: rng.Float64() * side,
			VX: rng.Float64() - 0.5, VY: rng.Float64() - 0.5, T: t}
	}
	for uid := 1; uid <= n; uid++ {
		if err := tree.Insert(move(uid, rng.Float64()*60)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert(move(1+rng.Intn(n), rng.Float64()*60)); err != nil {
			b.Fatal(err)
		}
	}
}
