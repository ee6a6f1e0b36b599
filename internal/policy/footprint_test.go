package policy_test

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/workload"
)

// grant is one relation and its policy, as ForEachGrant reports them.
type grant struct {
	owner, viewer policy.UserID
	p             policy.Policy
}

func grantsOf(s *policy.Store) []grant {
	var gs []grant
	s.ForEachGrant(func(owner, viewer policy.UserID, p policy.Policy) bool {
		gs = append(gs, grant{owner, viewer, p})
		return true
	})
	return gs
}

// oneAtATime builds gs into an empty store one SetRelation and AddPolicy
// at a time, in order.
func oneAtATime(t testing.TB, space policy.Region, dayLen float64, gs []grant) *policy.Store {
	s, err := policy.NewStore(space, dayLen)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gs {
		s.SetRelation(g.owner, g.viewer, g.p.Role)
		if err := s.AddPolicy(g.owner, g.p); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// bulkBuilt builds gs into an empty store through one Bulk.
func bulkBuilt(t testing.TB, space policy.Region, dayLen float64, gs []grant) *policy.Store {
	s, err := policy.NewStore(space, dayLen)
	if err != nil {
		t.Fatal(err)
	}
	b := policy.NewBulk(len(gs), len(gs))
	for _, g := range gs {
		b.SetRelation(g.owner, g.viewer, g.p.Role)
		b.AddPolicy(g.owner, g.p)
	}
	if err := b.ApplyTo(s); err != nil {
		t.Fatal(err)
	}
	return s
}

func load(t testing.TB, data []byte) *policy.Store {
	s, err := policy.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// savedCRC is the CRC-32C of the policies file of the 1 000 × 20 dataset
// at seed 1, recorded when the store kept each user's entries in slices
// of their own: the file's bytes do not depend on how the store holds them.
const savedCRC = 0xf817bb74

// TestBuildPathsSaveIdentically: every way to build a store — one call at
// a time, one Bulk, a load of its file and a clone — saves the same
// bytes, and those are the bytes the policies file has always held for
// this dataset. The golden database under peb/testdata pins the rest of
// the format (TestGoldenBytesStable); its policies file also round-trips
// here.
func TestBuildPathsSaveIdentically(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumUsers, cfg.PoliciesPerUser, cfg.Seed = 1000, 20, 1
	ds, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := ds.Policies
	gs := grantsOf(gen)
	want := saved(t, gen)
	if got := crc32.Checksum(want, crc32.MakeTable(crc32.Castagnoli)); got != savedCRC {
		t.Errorf("the policies file's CRC-32C is %#08x, want %#08x", got, savedCRC)
	}
	for name, s := range map[string]*policy.Store{
		"one call at a time": oneAtATime(t, gen.Space(), gen.DayLength(), gs),
		"bulk":               bulkBuilt(t, gen.Space(), gen.DayLength(), gs),
		"load":               load(t, want),
		"clone":              gen.Clone(),
	} {
		if got := saved(t, s); !bytes.Equal(got, want) {
			t.Errorf("%s: saves %d bytes unlike the generator's store's %d", name, len(got), len(want))
		}
		if !s.Equal(gen) {
			t.Errorf("%s: not Equal to the generator's store", name)
		}
	}

	golden, err := os.ReadFile("../../peb/testdata/golden/current/golden.idx.policies.1")
	if err != nil {
		t.Fatal(err)
	}
	if got := saved(t, load(t, golden)); !bytes.Equal(got, golden) {
		t.Errorf("the golden policies file saves as %d other bytes", len(got))
	}
}

// heapGrowth returns how many bytes of live heap build leaves behind.
func heapGrowth(build func() *policy.Store) (uint64, *policy.Store) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return after.HeapAlloc - before.HeapAlloc, s
}

// TestStoreFootprint bounds the live heap of a 20 000 × 20 store — the
// engine's share of the end-to-end benchmark's heap_mb — per grant. The
// floor is the 48-byte rule (four float64 coordinates and two time
// bounds); a role entry (12 B), a relation (8 B) and a grantor (4 B) are
// stored once each beside it, so 72 B is the least a grant can take. A
// store built whole, by Bulk or Load, is exact and must stay within 80 B;
// one built a call at a time carries its extents' slack and the columns'
// headroom, and must stay within 100 B.
func TestStoreFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("20 000 × 20 heap measurement")
	}
	gen := benchDataset(t).Policies
	gs := grantsOf(gen)
	data := saved(t, gen)
	for _, c := range []struct {
		name  string
		bound float64
		build func() *policy.Store
	}{
		{"bulk", 80, func() *policy.Store { return bulkBuilt(t, gen.Space(), gen.DayLength(), gs) }},
		{"load", 80, func() *policy.Store { return load(t, data) }},
		{"one call at a time", 100, func() *policy.Store { return oneAtATime(t, gen.Space(), gen.DayLength(), gs) }},
	} {
		grew, s := heapGrowth(c.build)
		perGrant := float64(grew) / float64(len(gs))
		t.Logf("%s: %.1f MB, %.1f B per grant over %d grants", c.name, float64(grew)/1e6, perGrant, len(gs))
		if perGrant > c.bound {
			t.Errorf("%s: %.1f B per grant, bound %.0f", c.name, perGrant, c.bound)
		}
		runtime.KeepAlive(s)
	}
	runtime.KeepAlive(data)
	runtime.KeepAlive(gs)
}

// TestLoadAndCloneAllocsIndependentOfUsers: Load and Clone allocate a
// fixed number of arrays, not some per user.
func TestLoadAndCloneAllocsIndependentOfUsers(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement at 20 000 users")
	}
	cfg := workload.DefaultConfig()
	cfg.NumUsers, cfg.PoliciesPerUser, cfg.Seed = 1000, 20, 1
	small, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type counts struct{ load, clone float64 }
	measure := func(s *policy.Store) counts {
		data := saved(t, s)
		return counts{
			load:  testing.AllocsPerRun(3, func() { load(t, data) }),
			clone: testing.AllocsPerRun(3, func() { s.Clone() }),
		}
	}
	a, b := measure(small.Policies), measure(benchDataset(t).Policies)
	t.Logf("Load: %.0f allocations at 1 000 users, %.0f at 20 000; Clone: %.0f and %.0f", a.load, b.load, a.clone, b.clone)
	if b.load > a.load+64 || b.clone > a.clone+64 {
		t.Fatalf("allocations grow with the users: Load %.0f → %.0f, Clone %.0f → %.0f", a.load, b.load, a.clone, b.clone)
	}
}

// BenchmarkStoreClone times the copy a policy mutation makes of a pinned
// 20 000 × 20 store.
func BenchmarkStoreClone(b *testing.B) {
	s := benchDataset(b).Policies
	for b.Loop() {
		s.Clone()
	}
}

// BenchmarkStoreGrant times one Grant's store work — a relation under a
// new role and its policy — on a copy of the 20 000 × 20 store, owners
// taken in turn, and reports the median and the slowest Grant: a Grant
// whose entries must move, or whose column must be compacted, costs more
// than one written in place.
func BenchmarkStoreGrant(b *testing.B) {
	ds := benchDataset(b)
	s := ds.Policies.Clone()
	rng := rand.New(rand.NewSource(1))
	roles := make([]policy.Role, 64)
	for i := range roles {
		roles[i] = policy.Role("grant" + strconv.Itoa(i))
	}
	var took []time.Duration
	i := 0
	for b.Loop() {
		owner := ds.Users[i%len(ds.Users)]
		peer := ds.Users[rng.Intn(len(ds.Users))]
		x, y := rng.Float64()*500, rng.Float64()*500
		p := policy.Policy{Role: roles[i%len(roles)], Locr: policy.Region{MinX: x, MinY: y, MaxX: x + 500, MaxY: y + 500},
			Tint: policy.TimeInterval{Start: 0, End: ds.Cfg.DayLen}}
		start := time.Now()
		s.SetRelation(owner, peer, p.Role)
		if err := s.AddPolicy(owner, p); err != nil {
			b.Fatal(err)
		}
		took = append(took, time.Since(start))
		i++
	}
	slices.Sort(took)
	b.ReportMetric(float64(took[len(took)/2].Nanoseconds()), "p50-ns/grant")
	b.ReportMetric(float64(took[len(took)-1].Nanoseconds()), "max-ns/grant")
}
