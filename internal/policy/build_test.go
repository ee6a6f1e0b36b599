package policy

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// checkBulk applies every relation and policy op of data (FuzzStoreOps'
// encoding, whatever side an op names) to an empty store one at a time and
// through a Bulk: the two stores must be Equal and save the same bytes. A
// Bulk that also holds an invalid region must be refused and leave its
// store empty, and no Bulk applies to a store that is not.
func checkBulk(t *testing.T, data []byte) {
	space := Region{MaxX: 100, MaxY: 100}
	one, err := NewStore(space, 24)
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := NewStore(space, 24)
	var bulk Bulk
	var invalid *Policy
	for ; len(data) >= 4; data = data[4:] {
		kind, owner, peer, v := data[0]%4, UserID(data[1]%8), UserID(data[2]%8), data[3]
		switch kind {
		case 0:
			one.SetRelation(owner, peer, fuzzRoles[v%4])
			bulk.SetRelation(owner, peer, fuzzRoles[v%4])
		case 1:
			pol := Policy{Role: fuzzRoles[v%4], Locr: fuzzRegions[v>>2%4], Tint: fuzzTints[v>>4%4]}
			if one.AddPolicy(owner, pol) != nil {
				invalid = &pol
				continue
			}
			bulk.AddPolicy(owner, pol)
		}
	}
	if err := bulk.ApplyTo(whole); err != nil {
		t.Fatalf("bulk apply: %v", err)
	}
	if !one.Equal(whole) || !whole.Equal(one) {
		t.Fatal("ops bulk-applied are not Equal to the same ops one at a time")
	}
	var a, b bytes.Buffer
	if err := one.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := whole.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("bulk-applied store saves other bytes")
	}
	if !whole.Empty() && bulk.ApplyTo(whole) == nil {
		t.Fatal("bulk apply to a store that is not empty succeeded")
	}
	if invalid != nil {
		bulk.AddPolicy(1, *invalid)
		fresh, _ := NewStore(space, 24)
		if bulk.ApplyTo(fresh) == nil || !fresh.Empty() {
			t.Fatalf("bulk with invalid region %v applied", invalid.Locr)
		}
	}
}

func TestBulkEqualsOneAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 4*rng.Intn(64))
		rng.Read(data)
		checkBulk(t, data)
	}
	// The benchmark's shape, out of owner order: random stores replayed
	// through a Bulk in reverse.
	for seed := int64(1); seed <= 3; seed++ {
		s := buildRandomStore(t, seed, 80, 12)
		var ops []Policy
		var owners, peers []UserID
		s.ForEachGrant(func(o, v UserID, p Policy) bool {
			ops, owners, peers = append(ops, p), append(owners, o), append(peers, v)
			return true
		})
		one, _ := NewStore(s.Space(), s.DayLength())
		var bulk Bulk
		for i := len(ops) - 1; i >= 0; i-- {
			one.SetRelation(owners[i], peers[i], ops[i].Role)
			bulk.SetRelation(owners[i], peers[i], ops[i].Role)
			if err := one.AddPolicy(owners[i], ops[i]); err != nil {
				t.Fatal(err)
			}
			bulk.AddPolicy(owners[i], ops[i])
		}
		whole, _ := NewStore(s.Space(), s.DayLength())
		if err := bulk.ApplyTo(whole); err != nil {
			t.Fatal(err)
		}
		if !one.Equal(whole) || !whole.Equal(one) {
			t.Fatalf("seed %d: bulk-applied store differs", seed)
		}
	}
}

// refCompatGraph is the compatibility graph built pair by pair, as the
// encoder built it before it walked the relations itself: the pairs
// RelatedPairs reports, through a map from user to node, weighted by
// Compatibility or CompatibilityMulti.
func refCompatGraph(s *Store, users []UserID, multi bool) *compatGraph {
	compat := s.Compatibility
	if multi {
		compat = s.CompatibilityMulti
	}
	node := make(map[UserID]int32, len(users))
	for i, u := range users {
		node[u] = int32(i)
	}
	g := &compatGraph{users: users, start: make([]int32, len(users)+1)}
	var edges [][3]float64
	s.RelatedPairs(func(a, b UserID) {
		i, ok := node[a]
		j, ok2 := node[b]
		if ok && ok2 {
			if c := compat(a, b); c > 0 {
				edges = append(edges, [3]float64{float64(i), float64(j), c})
				g.start[i+1]++
				g.start[j+1]++
			}
		}
	})
	for u := range users {
		g.start[u+1] += g.start[u]
	}
	g.arcs = make([]arc, 2*len(edges))
	next := slices.Clone(g.start)
	for _, e := range edges {
		i, j := int32(e[0]), int32(e[1])
		g.arcs[next[i]] = arc{j, e[2]}
		g.arcs[next[j]] = arc{i, e[2]}
		next[i]++
		next[j]++
	}
	for u := range users {
		slices.SortFunc(g.row(int32(u)), func(x, y arc) int { return cmp.Compare(x.to, y.to) })
	}
	return g
}

// TestCompatGraphMatchesPairwise: the graph built in one walk over the
// owners' relations equals, arc for arc and bit for bit, the one built
// pair by pair — for both compatibility degrees, node orders by id and by
// hash, users outside the store, and lists that leave users out.
func TestCompatGraphMatchesPairwise(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s := buildRandomStore(t, seed, 60, int(seed*2))
		rng := rand.New(rand.NewSource(seed))
		// Self-relations and a few grants both ways.
		for i := 0; i < 10; i++ {
			u, v := UserID(rng.Intn(60)+1), UserID(rng.Intn(60)+1)
			s.SetRelation(u, u, "a")
			s.SetRelation(v, u, "b")
			s.SetRelation(u, v, "b")
			if err := s.AddPolicy(v, Policy{Role: "b", Locr: Region{MaxX: 600, MaxY: 600}, Tint: TimeInterval{Start: 100, End: 900}}); err != nil {
				t.Fatal(err)
			}
		}
		var all []UserID
		for u := UserID(1); u <= 70; u++ { // 61–70 hold no slot
			all = append(all, u)
		}
		half := slices.DeleteFunc(slices.Clone(all), func(u UserID) bool { return u%3 == 0 })
		hashed := slices.Clone(all)
		slices.SortFunc(hashed, func(a, b UserID) int { return cmp.Compare(mixID(a), mixID(b)) })
		for _, users := range [][]UserID{all, half, hashed} {
			for _, multi := range []bool{false, true} {
				got, want := newCompatGraph(s, users, multi), refCompatGraph(s, users, multi)
				if len(got.arcs) == 0 {
					t.Fatalf("seed %d: empty graph", seed)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %d users, multi %v: one-pass graph differs from the pairwise one", seed, len(users), multi)
				}
			}
		}
	}
}
