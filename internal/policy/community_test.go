package policy_test

import (
	"cmp"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// plantedDataset is the generator's policy graph at θ = 0.7: groups of
// GroupSize consecutive ids, 70 % of each owner's policies inside its group.
func plantedDataset(t *testing.T) *workload.Dataset {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumUsers, cfg.PoliciesPerUser, cfg.GroupingFactor, cfg.GroupSize, cfg.Seed = 2000, 20, 0.7, 100, 1
	ds, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

var field = policy.SVCodec{Bits: 26, FracBits: 6}

// bands splits an assignment's users into its bands, in value order: the
// values of one band are one step apart, and bands are further apart.
func bands(t *testing.T, a policy.Assignment) [][]policy.UserID {
	t.Helper()
	users := slices.SortedFunc(maps.Keys(a.SV), func(x, y policy.UserID) int { return cmp.Compare(a.SV[x], a.SV[y]) })
	step := a.MaxSV
	for i := 1; i < len(users); i++ {
		d := a.SV[users[i]] - a.SV[users[i-1]]
		if d == 0 {
			t.Fatalf("users %d and %d share the sequence value %g", users[i-1], users[i], a.SV[users[i]])
		}
		step = min(step, d)
	}
	var out [][]policy.UserID
	for i, u := range users {
		if i == 0 || a.SV[u]-a.SV[users[i-1]] > step {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], u)
	}
	if len(out) != a.Groups {
		t.Fatalf("%d bands in the values, Groups = %d", len(out), a.Groups)
	}
	return out
}

// checkPlanted asserts that every band is exactly one planted group, with
// group(u) naming u's group.
func checkPlanted(t *testing.T, a policy.Assignment, n, size int, group func(policy.UserID) int) {
	t.Helper()
	bs := bands(t, a)
	if len(bs) != n/size {
		t.Fatalf("%d bands, want the %d planted groups", len(bs), n/size)
	}
	for _, b := range bs {
		if len(b) != size {
			t.Fatalf("band of %d users, want %d", len(b), size)
		}
		for _, u := range b {
			if group(u) != group(b[0]) {
				t.Fatalf("band mixes groups %d and %d", group(b[0]), group(u))
			}
		}
	}
}

func TestAssignCommunitiesFindsPlantedGroups(t *testing.T) {
	ds := plantedDataset(t)
	a, err := policy.AssignCommunities(ds.Policies, ds.Users, field)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.SV) != len(ds.Users) {
		t.Fatalf("assigned %d of %d users", len(a.SV), len(ds.Users))
	}
	checkPlanted(t, a, 2000, 100, func(u policy.UserID) int { return int(u-1) / 100 })
}

// TestAssignCommunitiesIgnoresIDOrder relabels every user through a random
// bijection: the bands must still be the planted groups, so nothing in the
// encoder leans on consecutive ids.
func TestAssignCommunitiesIgnoresIDOrder(t *testing.T) {
	ds := plantedDataset(t)
	rng := rand.New(rand.NewSource(7))
	to := make(map[policy.UserID]policy.UserID, len(ds.Users))
	from := make(map[policy.UserID]policy.UserID, len(ds.Users))
	for i, j := range rng.Perm(len(ds.Users)) {
		u, v := ds.Users[i], policy.UserID(1000+j*7919%1_000_003)
		to[u], from[v] = v, u
	}
	relabelled, err := policy.NewStore(ds.Policies.Space(), ds.Policies.DayLength())
	if err != nil {
		t.Fatal(err)
	}
	ds.Policies.ForEachGrant(func(owner, viewer policy.UserID, p policy.Policy) bool {
		relabelled.SetRelation(to[owner], to[viewer], p.Role)
		if err := relabelled.AddPolicy(to[owner], p); err != nil {
			t.Fatal(err)
		}
		return true
	})
	a, err := policy.AssignCommunities(relabelled, slices.Collect(maps.Values(to)), field)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanted(t, a, 2000, 100, func(u policy.UserID) int { return int(from[u]-1) / 100 })
}

// TestAssignCommunitiesDeterministic: two calls agree, and so do calls
// given the users in another order or with repeats.
func TestAssignCommunitiesDeterministic(t *testing.T) {
	ds := plantedDataset(t)
	first, err := policy.AssignCommunities(ds.Policies, ds.Users, field)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := slices.Clone(ds.Users)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, users := range [][]policy.UserID{ds.Users, shuffled, append(shuffled, ds.Users[:50]...)} {
		again, err := policy.AssignCommunities(ds.Policies, users, field)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(again.SV, first.SV) || again.MaxSV != first.MaxSV || again.Groups != first.Groups {
			t.Fatal("assignment depends on the call or on the order of users")
		}
	}
}

// TestAssignCommunitiesFieldCapacity narrows the field around what the
// assignment needs: integer steps while they leave the field's top eighth
// free, then finer ones, then the finest step that fits at all, and an
// error only once the field has fewer slots than the values need.
func TestAssignCommunitiesFieldCapacity(t *testing.T) {
	ds := plantedDataset(t)
	wide, err := policy.AssignCommunities(ds.Policies, ds.Users, field)
	if err != nil {
		t.Fatal(err)
	}
	top := uint64(wide.MaxSV) // integer steps: the largest position
	need := bits.Len64(top)   // bits that hold every position
	if top <= 7<<need/8 {
		t.Fatalf("premise: the largest position %d should lie in the top eighth of %d", top, 1<<need)
	}
	for _, c := range []struct {
		field policy.SVCodec
		step  float64 // 0: the field is too small
	}{
		{policy.SVCodec{Bits: need + 7, FracBits: 6}, 1},
		{policy.SVCodec{Bits: need + 6, FracBits: 6}, 0.5}, // step 1 fits, but not with room to spare
		{policy.SVCodec{Bits: need + 5, FracBits: 6}, 0.25},
		{policy.SVCodec{Bits: need, FracBits: 6}, 1.0 / 64}, // no step leaves room
		{policy.SVCodec{Bits: need, FracBits: 0}, 1},
		{policy.SVCodec{Bits: need - 1, FracBits: 6}, 0},
	} {
		a, err := policy.AssignCommunities(ds.Policies, ds.Users, c.field)
		if c.step == 0 {
			if err == nil {
				t.Errorf("%+v: %d positions accepted in %d slots", c.field, top, 1<<c.field.Bits)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%+v: %v", c.field, err)
		}
		if a.MaxSV != wide.MaxSV*c.step {
			t.Errorf("%+v: MaxSV %g, want %g", c.field, a.MaxSV, wide.MaxSV*c.step)
		}
		seen := make(map[uint64]bool, len(a.SV))
		for u, sv := range a.SV {
			if sv != wide.SV[u]*c.step {
				t.Fatalf("%+v: SV(%d) = %g, want %g", c.field, u, sv, wide.SV[u]*c.step)
			}
			v, err := c.field.Encode(sv)
			if err != nil {
				t.Fatalf("%+v: %v", c.field, err)
			}
			if seen[v] {
				t.Fatalf("%+v: two users encode to %d", c.field, v)
			}
			seen[v] = true
		}
	}
}
