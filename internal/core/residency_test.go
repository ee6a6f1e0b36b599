package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bxtree"
	"repro/internal/motion"
	"repro/internal/policy"
	"repro/internal/store"
)

// The partial-residency oracle: a tree that indexes only part of the
// registered population — what every shard of a sharded store is — must
// answer exactly as brute force over the users it holds, and must pay
// nothing for the grantors it does not hold.

// residencyConfigs are the three search paths that share friendGroups.
func residencyConfigs() map[string]Config {
	zv := DefaultConfig()
	zv.Layout = ZVFirst
	hil := DefaultConfig()
	hil.Base.Curve = bxtree.CurveHilbert
	return map[string]Config{"SVFirst": DefaultConfig(), "ZVFirst": zv, "Hilbert": hil}
}

// buildPartialFixture is buildFixture with about half of the users indexed.
// Every user keeps a sequence value and policies; a quarter are never
// inserted and a quarter are inserted and deleted again. f.objs is cut down
// to the indexed users, so the brute-force methods range over exactly what
// the tree holds.
func buildPartialFixture(t *testing.T, rng *rand.Rand, cfg Config, n, friends int) *fixture {
	t.Helper()
	f := buildFixture(t, rng, cfg, n, friends)
	tree, err := New(cfg, store.NewBufferPool(store.NewMemDisk(), store.DefaultBufferPages), f.pol, f.assign)
	if err != nil {
		t.Fatal(err)
	}
	var indexed []motion.Object
	for i, o := range f.objs {
		if i%4 == 0 {
			continue // registered, never inserted
		}
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
		if i%4 == 1 {
			if err := tree.Delete(o.UID); err != nil { // registered, removed
				t.Fatal(err)
			}
			continue
		}
		indexed = append(indexed, o)
	}
	f.tree, f.objs = tree, indexed
	return f
}

func TestPartialResidencyMatchesBruteForce(t *testing.T) {
	for name, cfg := range residencyConfigs() {
		t.Run(name, func(t *testing.T) {
			const n = 240
			rng := rand.New(rand.NewSource(61))
			f := buildPartialFixture(t, rng, cfg, n, 8)
			for trial := 0; trial < 40; trial++ {
				issuer := motion.UserID(1 + rng.Intn(n)) // indexed or not
				qx := rng.Float64() * cfg.Base.Grid.Side
				qy := rng.Float64() * cfg.Base.Grid.Side
				tq := rng.Float64() * 80

				w := bxtree.Square(qx, qy, 50+rng.Float64()*300)
				objs, err := f.tree.PRQ(issuer, w, tq)
				if err != nil {
					t.Fatalf("PRQ: %v", err)
				}
				wantSet := f.brutePRQ(issuer, w, tq)
				if len(objs) != len(wantSet) {
					t.Errorf("trial %d (issuer u%d): PRQ got %d results, want %d", trial, issuer, len(objs), len(wantSet))
				}
				for _, o := range objs {
					if !wantSet[o.UID] {
						t.Errorf("trial %d: PRQ returned unexpected u%d", trial, o.UID)
					}
				}

				// Every third trial asks for more neighbors than the issuer
				// has resident grantors: the search must end on allRowsDone.
				k := 1 + rng.Intn(6)
				if trial%3 == 0 {
					k = 50
				}
				nbs, err := f.tree.PKNN(issuer, qx, qy, k, tq)
				if err != nil {
					t.Fatalf("PKNN: %v", err)
				}
				want := f.brutePKNN(issuer, qx, qy, k, tq)
				if len(nbs) != len(want) {
					t.Errorf("trial %d (issuer u%d, k=%d): PkNN got %d results, want %d", trial, issuer, k, len(nbs), len(want))
					continue
				}
				for i := range want {
					if nbs[i].Object.UID != want[i] {
						t.Errorf("trial %d: neighbor %d = u%d, want u%d", trial, i, nbs[i].Object.UID, want[i])
					}
				}
			}
		})
	}
}

// queryAccesses returns the logical page requests one PRQ and one PkNN by
// issuer make. Requests are counted whether they hit or miss the buffer, so
// the figures do not depend on what earlier queries left cached.
func queryAccesses(t *testing.T, tree *Tree, issuer motion.UserID) (prq, pknn uint64) {
	t.Helper()
	before := tree.Pool().Stats().Accesses()
	if _, err := tree.PRQ(issuer, bxtree.Square(500, 500, 150), 30); err != nil {
		t.Fatal(err)
	}
	mid := tree.Pool().Stats().Accesses()
	if _, err := tree.PKNN(issuer, 500, 500, 3, 30); err != nil {
		t.Fatal(err)
	}
	return mid - before, tree.Pool().Stats().Accesses() - mid
}

// TestNoResidentGrantorCostsNoPages: an issuer none of whose grantors are
// indexed has no search rows, so neither query touches a page.
func TestNoResidentGrantorCostsNoPages(t *testing.T) {
	for name, cfg := range residencyConfigs() {
		t.Run(name, func(t *testing.T) {
			f := buildFixture(t, rand.New(rand.NewSource(62)), cfg, 120, 6)
			const issuer = motion.UserID(7)
			grantors := f.pol.Grantors(policy.UserID(issuer))
			if len(grantors) == 0 {
				t.Fatal("issuer has no grantors — the gate would check nothing")
			}
			for _, g := range grantors {
				if err := f.tree.Delete(motion.UserID(g)); err != nil {
					t.Fatal(err)
				}
			}
			if prq, pknn := queryAccesses(t, f.tree, issuer); prq != 0 || pknn != 0 {
				t.Errorf("page accesses with no resident grantor: PRQ %d, PkNN %d; want 0, 0", prq, pknn)
			}
		})
	}
}

// TestNonResidentGrantorsCostNoPages: registering more grantors for an
// issuer — with sequence values and policies, but never indexed — leaves the
// page accesses of the issuer's queries exactly where they were. Half of the
// newcomers share a resident grantor's sequence value, so the rule has to
// hold member by member inside a group, not only group by group.
func TestNonResidentGrantorsCostNoPages(t *testing.T) {
	for name, cfg := range residencyConfigs() {
		t.Run(name, func(t *testing.T) {
			f := buildFixture(t, rand.New(rand.NewSource(63)), cfg, 200, 6)
			const issuer = motion.UserID(11)
			// A copy: the store's own list is valid only until it changes.
			grantors := slices.Clone(f.pol.Grantors(policy.UserID(issuer)))
			if len(grantors) == 0 {
				t.Fatal("issuer has no grantors")
			}
			prq0, pknn0 := queryAccesses(t, f.tree, issuer)
			if prq0 == 0 || pknn0 == 0 {
				t.Fatalf("baseline queries touched no page (PRQ %d, PkNN %d)", prq0, pknn0)
			}

			everywhere := policy.Region{MinX: 0, MinY: 0, MaxX: cfg.Base.Grid.Side, MaxY: cfg.Base.Grid.Side}
			for i := 0; i < 10; i++ {
				uid := policy.UserID(1000 + i)
				role := policy.Role(fmt.Sprintf("extra-%d", i))
				f.pol.SetRelation(uid, policy.UserID(issuer), role)
				err := f.pol.AddPolicy(uid, policy.Policy{Role: role, Locr: everywhere,
					Tint: policy.TimeInterval{Start: 0, End: testDayLen}})
				if err != nil {
					t.Fatal(err)
				}
				sv := f.assign.SV[grantors[i%len(grantors)]]
				if i%2 == 1 {
					sv += 0.5 + float64(i)
				}
				if err := f.tree.SetSV(motion.UserID(uid), sv); err != nil {
					t.Fatal(err)
				}
			}
			if got := len(f.pol.Grantors(policy.UserID(issuer))); got != len(grantors)+10 {
				t.Fatalf("issuer has %d grantors after the additions, want %d", got, len(grantors)+10)
			}

			prq1, pknn1 := queryAccesses(t, f.tree, issuer)
			if prq1 != prq0 || pknn1 != pknn0 {
				t.Errorf("page accesses moved with 10 non-resident grantors added: PRQ %d → %d, PkNN %d → %d",
					prq0, prq1, pknn0, pknn1)
			}
		})
	}
}
