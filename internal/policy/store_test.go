package policy

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestGrantorsDropOnRoleChange: moving a relation to a role without a
// policy takes the owner out of the peer's grantor list at once, not at the
// next save and load.
func TestGrantorsDropOnRoleChange(t *testing.T) {
	s := testStore(t)
	s.SetRelation(1, 2, "friend")
	if err := s.AddPolicy(1, Policy{Role: "friend", Locr: Region{0, 0, 10, 10}, Tint: TimeInterval{0, 100}}); err != nil {
		t.Fatal(err)
	}
	if !s.HasGrantor(2, 1) {
		t.Fatal("friend policy did not make 1 a grantor of 2")
	}
	s.SetRelation(1, 2, "stranger")
	if _, ok := s.PolicyFor(1, 2); ok {
		t.Fatal("PolicyFor(1, 2) holds after the role change")
	}
	if g := s.Grantors(2); len(g) != 0 || s.HasGrantor(2, 1) {
		t.Fatalf("Grantors(2) = %v after the role change, want none", g)
	}
	s.SetRelation(1, 2, "friend")
	if g := s.Grantors(2); !slices.Equal(g, []UserID{1}) {
		t.Fatalf("Grantors(2) = %v after the role change back, want [1]", g)
	}
}

// TestStoreReadsAllocateNothing: the three reads a query makes per grantor
// work in place.
func TestStoreReadsAllocateNothing(t *testing.T) {
	s := buildRandomStore(t, 11, 200, 8)
	viewer := UserID(17)
	gs := s.Grantors(viewer)
	if len(gs) == 0 {
		t.Fatal("viewer has no grantors — the gate would check nothing")
	}
	owner := gs[0]
	sink := 0
	for name, read := range map[string]func(){
		"Grantors":  func() { sink += len(s.Grantors(viewer)) },
		"Allows":    func() { _ = s.Allows(owner, viewer, 600, 600, 700) },
		"PolicyFor": func() { _, _ = s.PolicyFor(owner, viewer) },
	} {
		if got := testing.AllocsPerRun(100, read); got != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", name, got)
		}
	}
}

// TestStoreEqual: Equal compares users by id, whatever order their slots
// were handed out in, and sees one policy, one relation or one rule order
// of difference.
func TestStoreEqual(t *testing.T) {
	everywhere, allDay := Region{0, 0, 1000, 1000}, TimeInterval{0, day}
	downtown := Region{0, 0, 10, 10}
	build := func(owners ...UserID) *Store {
		s := testStore(t)
		for _, o := range owners {
			s.SetRelation(o, o+1, "friend")
			for _, r := range []Region{everywhere, downtown} {
				if err := s.AddPolicy(o, Policy{Role: "friend", Locr: r, Tint: allDay}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}
	a, b := build(1, 5, 9), build(9, 1, 5)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("stores built in another user order are not Equal")
	}
	c := build(9, 1, 5)
	c.SetRelation(3, 4, "stranger")
	if a.Equal(c) || c.Equal(a) {
		t.Fatal("an extra relation goes unnoticed")
	}
	d := build(9, 1, 5)
	if err := d.AddPolicy(1, Policy{Role: "friend", Locr: Region{5, 5, 6, 6}, Tint: allDay}); err != nil {
		t.Fatal(err)
	}
	if a.Equal(d) || d.Equal(a) {
		t.Fatal("an extra policy goes unnoticed")
	}
	e := testStore(t)
	for _, o := range []UserID{1, 5, 9} {
		e.SetRelation(o, o+1, "friend")
		for _, r := range []Region{downtown, everywhere} { // the other rule order
			if err := e.AddPolicy(o, Policy{Role: "friend", Locr: r, Tint: allDay}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a.Equal(e) {
		t.Fatal("the same rules in another order are Equal")
	}
}

// fuzzRoles, fuzzRegions and fuzzTints are the few values FuzzStoreOps
// draws from, so that duplicates, shared roles and role changes are common.
// The last region is invalid: AddPolicy must refuse it on both sides.
var (
	fuzzRoles   = []Role{"a", "b", "c", "d"}
	fuzzRegions = []Region{{0, 0, 50, 50}, {25, 25, 100, 100}, {0, 0, 100, 100}, {10, 10, 5, 5}}
	fuzzTints   = []TimeInterval{{0, 12}, {6, 18}, {20, 4}, {0, 24}}
	fuzzPoints  = [][3]float64{{10, 10, 2}, {30, 30, 8}, {75, 75, 22}, {40, 60, 13}}
)

// storePair is a store and the reference it must agree with, and the
// mutations that built both, from the empty store on.
type storePair struct {
	s   *Store
	ref *refStore
	ops [][]byte
}

// FuzzStoreOps drives Store and refStore through the same op sequence —
// relation sets and role changes, policy adds with duplicates and several
// policies per role, clones with both sides mutated afterwards, save→load
// round trips — and compares every read after every op. After the whole
// list, Equal must agree with the references, and applying each side's
// mutations a second time must leave it Equal to what it was: the
// idempotence that lets several peb.DBs broadcast the same op into one
// shared store. Every relation and policy op of the list, applied to an
// empty store through a Bulk, must leave it Equal to the same ops applied
// one at a time (checkBulk).
//
// Each op is 4 bytes: kind and side, owner, peer, and a value byte.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 1, 0, 0, 0, 1, 2, 1})                                        // grant, then a role change
	f.Add([]byte{1, 1, 0, 4, 0, 1, 2, 0, 1, 1, 0, 4, 1, 1, 0, 20})                           // duplicate, then a second policy
	f.Add([]byte{0, 1, 2, 0, 1, 1, 0, 0, 0, 2, 1, 0, 1, 2, 0, 0})                            // a grant each way
	f.Add([]byte{0, 1, 2, 0, 1, 1, 0, 0, 2, 0, 0, 0, 0x10, 1, 2, 1, 0, 1, 3, 0, 3, 0, 0, 0}) // clone, mutate both
	f.Add([]byte{0, 3, 3, 2, 1, 3, 0, 6, 0, 3, 5, 3, 1, 3, 0, 7, 3, 0, 0, 0, 0, 5, 3, 2})
	f.Add([]byte{0, 1, 2, 0, 0, 1, 2, 1, 1, 1, 0, 1, 3, 0, 0, 0}) // a role left without policy or relation, then save/load
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBulk(t, data)
		space := Region{MaxX: 100, MaxY: 100}
		s, err := NewStore(space, 24)
		if err != nil {
			t.Fatal(err)
		}
		pairs := []storePair{{s: s, ref: newRefStore(space, 24)}}
		for ; len(data) >= 4; data = data[4:] {
			side := int(data[0]>>4) % len(pairs)
			p := &pairs[side]
			switch data[0] % 4 {
			case 0, 1:
				p.apply(t, data[:4], true)
				p.ops = append(p.ops, data[:4])
			case 2:
				c := storePair{p.s.Clone(), p.ref.clone(), slices.Clip(p.ops)}
				if len(pairs) == 1 {
					pairs = append(pairs, c)
				} else {
					pairs[1-side] = c
				}
			case 3:
				var buf bytes.Buffer
				if err := p.s.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(&buf)
				if err != nil {
					t.Fatalf("a saved store does not load: %v", err)
				}
				p.s = loaded
			}
			for i := range pairs {
				if err := agree(pairs[i].s, pairs[i].ref); err != nil {
					t.Fatalf("side %d after op %v: %v", i, data[:4], err)
				}
			}
		}

		if len(pairs) == 2 {
			want := bytes.Equal(refSaved(t, pairs[0].ref), refSaved(t, pairs[1].ref))
			if got := pairs[0].s.Equal(pairs[1].s); got != want || pairs[1].s.Equal(pairs[0].s) != want {
				t.Fatalf("the two sides are Equal = %v, but their references are equal = %v", got, want)
			}
		}
		for i := range pairs {
			p := &pairs[i]
			fromRef, err := Load(bytes.NewReader(refSaved(t, p.ref)))
			if err != nil {
				t.Fatal(err)
			}
			if !p.s.Equal(fromRef) || !fromRef.Equal(p.s) {
				t.Fatalf("side %d is not Equal to the store its reference saves", i)
			}
			before := p.s.Clone()
			for _, op := range p.ops {
				p.apply(t, op, false)
			}
			if !p.s.Equal(before) {
				t.Fatalf("side %d changed when its %d mutations were applied again", i, len(p.ops))
			}
			if err := agree(p.s, p.ref); err != nil {
				t.Fatalf("side %d after its mutations were applied again: %v", i, err)
			}
		}
	})
}

// apply runs one relation or policy op on the store, and on the reference
// too when withRef is set.
func (p *storePair) apply(t *testing.T, op []byte, withRef bool) {
	owner, peer, v := UserID(op[1]%8), UserID(op[2]%8), op[3]
	if op[0]%4 == 0 {
		role := fuzzRoles[v%4]
		p.s.SetRelation(owner, peer, role)
		if withRef {
			p.ref.SetRelation(owner, peer, role)
		}
		return
	}
	pol := Policy{Role: fuzzRoles[v%4], Locr: fuzzRegions[v>>2%4], Tint: fuzzTints[v>>4%4]}
	err := p.s.AddPolicy(owner, pol)
	if !withRef {
		return
	}
	if refErr := p.ref.AddPolicy(owner, pol); (err == nil) != (refErr == nil) {
		t.Fatalf("AddPolicy(%d, %v): %v, reference %v", owner, pol, err, refErr)
	}
}

// refSaved returns the reference's canonical serialization: two references
// hold the same state exactly when these bytes are equal.
func refSaved(t *testing.T, ref *refStore) []byte {
	var buf bytes.Buffer
	if err := ref.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// agree compares every read of s with the reference's over users 0–7.
func agree(s *Store, ref *refStore) error {
	if s.NumPolicies() != ref.numPolicies {
		return fmt.Errorf("NumPolicies %d, reference %d", s.NumPolicies(), ref.numPolicies)
	}
	for o := UserID(0); o < 8; o++ {
		if g, want := s.Grantors(o), ref.Grantors(o); !slices.Equal(g, want) {
			return fmt.Errorf("Grantors(%d) = %v, reference %v", o, g, want)
		}
		for v := UserID(0); v < 8; v++ {
			p, ok := s.PolicyFor(o, v)
			wp, wok := ref.PolicyFor(o, v)
			if p != wp || ok != wok {
				return fmt.Errorf("PolicyFor(%d, %d) = %v %v, reference %v %v", o, v, p, ok, wp, wok)
			}
			if s.HasGrantor(v, o) != ref.HasGrantor(v, o) {
				return fmt.Errorf("HasGrantor(%d, %d) = %v, reference %v", v, o, s.HasGrantor(v, o), ref.HasGrantor(v, o))
			}
			for _, pt := range fuzzPoints {
				if s.Allows(o, v, pt[0], pt[1], pt[2]) != ref.Allows(o, v, pt[0], pt[1], pt[2]) {
					return fmt.Errorf("Allows(%d, %d, %v) differs from the reference", o, v, pt)
				}
			}
		}
	}
	type grant struct{ o, v UserID }
	grants, refGrants := map[grant]Policy{}, map[grant]Policy{}
	visits := 0
	s.ForEachGrant(func(o, v UserID, p Policy) bool { grants[grant{o, v}] = p; visits++; return true })
	ref.ForEachGrant(func(o, v UserID, p Policy) bool { refGrants[grant{o, v}] = p; return true })
	if visits != len(grants) || len(grants) != len(refGrants) {
		return fmt.Errorf("ForEachGrant visits %v, reference %v", grants, refGrants)
	}
	for k, p := range refGrants {
		if grants[k] != p {
			return fmt.Errorf("ForEachGrant %v = %v, reference %v", k, grants[k], p)
		}
	}
	pairs, refPairs := map[[2]UserID]int{}, map[[2]UserID]int{}
	s.RelatedPairs(func(a, b UserID) { pairs[[2]UserID{a, b}]++ })
	ref.RelatedPairs(func(a, b UserID) { refPairs[[2]UserID{a, b}]++ })
	if len(pairs) != len(refPairs) {
		return fmt.Errorf("RelatedPairs %v, reference %v", pairs, refPairs)
	}
	for k, n := range pairs {
		if n != 1 || refPairs[k] != 1 {
			return fmt.Errorf("RelatedPairs reports %v %d times, reference %d", k, n, refPairs[k])
		}
	}
	var b, rb bytes.Buffer
	if err := s.Save(&b); err != nil {
		return err
	}
	if err := ref.Save(&rb); err != nil {
		return err
	}
	if !bytes.Equal(b.Bytes(), rb.Bytes()) {
		return fmt.Errorf("Save writes %d bytes unlike the reference's %d", b.Len(), rb.Len())
	}
	return nil
}

// benchStore is the benchmark's policy shape at 2000 users: each owner
// grants 20 distinct peers one policy apiece, under a role of its own.
func benchStore(b *testing.B) *Store {
	rng := rand.New(rand.NewSource(1))
	s := testStore(b)
	const users, perUser = 2000, 20
	for o := UserID(1); o <= users; o++ {
		for _, peer := range rng.Perm(users)[:perUser] {
			role := Role(fmt.Sprintf("p%d", peer+1))
			s.SetRelation(o, UserID(peer+1), role)
			lo := rng.Float64() * 500
			err := s.AddPolicy(o, Policy{Role: role, Locr: Region{lo, lo, lo + 500, lo + 500},
				Tint: TimeInterval{Start: rng.Float64() * day, End: rng.Float64() * day}})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	return s
}

// BenchmarkAllows times the privacy predicate over (grantor, viewer) pairs,
// the pairs a query evaluates.
func BenchmarkAllows(b *testing.B) {
	s := benchStore(b)
	type pair struct{ o, v UserID }
	var pairs []pair
	for v := UserID(1); v <= 100; v++ {
		for _, o := range s.Grantors(v) {
			pairs = append(pairs, pair{o, v})
		}
	}
	i := 0
	for b.Loop() {
		p := pairs[i%len(pairs)]
		s.Allows(p.o, p.v, 500, 500, 700)
		i++
	}
}

// BenchmarkGrantors times one query issuer's grantor list, Upol.
func BenchmarkGrantors(b *testing.B) {
	s := benchStore(b)
	i := 0
	for b.Loop() {
		s.Grantors(UserID(i%2000 + 1))
		i++
	}
}

// TestStoreAgreesWithReferenceAtScale drives hundreds of users through
// thousands of relation sets, role changes and policy adds, cloning now
// and then and mutating both sides after: enough entries that extents
// move to their column's end and columns compact many times over, which
// FuzzStoreOps' eight users never reach. Each side must save what its
// reference saves, and every viewer's grantors must match.
func TestStoreAgreesWithReferenceAtScale(t *testing.T) {
	const users, ops = 300, 30000
	rng := rand.New(rand.NewSource(5))
	roles := []Role{"a", "b", "c", "d", "e", "f"}
	space := Region{MaxX: 100, MaxY: 100}
	s, err := NewStore(space, 24)
	if err != nil {
		t.Fatal(err)
	}
	sides := []storePair{{s: s, ref: newRefStore(space, 24)}}
	check := func(when string) {
		for i, p := range sides {
			if got, want := saveBytes(t, p.s), refSaved(t, p.ref); !bytes.Equal(got, want) {
				t.Fatalf("%s: side %d saves %d bytes unlike its reference's %d", when, i, len(got), len(want))
			}
			for v := UserID(0); v < users; v++ {
				if g, want := p.s.Grantors(v), p.ref.Grantors(v); !slices.Equal(g, want) {
					t.Fatalf("%s: side %d: Grantors(%d) = %v, reference %v", when, i, v, g, want)
				}
			}
		}
	}
	for op := 1; op <= ops; op++ {
		p := &sides[rng.Intn(len(sides))]
		owner, peer := UserID(rng.Intn(users)), UserID(rng.Intn(users))
		role := roles[rng.Intn(len(roles))]
		if rng.Intn(3) > 0 {
			p.s.SetRelation(owner, peer, role)
			p.ref.SetRelation(owner, peer, role)
		} else {
			x := float64(rng.Intn(50))
			pol := Policy{Role: role, Locr: Region{x, x, x + 50, x + 50}, Tint: fuzzTints[rng.Intn(len(fuzzTints))]}
			if err := p.s.AddPolicy(owner, pol); err != nil {
				t.Fatal(err)
			}
			if err := p.ref.AddPolicy(owner, pol); err != nil {
				t.Fatal(err)
			}
		}
		if op%5000 == 0 {
			check(fmt.Sprintf("after %d ops", op))
			c := storePair{s: p.s.Clone(), ref: p.ref.clone()}
			if len(sides) < 3 {
				sides = append(sides, c)
			} else {
				sides[rng.Intn(len(sides))] = c
			}
		}
	}
	check("at the end")
}

func saveBytes(t *testing.T, s *Store) []byte {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
