package policy

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// refStore is the reference model the differential tests hold Store to:
// the policy store as three nested maps, written for obviousness rather
// than footprint. relations[o][u] is the role owner o assigns to u;
// policies[o][r] are o's policies for role r in insertion order;
// grantors[u] holds every owner o for which PolicyFor(o, u) exists.
type refStore struct {
	space       Region
	dayLen      float64
	relations   map[UserID]map[UserID]Role
	policies    map[UserID]map[Role][]Policy
	grantors    map[UserID]map[UserID]bool
	numPolicies int
}

func newRefStore(space Region, dayLen float64) *refStore {
	return &refStore{
		space:     space,
		dayLen:    dayLen,
		relations: make(map[UserID]map[UserID]Role),
		policies:  make(map[UserID]map[Role][]Policy),
		grantors:  make(map[UserID]map[UserID]bool),
	}
}

func (s *refStore) clone() *refStore {
	c := newRefStore(s.space, s.dayLen)
	c.numPolicies = s.numPolicies
	for owner, rel := range s.relations {
		m := make(map[UserID]Role, len(rel))
		for peer, role := range rel {
			m[peer] = role
		}
		c.relations[owner] = m
	}
	for owner, byRole := range s.policies {
		m := make(map[Role][]Policy, len(byRole))
		for role, ps := range byRole {
			m[role] = slices.Clone(ps)
		}
		c.policies[owner] = m
	}
	for viewer, owners := range s.grantors {
		m := make(map[UserID]bool, len(owners))
		for o := range owners {
			m[o] = true
		}
		c.grantors[viewer] = m
	}
	return c
}

func (s *refStore) SetRelation(owner, peer UserID, role Role) {
	m := s.relations[owner]
	if m == nil {
		m = make(map[UserID]Role)
		s.relations[owner] = m
	}
	m[peer] = role
	if len(s.policies[owner][role]) > 0 {
		s.addGrantor(peer, owner)
	} else {
		delete(s.grantors[peer], owner)
	}
}

func (s *refStore) AddPolicy(owner UserID, p Policy) error {
	if !p.Locr.Valid() {
		return fmt.Errorf("policy: invalid locr %v", p.Locr)
	}
	m := s.policies[owner]
	if m == nil {
		m = make(map[Role][]Policy)
		s.policies[owner] = m
	}
	for _, q := range m[p.Role] {
		if q == p {
			return nil
		}
	}
	m[p.Role] = append(m[p.Role], p)
	s.numPolicies++
	for peer, role := range s.relations[owner] {
		if role == p.Role {
			s.addGrantor(peer, owner)
		}
	}
	return nil
}

func (s *refStore) addGrantor(viewer, owner UserID) {
	m := s.grantors[viewer]
	if m == nil {
		m = make(map[UserID]bool)
		s.grantors[viewer] = m
	}
	m[owner] = true
}

func (s *refStore) PolicyFor(owner, viewer UserID) (Policy, bool) {
	role, ok := s.relations[owner][viewer]
	if !ok {
		return Policy{}, false
	}
	ps := s.policies[owner][role]
	if len(ps) == 0 {
		return Policy{}, false
	}
	return ps[0], true
}

func (s *refStore) Allows(owner, viewer UserID, x, y, tq float64) bool {
	role, ok := s.relations[owner][viewer]
	if !ok {
		return false
	}
	for _, p := range s.policies[owner][role] {
		if p.Locr.Contains(x, y) && p.Tint.Contains(tq, s.dayLen) {
			return true
		}
	}
	return false
}

func (s *refStore) Grantors(viewer UserID) []UserID {
	var out []UserID
	for o := range s.grantors[viewer] {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}

func (s *refStore) HasGrantor(viewer, owner UserID) bool { return s.grantors[viewer][owner] }

func (s *refStore) ForEachGrant(fn func(owner, viewer UserID, p Policy) bool) {
	for owner, peers := range s.relations {
		for viewer, role := range peers {
			ps := s.policies[owner][role]
			if len(ps) == 0 {
				continue
			}
			if !fn(owner, viewer, ps[0]) {
				return
			}
		}
	}
}

func (s *refStore) RelatedPairs(fn func(a, b UserID)) {
	seen := make(map[[2]UserID]bool)
	for viewer, owners := range s.grantors {
		for owner := range owners {
			a, b := min(owner, viewer), max(owner, viewer)
			if a == b || seen[[2]UserID{a, b}] {
				continue
			}
			seen[[2]UserID{a, b}] = true
			fn(a, b)
		}
	}
}

// Save writes the snapshot Store.Save must match byte for byte: relations
// by (owner, peer), policies by owner, then role, then insertion order.
func (s *refStore) Save(w io.Writer) error {
	snap := snapshot{Version: snapshotVersion, Space: s.space, DayLen: s.dayLen}
	for owner, peers := range s.relations {
		for peer, role := range peers {
			snap.Relations = append(snap.Relations, relationRec{Owner: owner, Peer: peer, Role: role})
		}
	}
	sort.Slice(snap.Relations, func(i, j int) bool {
		a, b := snap.Relations[i], snap.Relations[j]
		if a.Owner != b.Owner {
			return a.Owner < b.Owner
		}
		return a.Peer < b.Peer
	})
	for owner, byRole := range s.policies {
		roles := make([]Role, 0, len(byRole))
		for r := range byRole {
			roles = append(roles, r)
		}
		slices.Sort(roles)
		for _, r := range roles {
			for _, p := range byRole[r] {
				snap.Policies = append(snap.Policies, policyRec{Owner: owner, Policy: p})
			}
		}
	}
	sort.SliceStable(snap.Policies, func(i, j int) bool {
		return snap.Policies[i].Owner < snap.Policies[j].Owner
	})
	return writeSnapshot(w, snap)
}
