package policy

import (
	"fmt"
	"slices"
)

// Store holds all users' policies and role relations, playing the part of
// the server-side policy database the paper assumes ("the server has access
// to all users' privacy policies", Sec. 3).
//
// The store also maintains the reverse index the query algorithms need:
// for each viewer, the set of owners that have a policy applicable to that
// viewer (the paper's per-user list of Sec. 5.3, step 2).
type Store struct {
	space  Region
	dayLen float64

	// relations[o][u] is the role owner o assigns to user u.
	relations map[UserID]map[UserID]Role
	// policies[o][r] are owner o's policies for role r, in insertion order.
	policies map[UserID]map[Role][]Policy
	// grantors[u] is the set of owners o for which PolicyFor(o, u) exists.
	grantors map[UserID]map[UserID]bool

	numPolicies int
}

// NewStore creates a store for the given space domain and day length
// (the S and T normalizers of Sec. 5.1).
func NewStore(space Region, dayLen float64) (*Store, error) {
	if !space.Valid() || space.Area() <= 0 {
		return nil, fmt.Errorf("policy: invalid space %v", space)
	}
	if dayLen <= 0 {
		return nil, fmt.Errorf("policy: invalid day length %g", dayLen)
	}
	return &Store{
		space:     space,
		dayLen:    dayLen,
		relations: make(map[UserID]map[UserID]Role),
		policies:  make(map[UserID]map[Role][]Policy),
		grantors:  make(map[UserID]map[UserID]bool),
	}, nil
}

// Clone returns an independent deep copy of the store. peb.DB uses it for
// copy-on-write policy updates: while a pinned snapshot references a store,
// mutations go to a clone that is swapped in atomically, so the snapshot
// keeps evaluating the policies that were in force when it was taken.
// Policies change rarely (the paper's premise), so paying O(store) per
// policy mutation to keep snapshot reads lock-free is the right trade.
func (s *Store) Clone() *Store {
	c := &Store{
		space:       s.space,
		dayLen:      s.dayLen,
		relations:   make(map[UserID]map[UserID]Role, len(s.relations)),
		policies:    make(map[UserID]map[Role][]Policy, len(s.policies)),
		grantors:    make(map[UserID]map[UserID]bool, len(s.grantors)),
		numPolicies: s.numPolicies,
	}
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
			m[role] = append([]Policy(nil), ps...)
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

// Space returns the space domain used for normalization.
func (s *Store) Space() Region { return s.space }

// DayLength returns the time domain length used for normalization.
func (s *Store) DayLength() float64 { return s.dayLen }

// NumPolicies returns the total number of stored policies.
func (s *Store) NumPolicies() int { return s.numPolicies }

// SetRelation records that owner considers peer to hold role.
func (s *Store) SetRelation(owner, peer UserID, role Role) {
	m := s.relations[owner]
	if m == nil {
		m = make(map[UserID]Role)
		s.relations[owner] = m
	}
	m[peer] = role
	s.reindexPeer(owner, peer)
}

// Relation returns the role owner assigns to peer, if any.
func (s *Store) Relation(owner, peer UserID) (Role, bool) {
	r, ok := s.relations[owner][peer]
	return r, ok
}

// AddPolicy stores a policy for owner. Multiple policies per role are kept
// in insertion order; PolicyFor returns the first (the paper computes
// compatibility from one policy per pair and lists multiples as future
// work, Sec. 8). Re-adding a policy identical to one the owner already
// holds is a no-op: the duplicate would change no query answer, and the
// idempotence makes crash-recovery log replay safe to overlap with a
// checkpointed policy snapshot.
func (s *Store) AddPolicy(owner UserID, p Policy) error {
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
	// A new policy may activate existing relations of this owner.
	for peer, role := range s.relations[owner] {
		if role == p.Role {
			s.addGrantor(peer, owner)
		}
	}
	return nil
}

// PolicyFor returns owner's policy applicable to viewer: the first policy
// whose role matches the owner→viewer relation. This is P_owner→viewer in
// the paper's notation.
func (s *Store) PolicyFor(owner, viewer UserID) (Policy, bool) {
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

// Allows reports whether viewer may see owner's location when the owner is
// at (x, y) at time tq — the policy-evaluation predicate of Definitions 2
// and 3. All policies matching the relation's role are consulted.
func (s *Store) Allows(owner, viewer UserID, x, y, tq float64) bool {
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

// Grantors returns, sorted by id, the users that have a policy applicable
// to viewer — the candidate set Upol of Sec. 5.3 step 2 ("users who may
// allow the query issuer to see their locations").
func (s *Store) Grantors(viewer UserID) []UserID {
	m := s.grantors[viewer]
	out := make([]UserID, 0, len(m))
	for o := range m {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}

// HasGrantor reports whether owner has a policy applicable to viewer.
func (s *Store) HasGrantor(viewer, owner UserID) bool {
	return s.grantors[viewer][owner]
}

// ForEachGrant calls fn for every (owner, viewer) pair connected by a
// relation with at least one policy, passing the policy PolicyFor would
// return. Iteration order is unspecified; fn returning false stops early.
func (s *Store) ForEachGrant(fn func(owner, viewer UserID, p Policy) bool) {
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

// RelatedPairs calls fn once for every unordered user pair (a, b), a < b,
// connected by at least one policy in either direction. This is the edge
// set the sequence-value assignment groups users by.
func (s *Store) RelatedPairs(fn func(a, b UserID)) {
	seen := make(map[uint64]bool)
	emit := func(o, v UserID) {
		a, b := o, v
		if a > b {
			a, b = b, a
		}
		if a == b {
			return
		}
		key := uint64(a)<<32 | uint64(b)
		if seen[key] {
			return
		}
		seen[key] = true
		fn(a, b)
	}
	for viewer, owners := range s.grantors {
		for owner := range owners {
			emit(owner, viewer)
		}
	}
}

// reindexPeer refreshes the grantor index entry for (owner → peer) after a
// relation change.
func (s *Store) reindexPeer(owner, peer UserID) {
	role := s.relations[owner][peer]
	if len(s.policies[owner][role]) > 0 {
		s.addGrantor(peer, owner)
	}
}

func (s *Store) addGrantor(viewer, owner UserID) {
	m := s.grantors[viewer]
	if m == nil {
		m = make(map[UserID]bool)
		s.grantors[viewer] = m
	}
	m[owner] = true
}
