package policy

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
)

// Store holds all users' policies and role relations, playing the part of
// the server-side policy database the paper assumes ("the server has access
// to all users' privacy policies", Sec. 3).
//
// The store also maintains the reverse index the query algorithms need:
// for each viewer, the set of owners that have a policy applicable to that
// viewer (the paper's per-user list of Sec. 5.3, step 2).
//
// Layout: one hash map gives every user a dense slot, and a slot holds the
// user's whole share of the store in four sorted slices (userPolicies):
// as an owner, its role table, its policies grouped by role and its
// relations sorted by peer; as a viewer, its grantors in ascending order.
// A read is one slot lookup and a binary search over the owner's few dozen
// relations; no role string is hashed, and Clone copies flat slices.
//
// Grantors hands out the stored slice itself. It is read-only, and valid
// until the store's next mutation.
type Store struct {
	space  Region
	dayLen float64

	// slot[u] indexes users; every owner and every peer of a relation has one.
	slot  map[UserID]int32
	users []userPolicies

	numPolicies int
}

// userPolicies is one user's share of the store.
type userPolicies struct {
	id UserID
	// roles is the owner's role table, ascending by name: each role string
	// once, with the range of rules that holds its policies. The ranges are
	// consecutive, so rules is grouped by role in the table's order. A role
	// stays in the table once named, with or without policies.
	roles []roleRange
	// rules are the owner's policies, in insertion order within a role.
	rules []rule
	// rels are the owner's relations, ascending by peer.
	rels []relation
	// grantors are the owners with a policy applicable to this user,
	// ascending: o is here iff o has a relation to this user whose role
	// carries at least one policy.
	grantors []UserID
}

// roleRange names a role and the rules [start, end) that carry its policies.
type roleRange struct {
	name       Role
	start, end int32
}

// rule is a policy without its role, which the role table holds once.
type rule struct {
	Locr Region
	Tint TimeInterval
}

// relation is an owner's relation to peer, as an index into its role table.
type relation struct {
	peer UserID
	role int32
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
	return &Store{space: space, dayLen: dayLen, slot: make(map[UserID]int32)}, nil
}

// Clone returns an independent deep copy of the store. peb.DB uses it for
// copy-on-write policy updates: while a pinned snapshot references a store,
// mutations go to a clone that is swapped in atomically, so the snapshot
// keeps evaluating the policies that were in force when it was taken.
// Policies change rarely (the paper's premise), so paying O(store) per
// policy mutation to keep snapshot reads lock-free is the right trade. The
// copy is the slot map plus every slot's slices at their length.
func (s *Store) Clone() *Store {
	c := &Store{
		space:       s.space,
		dayLen:      s.dayLen,
		slot:        maps.Clone(s.slot),
		users:       make([]userPolicies, len(s.users)),
		numPolicies: s.numPolicies,
	}
	for i, u := range s.users {
		c.users[i] = userPolicies{
			id:       u.id,
			roles:    slices.Clone(u.roles),
			rules:    slices.Clone(u.rules),
			rels:     slices.Clone(u.rels),
			grantors: slices.Clone(u.grantors),
		}
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
	oi, pi := s.slotFor(owner), s.slotFor(peer)
	o := &s.users[oi]
	r := o.roleIndex(role)
	if i, ok := o.relIndex(peer); ok {
		o.rels[i].role = r
	} else {
		o.rels = insertAt(o.rels, i, relation{peer: peer, role: r})
	}
	// Peer's grantor entry follows the new role: a role without policies
	// grants nothing, whatever the old one did.
	if o.roles[r].start < o.roles[r].end {
		s.users[pi].addGrantor(owner)
	} else {
		s.users[pi].dropGrantor(owner)
	}
}

// Relation returns the role owner assigns to peer, if any.
func (s *Store) Relation(owner, peer UserID) (Role, bool) {
	o, r := s.relationOf(owner, peer)
	if o == nil {
		return "", false
	}
	return o.roles[r].name, true
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
	o := &s.users[s.slotFor(owner)]
	r := o.roleIndex(p.Role)
	add := rule{Locr: p.Locr, Tint: p.Tint}
	rr := o.roles[r]
	if slices.Contains(o.rules[rr.start:rr.end], add) {
		return nil
	}
	o.rules = insertAt(o.rules, int(rr.end), add)
	o.roles[r].end++
	for j := r + 1; j < int32(len(o.roles)); j++ {
		o.roles[j].start++
		o.roles[j].end++
	}
	s.numPolicies++
	if rr.start == rr.end {
		// The role's first policy activates the owner's relations with it.
		for _, rel := range o.rels {
			if rel.role == r {
				s.users[s.slot[rel.peer]].addGrantor(owner)
			}
		}
	}
	return nil
}

// PolicyFor returns owner's policy applicable to viewer: the first policy
// whose role matches the owner→viewer relation. This is P_owner→viewer in
// the paper's notation.
func (s *Store) PolicyFor(owner, viewer UserID) (Policy, bool) {
	o, r := s.relationOf(owner, viewer)
	if o == nil {
		return Policy{}, false
	}
	rr := o.roles[r]
	if rr.start == rr.end {
		return Policy{}, false
	}
	return rr.policy(o.rules[rr.start]), true
}

// Allows reports whether viewer may see owner's location when the owner is
// at (x, y) at time tq — the policy-evaluation predicate of Definitions 2
// and 3. All policies matching the relation's role are consulted.
func (s *Store) Allows(owner, viewer UserID, x, y, tq float64) bool {
	for _, p := range s.rulesFor(owner, viewer) {
		if p.Locr.Contains(x, y) && p.Tint.Contains(tq, s.dayLen) {
			return true
		}
	}
	return false
}

// Grantors returns, sorted by id, the users that have a policy applicable
// to viewer — the candidate set Upol of Sec. 5.3 step 2 ("users who may
// allow the query issuer to see their locations"). The slice is the
// store's own: read-only, and valid until the store's next mutation.
func (s *Store) Grantors(viewer UserID) []UserID {
	if i, ok := s.slot[viewer]; ok {
		return s.users[i].grantors
	}
	return nil
}

// HasGrantor reports whether owner has a policy applicable to viewer.
func (s *Store) HasGrantor(viewer, owner UserID) bool {
	i, ok := s.slot[viewer]
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(s.users[i].grantors, owner)
	return found
}

// ForEachGrant calls fn for every (owner, viewer) pair connected by a
// relation with at least one policy, passing the policy PolicyFor would
// return. Iteration order is unspecified; fn returning false stops early.
func (s *Store) ForEachGrant(fn func(owner, viewer UserID, p Policy) bool) {
	for i := range s.users {
		o := &s.users[i]
		for _, rel := range o.rels {
			rr := o.roles[rel.role]
			if rr.start == rr.end {
				continue
			}
			if !fn(o.id, rel.peer, rr.policy(o.rules[rr.start])) {
				return
			}
		}
	}
}

// RelatedPairs calls fn once for every unordered user pair (a, b), a < b,
// connected by at least one policy in either direction. This is the edge
// set the sequence-value assignment groups users by. A pair granted both
// ways is reported from the larger id's grantor list only.
func (s *Store) RelatedPairs(fn func(a, b UserID)) {
	for i := range s.users {
		v := s.users[i].id
		for _, o := range s.users[i].grantors {
			switch {
			case o < v:
				fn(o, v)
			case o > v && !s.HasGrantor(o, v):
				fn(v, o)
			}
		}
	}
}

// slotFor returns u's slot, giving u one if it has none.
func (s *Store) slotFor(u UserID) int32 {
	i, ok := s.slot[u]
	if !ok {
		i = int32(len(s.users))
		s.slot[u] = i
		s.users = append(s.users, userPolicies{id: u})
	}
	return i
}

// relationOf returns owner's share of the store and the role-table index of
// its relation to peer, or nil when there is none.
func (s *Store) relationOf(owner, peer UserID) (*userPolicies, int32) {
	i, ok := s.slot[owner]
	if !ok {
		return nil, 0
	}
	o := &s.users[i]
	j, ok := o.relIndex(peer)
	if !ok {
		return nil, 0
	}
	return o, o.rels[j].role
}

// rulesFor returns every policy of owner whose role matches the
// owner→viewer relation, without the role.
func (s *Store) rulesFor(owner, viewer UserID) []rule {
	i, ok := s.slot[owner]
	if !ok {
		return nil
	}
	return s.users[i].rulesTo(viewer)
}

// rulesTo returns u's rules for the role of its relation to peer: empty
// when there is no relation, or its role carries no policy.
func (u *userPolicies) rulesTo(peer UserID) []rule {
	j, ok := u.relIndex(peer)
	if !ok {
		return nil
	}
	rr := u.roles[u.rels[j].role]
	return u.rules[rr.start:rr.end]
}

// relIndex returns the position of peer's relation in rels, or where it
// would be inserted, and whether it is there.
func (u *userPolicies) relIndex(peer UserID) (int, bool) {
	lo, hi := 0, len(u.rels)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if u.rels[m].peer < peer {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(u.rels) && u.rels[lo].peer == peer
}

// roleIndex returns role's index in the role table, inserting it with an
// empty range at its place by name; relations to the roles after it are
// renumbered.
func (u *userPolicies) roleIndex(role Role) int32 {
	j, ok := slices.BinarySearchFunc(u.roles, role, func(rr roleRange, name Role) int {
		return cmp.Compare(rr.name, name)
	})
	if ok {
		return int32(j)
	}
	at := int32(len(u.rules))
	if j < len(u.roles) {
		at = u.roles[j].start
	}
	u.roles = insertAt(u.roles, j, roleRange{name: role, start: at, end: at})
	for k := range u.rels {
		if u.rels[k].role >= int32(j) {
			u.rels[k].role++
		}
	}
	return int32(j)
}

func (u *userPolicies) addGrantor(owner UserID) {
	if i, ok := slices.BinarySearch(u.grantors, owner); !ok {
		u.grantors = insertAt(u.grantors, i, owner)
	}
}

func (u *userPolicies) dropGrantor(owner UserID) {
	if i, ok := slices.BinarySearch(u.grantors, owner); ok {
		u.grantors = slices.Delete(u.grantors, i, i+1)
	}
}

// policy reassembles the policy p of role rr.
func (rr roleRange) policy(p rule) Policy {
	return Policy{Role: rr.name, Locr: p.Locr, Tint: p.Tint}
}

// insertAt inserts v at index i of s. A slot's slices hold tens of entries
// and grow one call at a time, so they grow by a quarter, not by append's
// doubling: a store built by SetRelation and AddPolicy stays near the size
// of a bulk-built or cloned one, whose slices are exact.
func insertAt[T any](s []T, i int, v T) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), len(s)+len(s)/4+1)
		copy(grown, s)
		s = grown
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Equal reports whether s and t hold the same policy state: the same
// domain and, for every user, the same relations, the same policies under
// each role in insertion order, and the same grantors. It compares users by
// id, so the order slots were handed out in does not matter, and it ignores
// a role named in the table with neither a policy nor a relation, which no
// read can observe and a save/load round trip drops.
func (s *Store) Equal(t *Store) bool {
	if s.space != t.space || s.dayLen != t.dayLen || s.numPolicies != t.numPolicies {
		return false
	}
	var none userPolicies
	for i := range s.users {
		u, v := &s.users[i], &none
		if j, ok := t.slot[u.id]; ok {
			v = &t.users[j]
		}
		if !u.equal(v) {
			return false
		}
	}
	for i := range t.users {
		if _, ok := s.slot[t.users[i].id]; !ok && !t.users[i].equal(&none) {
			return false
		}
	}
	return true
}

// equal compares two users' shares of their stores, role by role name.
func (u *userPolicies) equal(v *userPolicies) bool {
	if !slices.Equal(u.grantors, v.grantors) || len(u.rels) != len(v.rels) {
		return false
	}
	for i, rel := range u.rels {
		if rel.peer != v.rels[i].peer || u.roles[rel.role].name != v.roles[v.rels[i].role].name {
			return false
		}
	}
	for i, j := u.nextPolicyRole(0), v.nextPolicyRole(0); ; i, j = u.nextPolicyRole(i+1), v.nextPolicyRole(j+1) {
		if i == len(u.roles) || j == len(v.roles) {
			return i == len(u.roles) && j == len(v.roles)
		}
		a, b := u.roles[i], v.roles[j]
		if a.name != b.name || !slices.Equal(u.rules[a.start:a.end], v.rules[b.start:b.end]) {
			return false
		}
	}
}

// nextPolicyRole returns the index of the first role from i on that
// carries a policy, or len(u.roles) when none does.
func (u *userPolicies) nextPolicyRole(i int) int {
	for i < len(u.roles) && u.roles[i].start == u.roles[i].end {
		i++
	}
	return i
}
