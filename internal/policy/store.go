package policy

import (
	"cmp"
	"fmt"
	"math/bits"
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
// Layout: every user the store names has a dense slot, found through a hash
// index over ids. Each fact is stored once, in one of four columns — flat
// arrays that hold every user's entries of one kind:
//
//   - roles: each owner's role table, ascending by name. An entry is a name
//     id into the store's one interned name table and the range of the
//     owner's rules that carries the role's policies. The ranges are
//     consecutive, so an owner's rules are grouped by role in the table's
//     order. A role stays in the table once named, with or without policies.
//   - rules: each owner's policies without their role, in insertion order
//     within a role (48 B each, the store's floor).
//   - rels: each owner's relations, ascending by peer, each an index into
//     the owner's role table.
//   - grantors: for each viewer, the owners with a policy applicable to it,
//     ascending: o is here iff o has a relation to the viewer whose role
//     carries at least one policy.
//
// A slot's extent in each column locates its entries, and every index
// inside them (a role's rules, a relation's role) is relative to the
// extents, so a slot's entries move as a block. No column, extent array or
// index holds a pointer: the collector does not scan them, and Clone, Load
// and Bulk each build them in a few bulk allocations and copies. A read is
// one hash probe and a binary search over the owner's few dozen relations.
//
// A mutation writes in place while its extent has room. Otherwise the
// extent extends at the column's end if it sits there, or moves to the end
// with a quarter's slack, leaving its old entries dead. A column with no
// capacity left for that is compacted into a new array — every extent exact,
// in slot order, the growing one last — with a quarter's headroom, so dead
// entries never outgrow that headroom. A Grant is amortized O(1) beyond the
// memmove within its owner's and viewer's entries.
//
// Grantors hands out the stored entries themselves. They are read-only, and
// valid until the store's next mutation.
type Store struct {
	space  Region
	dayLen float64

	ids   []UserID  // slot → user
	index hashIndex // user → slot, over ids
	names nameTable

	roles    column[roleRange]
	rules    column[rule]
	rels     column[relation]
	grantors column[UserID]

	numPolicies int
}

// roleRange names a role, by its id in the name table, and the owner's
// rules [start, end) that carry its policies.
type roleRange struct {
	name       int32
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
	return &Store{space: space, dayLen: dayLen}, nil
}

// Clone returns an independent deep copy of the store. peb.DB uses it for
// copy-on-write policy updates: while a pinned snapshot references a store,
// mutations go to a clone that is swapped in atomically, so the snapshot
// keeps evaluating the policies that were in force when it was taken.
// Policies change rarely (the paper's premise), so paying O(store) per
// policy mutation to keep snapshot reads lock-free is the right trade. The
// copy is one copy of each column, extent array and index; the interned
// names, which no store rewrites, are shared.
func (s *Store) Clone() *Store {
	c := *s
	c.ids = slices.Clone(s.ids)
	c.index = s.index.clone()
	c.names = s.names.clone()
	c.roles, c.rules, c.rels, c.grantors = s.roles.clone(), s.rules.clone(), s.rels.clone(), s.grantors.clone()
	return &c
}

// Space returns the space domain used for normalization.
func (s *Store) Space() Region { return s.space }

// DayLength returns the time domain length used for normalization.
func (s *Store) DayLength() float64 { return s.dayLen }

// NumPolicies returns the total number of stored policies.
func (s *Store) NumPolicies() int { return s.numPolicies }

// Empty reports whether the store holds nothing: no relation, no policy.
func (s *Store) Empty() bool { return len(s.ids) == 0 }

// AppendUsers appends to dst every user the store names — each owner of a
// relation or a policy, and each peer of a relation — in slot order.
func (s *Store) AppendUsers(dst []UserID) []UserID {
	return append(dst, s.ids...)
}

// SetRelation records that owner considers peer to hold role.
func (s *Store) SetRelation(owner, peer UserID, role Role) {
	oi, pi := s.slotFor(owner), s.slotFor(peer)
	r := s.roleIndex(oi, role)
	if i, ok := relIndex(s.rels.of(oi), peer); ok {
		s.rels.of(oi)[i].role = r
	} else {
		s.rels.insert(oi, i, relation{peer: peer, role: r})
	}
	// Peer's grantor entry follows the new role: a role without policies
	// grants nothing, whatever the old one did.
	if rr := s.roles.of(oi)[r]; rr.start < rr.end {
		s.addGrantor(pi, owner)
	} else {
		s.dropGrantor(pi, owner)
	}
}

// Relation returns the role owner assigns to peer, if any.
func (s *Store) Relation(owner, peer UserID) (Role, bool) {
	o, r, ok := s.relationOf(owner, peer)
	if !ok {
		return "", false
	}
	return s.roleName(s.roles.of(o)[r]), true
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
	o := s.slotFor(owner)
	r := s.roleIndex(o, p.Role)
	add := rule{Locr: p.Locr, Tint: p.Tint}
	rr := s.roles.of(o)[r]
	if slices.Contains(s.rules.of(o)[rr.start:rr.end], add) {
		return nil
	}
	s.rules.insert(o, int(rr.end), add)
	roles := s.roles.of(o)
	roles[r].end++
	for j := r + 1; j < int32(len(roles)); j++ {
		roles[j].start++
		roles[j].end++
	}
	s.numPolicies++
	if rr.start == rr.end {
		// The role's first policy activates the owner's relations with it.
		for _, rel := range s.rels.of(o) {
			if rel.role == r {
				v, _ := s.index.slotOf(s.ids, rel.peer)
				s.addGrantor(v, owner)
			}
		}
	}
	return nil
}

// PolicyFor returns owner's policy applicable to viewer: the first policy
// whose role matches the owner→viewer relation. This is P_owner→viewer in
// the paper's notation.
func (s *Store) PolicyFor(owner, viewer UserID) (Policy, bool) {
	o, r, ok := s.relationOf(owner, viewer)
	if !ok {
		return Policy{}, false
	}
	rr := s.roles.of(o)[r]
	if rr.start == rr.end {
		return Policy{}, false
	}
	return s.policy(rr, s.rules.of(o)[rr.start]), true
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
	if i, ok := s.index.slotOf(s.ids, viewer); ok {
		return s.grantors.of(i)
	}
	return nil
}

// HasGrantor reports whether owner has a policy applicable to viewer.
func (s *Store) HasGrantor(viewer, owner UserID) bool {
	_, found := slices.BinarySearch(s.Grantors(viewer), owner)
	return found
}

// ForEachGrant calls fn for every (owner, viewer) pair connected by a
// relation with at least one policy, passing the policy PolicyFor would
// return. Iteration order is unspecified; fn returning false stops early.
func (s *Store) ForEachGrant(fn func(owner, viewer UserID, p Policy) bool) {
	for i, id := range s.ids {
		roles, rules := s.roles.of(int32(i)), s.rules.of(int32(i))
		for _, rel := range s.rels.of(int32(i)) {
			rr := roles[rel.role]
			if rr.start == rr.end {
				continue
			}
			if !fn(id, rel.peer, s.policy(rr, rules[rr.start])) {
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
	for i, v := range s.ids {
		for _, o := range s.grantors.of(int32(i)) {
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
	i, ok := s.index.slotOf(s.ids, u)
	if !ok {
		i = int32(len(s.ids))
		s.ids = append(s.ids, u)
		s.index.add(hashID(u), i, func(h int32) uint32 { return hashID(s.ids[h]) })
		s.roles.addSlot()
		s.rules.addSlot()
		s.rels.addSlot()
		s.grantors.addSlot()
	}
	return i
}

// relationOf returns owner's slot and the role-table index of its relation
// to peer, if there is one.
func (s *Store) relationOf(owner, peer UserID) (int32, int32, bool) {
	o, ok := s.index.slotOf(s.ids, owner)
	if !ok {
		return 0, 0, false
	}
	rels := s.rels.of(o)
	j, ok := relIndex(rels, peer)
	if !ok {
		return 0, 0, false
	}
	return o, rels[j].role, true
}

// rulesFor returns every policy of owner whose role matches the
// owner→viewer relation, without the role.
func (s *Store) rulesFor(owner, viewer UserID) []rule {
	o, ok := s.index.slotOf(s.ids, owner)
	if !ok {
		return nil
	}
	return s.rulesTo(o, viewer)
}

// rulesTo returns slot o's rules for the role of its relation to peer:
// empty when there is no relation, or its role carries no policy.
func (s *Store) rulesTo(o int32, peer UserID) []rule {
	rels := s.rels.of(o)
	j, ok := relIndex(rels, peer)
	if !ok {
		return nil
	}
	rr := s.roles.of(o)[rels[j].role]
	return s.rules.of(o)[rr.start:rr.end]
}

// relIndex returns the position of peer's relation in rels, or where it
// would be inserted, and whether it is there.
func relIndex(rels []relation, peer UserID) (int, bool) {
	lo, hi := 0, len(rels)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rels[m].peer < peer {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(rels) && rels[lo].peer == peer
}

// roleIndex returns role's index in slot o's role table, inserting it with
// an empty range at its place by name; relations to the roles after it are
// renumbered.
func (s *Store) roleIndex(o int32, role Role) int32 {
	roles := s.roles.of(o)
	j, ok := slices.BinarySearchFunc(roles, role, func(rr roleRange, name Role) int {
		return cmp.Compare(s.roleName(rr), name)
	})
	if ok {
		return int32(j)
	}
	at := int32(len(s.rules.of(o)))
	if j < len(roles) {
		at = roles[j].start
	}
	s.roles.insert(o, j, roleRange{name: s.names.intern(role), start: at, end: at})
	rels := s.rels.of(o)
	for k := range rels {
		if rels[k].role >= int32(j) {
			rels[k].role++
		}
	}
	return int32(j)
}

func (s *Store) addGrantor(v int32, owner UserID) {
	if i, ok := slices.BinarySearch(s.grantors.of(v), owner); !ok {
		s.grantors.insert(v, i, owner)
	}
}

func (s *Store) dropGrantor(v int32, owner UserID) {
	if i, ok := slices.BinarySearch(s.grantors.of(v), owner); ok {
		s.grantors.remove(v, i)
	}
}

// policy reassembles the policy p of role rr.
func (s *Store) policy(rr roleRange, p rule) Policy {
	return Policy{Role: s.roleName(rr), Locr: p.Locr, Tint: p.Tint}
}

func (s *Store) roleName(rr roleRange) Role { return s.names.names[rr.name] }

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
	for i, id := range s.ids {
		j, ok := t.index.slotOf(t.ids, id)
		if !ok {
			j = -1
		}
		if !sameShare(s, int32(i), t, j) {
			return false
		}
	}
	for j, id := range t.ids {
		if _, ok := s.index.slotOf(s.ids, id); !ok && !sameShare(t, int32(j), s, -1) {
			return false
		}
	}
	return true
}

// share is one slot's entries in the four columns; slot -1 has none.
type share struct {
	roles    []roleRange
	rules    []rule
	rels     []relation
	grantors []UserID
}

func (s *Store) share(i int32) share {
	if i < 0 {
		return share{}
	}
	return share{s.roles.of(i), s.rules.of(i), s.rels.of(i), s.grantors.of(i)}
}

// sameShare compares slot i of s with slot j of t, role by role name.
func sameShare(s *Store, i int32, t *Store, j int32) bool {
	u, v := s.share(i), t.share(j)
	if !slices.Equal(u.grantors, v.grantors) || len(u.rels) != len(v.rels) {
		return false
	}
	for k, rel := range u.rels {
		if rel.peer != v.rels[k].peer || s.roleName(u.roles[rel.role]) != t.roleName(v.roles[v.rels[k].role]) {
			return false
		}
	}
	for a, b := nextPolicyRole(u.roles, 0), nextPolicyRole(v.roles, 0); ; a, b = nextPolicyRole(u.roles, a+1), nextPolicyRole(v.roles, b+1) {
		if a == len(u.roles) || b == len(v.roles) {
			return a == len(u.roles) && b == len(v.roles)
		}
		x, y := u.roles[a], v.roles[b]
		if s.roleName(x) != t.roleName(y) || !slices.Equal(u.rules[x.start:x.end], v.rules[y.start:y.end]) {
			return false
		}
	}
}

// nextPolicyRole returns the index of the first role from i on that
// carries a policy, or len(roles) when none does.
func nextPolicyRole(roles []roleRange, i int) int {
	for i < len(roles) && roles[i].start == roles[i].end {
		i++
	}
	return i
}

// extent is a slot's entries in one column: [start, end), with room to
// grow in place up to limit.
type extent struct{ start, end, limit int32 }

// column is one of the store's four arrays: every slot's entries of one
// kind, at the slot's extent. Past the extents, all holds slack and dead
// entries; live counts the entries the extents hold.
type column[T any] struct {
	all  []T
	ext  []extent // by slot
	live int
}

// of returns slot i's entries, clipped so that no append reaches another's.
func (c *column[T]) of(i int32) []T {
	e := c.ext[i]
	return c.all[e.start:e.end:e.end]
}

func (c *column[T]) addSlot() { c.ext = append(c.ext, extent{}) }

func (c *column[T]) clone() column[T] {
	return column[T]{all: slices.Clone(c.all), ext: slices.Clone(c.ext), live: c.live}
}

// endSlot gives the next slot, exactly, the entries appended since start.
func (c *column[T]) endSlot(start int) {
	end := int32(len(c.all))
	c.ext = append(c.ext, extent{int32(start), end, end})
}

// insert puts v at index at of slot i's entries.
func (c *column[T]) insert(i int32, at int, v T) {
	if e := c.ext[i]; e.end == e.limit {
		c.grow(i)
	}
	e := &c.ext[i]
	s := c.all[e.start : e.end+1]
	copy(s[at+1:], s[at:])
	s[at] = v
	e.end++
	c.live++
}

// remove deletes the entry at index at of slot i's entries.
func (c *column[T]) remove(i int32, at int) {
	e := &c.ext[i]
	s := c.all[e.start:e.end]
	copy(s[at:], s[at+1:])
	e.end--
	c.live--
}

// grow gives slot i's extent room for a quarter more entries, and one at
// least: in place when it ends the column, else by a move to the column's
// end, after compacting the column when it lacks the capacity.
func (c *column[T]) grow(i int32) {
	e := &c.ext[i]
	n := e.end - e.start
	room := n + n/4 + 1
	switch {
	case int(e.limit) == len(c.all) && int(e.start+room) <= cap(c.all):
		c.all = c.all[:e.start+room]
		e.limit = e.start + room
	case len(c.all)+int(room) <= cap(c.all):
		start := int32(len(c.all))
		c.all = append(c.all, c.all[e.start:e.end]...)
		c.all = c.all[:start+room]
		*e = extent{start, start + n, start + room}
	default:
		c.compact(i, room)
	}
}

// compact copies every slot's entries into a new array, exact and in slot
// order, but slot i's last, with room for grow entries; the array keeps a
// quarter's headroom beyond that.
func (c *column[T]) compact(i int32, room int32) {
	size := c.live - int(c.ext[i].end-c.ext[i].start) + int(room)
	all := make([]T, 0, size+size/4)
	for j := range c.ext {
		if e := &c.ext[j]; int32(j) != i {
			start := int32(len(all))
			all = append(all, c.all[e.start:e.end]...)
			*e = extent{start, int32(len(all)), int32(len(all))}
		}
	}
	e := &c.ext[i]
	start := int32(len(all))
	all = append(all, c.all[e.start:e.end]...)
	*e = extent{start, int32(len(all)), start + room}
	c.all = all[:start+room]
}

// hashIndex maps keys to the dense handles 0, 1, … that index the caller's
// array of them (the store's ids, the name table's names). It is an
// open-addressing table, a power of two in size and at most half full,
// whose cells hold handle+1, 0 marking an empty cell; a key's search starts
// at the top bits of its 32-bit hash and probes linearly.
type hashIndex struct {
	cells []int32
	shift uint8 // 32 - log2(len(cells))
}

func (x *hashIndex) clone() hashIndex {
	return hashIndex{cells: slices.Clone(x.cells), shift: x.shift}
}

// reserve sizes the table for n handles; hashOf rehashes the ones it holds.
func (x *hashIndex) reserve(n int, hashOf func(int32) uint32) {
	if 2*n <= len(x.cells) {
		return
	}
	size := max(16, 1<<bits.Len(uint(2*n-1)))
	old := x.cells
	x.cells = make([]int32, size)
	x.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	for _, h := range old {
		if h != 0 {
			x.put(hashOf(h-1), h-1)
		}
	}
}

// add records the next handle, whose key hashes to h; hashOf rehashes the
// handles before it if the table must grow.
func (x *hashIndex) add(h uint32, handle int32, hashOf func(int32) uint32) {
	x.reserve(int(handle)+1, hashOf)
	x.put(h, handle)
}

func (x *hashIndex) put(h uint32, handle int32) {
	mask := len(x.cells) - 1
	c := int(h >> x.shift)
	for x.cells[c] != 0 {
		c = (c + 1) & mask
	}
	x.cells[c] = handle + 1
}

// find returns the handle match accepts among those whose keys hash to h.
func (x *hashIndex) find(h uint32, match func(int32) bool) (int32, bool) {
	if len(x.cells) == 0 {
		return 0, false
	}
	mask := len(x.cells) - 1
	for c := int(h >> x.shift); ; c = (c + 1) & mask {
		k := x.cells[c] - 1
		if k < 0 {
			return 0, false
		}
		if match(k) {
			return k, true
		}
	}
}

// slotOf returns the handle of user u, whose slots ids lists: find for the
// store's reads, written out so that no call through a func value is made.
func (x *hashIndex) slotOf(ids []UserID, u UserID) (int32, bool) {
	if len(x.cells) == 0 {
		return 0, false
	}
	mask := len(x.cells) - 1
	for c := int(hashID(u) >> x.shift); ; c = (c + 1) & mask {
		k := x.cells[c] - 1
		if k < 0 {
			return 0, false
		}
		if ids[k] == u {
			return k, true
		}
	}
}

// hashID spreads sequential ids over the top bits (Fibonacci hashing).
func hashID(u UserID) uint32 { return uint32(u) * 0x9E3779B9 }

// hashName is FNV-1a, over a name or the bytes of one.
func hashName[S ~string | ~[]byte](s S) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// nameTable interns role names: ids are dense from 0, in first-seen order.
// Names are never rewritten, so clones share them; each store appends its
// new ones past the length it was cloned at.
type nameTable struct {
	names []Role
	index hashIndex
}

func (t *nameTable) clone() nameTable {
	return nameTable{names: slices.Clip(t.names), index: t.index.clone()}
}

// intern returns name's id, adding it to the table if it is new.
func (t *nameTable) intern(name Role) int32 {
	h := hashName(name)
	if id, ok := t.index.find(h, func(k int32) bool { return t.names[k] == name }); ok {
		return id
	}
	id := int32(len(t.names))
	t.names = append(t.names, name)
	t.index.add(h, id, func(k int32) uint32 { return hashName(t.names[k]) })
	return id
}
