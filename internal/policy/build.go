package policy

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Bulk building. A store built one SetRelation and AddPolicy at a time pays
// a slot lookup, a role search and a sorted insert per call, and grows its
// slices by copying. The bulk builder takes whole owners instead — each
// owner's role table, rules grouped by role and relations by peer, at their
// final lengths — and derives the rest: the slots, the policy count and
// every viewer's grantor list, counted in one pass and filled in a second.
// Load feeds it from a policies file, Bulk from an op list for an empty
// store.

// adopt makes the empty store s hold owners: whole owners' shares of a
// store, ascending by id, without grantors. The owners take the first slots
// in order, every peer that owns nothing a slot after them.
func (s *Store) adopt(owners []userPolicies) {
	s.slot = make(map[UserID]int32, len(owners))
	rels := 0
	for i := range owners {
		s.slot[owners[i].id] = int32(i)
		s.numPolicies += len(owners[i].rules)
		rels += len(owners[i].rels)
	}
	// Pass 1: give every peer a slot and count each viewer's grantors.
	// granted is the viewer slot of every granting relation, in walk order.
	count := make([]int32, len(owners))
	granted := make([]int32, 0, rels)
	var peers []UserID
	for i := range owners {
		o := &owners[i]
		for _, rel := range o.rels {
			j, ok := s.slot[rel.peer]
			if !ok {
				j = int32(len(count))
				s.slot[rel.peer] = j
				count = append(count, 0)
				peers = append(peers, rel.peer)
			}
			if rr := o.roles[rel.role]; rr.start < rr.end {
				count[j]++
				granted = append(granted, j)
			}
		}
	}
	n := len(owners)
	for _, p := range peers {
		owners = append(owners, userPolicies{id: p})
	}
	// Pass 2: carve every list from one array at its final length and fill
	// it in owner order, so each comes out ascending.
	all := make([]UserID, len(granted))
	at := 0
	for j, c := range count {
		if c > 0 {
			owners[j].grantors = all[at:at:(at + int(c))]
			at += int(c)
		}
	}
	k := 0
	for i := range owners[:n] {
		o := &owners[i]
		for _, rel := range o.rels {
			if rr := o.roles[rel.role]; rr.start < rr.end {
				g := &owners[granted[k]].grantors
				*g = append(*g, o.id)
				k++
			}
		}
	}
	s.users = owners
}

// Empty reports whether the store holds nothing: no relation, no policy.
func (s *Store) Empty() bool { return len(s.users) == 0 }

// Bulk collects relation and policy operations for one application to an
// empty store. ApplyTo leaves the store as applying them one at a time, in
// the order collected, would — the same relations, the same rules in the
// same order under each role, the same grantors — but builds each owner
// whole.
type Bulk struct {
	rels []bulkRel
	pols []bulkPol
}

type bulkRel struct {
	owner, peer UserID
	role        Role
}

type bulkPol struct {
	owner UserID
	p     Policy
}

// NewBulk returns an empty Bulk with room for the given numbers of
// relations and policies.
func NewBulk(relations, policies int) *Bulk {
	return &Bulk{rels: make([]bulkRel, 0, relations), pols: make([]bulkPol, 0, policies)}
}

// SetRelation collects Store.SetRelation(owner, peer, role).
func (b *Bulk) SetRelation(owner, peer UserID, role Role) {
	b.rels = append(b.rels, bulkRel{owner, peer, role})
}

// AddPolicy collects Store.AddPolicy(owner, p).
func (b *Bulk) AddPolicy(owner UserID, p Policy) {
	b.pols = append(b.pols, bulkPol{owner, p})
}

// ApplyTo applies the collected operations to s, which must be Empty. It
// refuses an invalid region, as AddPolicy does, before s is touched. It
// sorts the collected operations in place, stably, which changes nothing
// they mean.
func (b *Bulk) ApplyTo(s *Store) error {
	if !s.Empty() {
		return errors.New("policy: bulk apply to a store that is not empty")
	}
	for i := range b.pols {
		if p := &b.pols[i].p; !p.Locr.Valid() {
			return fmt.Errorf("policy: invalid locr %v", p.Locr)
		}
	}
	// Stable sorts keep the order that matters: the last role set for a
	// pair wins, and a role's rules stay in insertion order. A load sorted
	// by owner, as most are, skips the sorts of the whole list.
	byPeer := func(x, y bulkRel) int {
		return cmp.Or(cmp.Compare(x.owner, y.owner), cmp.Compare(x.peer, y.peer))
	}
	if !slices.IsSortedFunc(b.rels, byPeer) {
		slices.SortStableFunc(b.rels, byPeer)
	}
	byOwner := func(x, y bulkPol) int { return cmp.Compare(x.owner, y.owner) }
	if !slices.IsSortedFunc(b.pols, byOwner) {
		slices.SortStableFunc(b.pols, byOwner)
	}

	// One array each for every owner's rules and relations; an owner's
	// share is carved from it at its final length.
	rules := make([]rule, 0, len(b.pols))
	rels := make([]relation, 0, len(b.rels))
	var owners []userPolicies
	var names []Role
	for ri, pi := 0, 0; ri < len(b.rels) || pi < len(b.pols); {
		var id UserID
		switch {
		case pi == len(b.pols):
			id = b.rels[ri].owner
		case ri == len(b.rels):
			id = b.pols[pi].owner
		default:
			id = min(b.rels[ri].owner, b.pols[pi].owner)
		}
		re, pe := ri, pi
		for re < len(b.rels) && b.rels[re].owner == id {
			re++
		}
		for pe < len(b.pols) && b.pols[pe].owner == id {
			pe++
		}
		ownRels, ownPols := b.rels[ri:re], b.pols[pi:pe]
		ri, pi = re, pe
		slices.SortStableFunc(ownPols, func(x, y bulkPol) int { return cmp.Compare(x.p.Role, y.p.Role) })

		// The role table: every role the owner's operations name, even one
		// a later relation replaced, as SetRelation leaves it.
		names = names[:0]
		for i := range ownRels {
			names = append(names, ownRels[i].role)
		}
		for i := range ownPols {
			names = append(names, ownPols[i].p.Role)
		}
		slices.Sort(names)
		names = slices.Compact(names)
		u := userPolicies{id: id, roles: make([]roleRange, len(names))}
		base, k := len(rules), 0
		for x, name := range names {
			first := len(rules)
			for ; k < len(ownPols) && ownPols[k].p.Role == name; k++ {
				add := rule{Locr: ownPols[k].p.Locr, Tint: ownPols[k].p.Tint}
				if !slices.Contains(rules[first:], add) {
					rules = append(rules, add)
				}
			}
			u.roles[x] = roleRange{name: name, start: int32(first - base), end: int32(len(rules) - base)}
		}
		u.rules = rules[base:len(rules):len(rules)]

		base = len(rels)
		for i := range ownRels {
			if i+1 < len(ownRels) && ownRels[i+1].peer == ownRels[i].peer {
				continue // a later relation to the same peer replaces it
			}
			r, _ := slices.BinarySearchFunc(u.roles, ownRels[i].role, func(rr roleRange, name Role) int {
				return cmp.Compare(rr.name, name)
			})
			rels = append(rels, relation{peer: ownRels[i].peer, role: int32(r)})
		}
		u.rels = rels[base:len(rels):len(rels)]
		owners = append(owners, u)
	}
	s.adopt(owners)
	return nil
}
