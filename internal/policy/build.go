package policy

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Bulk building. A store built one SetRelation and AddPolicy at a time pays
// a slot lookup, a role search and a sorted insert per call, and moves
// entries as extents grow. The bulk builders write whole owners instead —
// each owner's role table, rules grouped by role and relations by peer,
// appended to the columns at their final lengths — and adopt derives the
// rest: the slots of peers, the policy count and every viewer's grantors,
// counted in one pass and filled in a second. Load feeds it from a policies
// file, Bulk from an op list for an empty store.

// adopt completes a store whose owners a bulk builder wrote: ids lists the
// owners, ascending, and the roles, rules and rels columns hold exactly
// their entries in that order. adopt indexes the owners, gives every peer
// that owns nothing a slot after them, and fills the grantors column.
func (s *Store) adopt() {
	n := len(s.ids)
	hashOf := func(h int32) uint32 { return hashID(s.ids[h]) }
	s.index.reserve(n, hashOf)
	for i, id := range s.ids {
		s.index.add(hashID(id), int32(i), hashOf)
	}
	s.numPolicies = len(s.rules.all)
	s.roles.live, s.rules.live, s.rels.live = len(s.roles.all), len(s.rules.all), len(s.rels.all)
	s.grantors.ext = make([]extent, n)
	// Pass 1: give every peer a slot and count each viewer's grantors.
	// granted is the viewer slot of every granting relation, in walk order.
	granted := make([]int32, 0, len(s.rels.all))
	for i := range int32(n) {
		roles := s.roles.of(i)
		for _, rel := range s.rels.of(i) {
			j := s.slotFor(rel.peer)
			if rr := roles[rel.role]; rr.start < rr.end {
				s.grantors.ext[j].limit++
				granted = append(granted, j)
			}
		}
	}
	// Pass 2: carve every list from one array at its final length and fill
	// it in owner order, so each comes out ascending.
	at := int32(0)
	for j := range s.grantors.ext {
		e := &s.grantors.ext[j]
		*e = extent{at, at, at + e.limit}
		at = e.limit
	}
	s.grantors.all, s.grantors.live = make([]UserID, len(granted)), len(granted)
	k := 0
	for i := range int32(n) {
		roles := s.roles.of(i)
		for _, rel := range s.rels.of(i) {
			if rr := roles[rel.role]; rr.start < rr.end {
				e := &s.grantors.ext[granted[k]]
				s.grantors.all[e.end] = s.ids[i]
				e.end++
				k++
			}
		}
	}
}

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

	// Each owner's entries go to the end of each column, at their final
	// lengths. The generators and peb's bulk loads name one role per
	// relation, so a role column sized by the relations is exact.
	s.roles.all = make([]roleRange, 0, len(b.rels))
	s.rules.all = make([]rule, 0, len(b.pols))
	s.rels.all = make([]relation, 0, len(b.rels))
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
		s.ids = append(s.ids, id)
		roleBase, ruleBase, k := len(s.roles.all), len(s.rules.all), 0
		for _, name := range names {
			first := len(s.rules.all)
			for ; k < len(ownPols) && ownPols[k].p.Role == name; k++ {
				add := rule{Locr: ownPols[k].p.Locr, Tint: ownPols[k].p.Tint}
				if !slices.Contains(s.rules.all[first:], add) {
					s.rules.all = append(s.rules.all, add)
				}
			}
			s.roles.all = append(s.roles.all, roleRange{
				name:  s.names.intern(name),
				start: int32(first - ruleBase),
				end:   int32(len(s.rules.all) - ruleBase),
			})
		}
		s.roles.endSlot(roleBase)
		s.rules.endSlot(ruleBase)

		relBase := len(s.rels.all)
		for i := range ownRels {
			if i+1 < len(ownRels) && ownRels[i+1].peer == ownRels[i].peer {
				continue // a later relation to the same peer replaces it
			}
			r, _ := slices.BinarySearch(names, ownRels[i].role)
			s.rels.all = append(s.rels.all, relation{peer: ownRels[i].peer, role: int32(r)})
		}
		s.rels.endSlot(relBase)
	}
	s.adopt()
	return nil
}
