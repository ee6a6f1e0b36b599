package policy

import (
	"cmp"
	"fmt"
	"slices"
)

// This file implements the engine's policy encoding: Sec. 5.1's goal —
// friends get nearby sequence values, so that a query's friends share
// leaves — reached through the groups of the compatibility graph. Weighted
// label propagation (Raghavan, Albert & Kumara, Phys. Rev. E 76, 2007)
// finds the communities; each community gets one contiguous band of
// sequence values, bands δ apart, and inside a band the members follow
// Fig. 5's order over the band's own edges. Only the order of the values
// reaches the key: an empty stretch of the key space costs no page.

const (
	// propagationRounds caps label propagation; on the generator's graphs
	// it settles well before.
	propagationRounds = 30
	// bandGap is δ between bands, in steps (Fig. 5's default δ = 2).
	bandGap = 2
	// freshShare: the top 1/freshShare of the field is left to the users
	// added after an encoding (at δ = 2 whole units each, 65 536 of them in
	// the default 26-bit field).
	freshShare = 8
)

// AssignCommunities assigns every user one sequence value, band by band,
// community by community. The result depends on the relation graph and
// the set of users, not on the order of users (duplicates are ignored). It
// exploits no order of the ids: nodes are visited in the order of a hash
// of the id, so relabelling the users may change which ties fall which
// way, but consecutive ids mean nothing to it.
//
// The values are multiples of one step, the largest power of two from 1
// down to the field's resolution 2^-FracBits that keeps MaxSV below seven
// eighths of the field: the top eighth stays free for the users added
// after the encoding, which take whole values above MaxSV. When no step
// leaves that room, the coarsest step that fits is taken; when even the
// finest step leaves too few of the field's 2^Bits slots for the users
// and the gaps between their bands, it returns an error.
func AssignCommunities(s *Store, users []UserID, field SVCodec) (Assignment, error) {
	g, label := communities(s, users)

	// Bands in the order Fig. 5 reaches them; inside a band, Fig. 5's order.
	seq := make([]int32, 0, len(g.users))
	g.fig5(label, func(u, _ int32, _ float64) { seq = append(seq, u) })
	band := make([]int32, len(g.users)) // label → band number, from 1
	var bands int32
	for _, u := range seq {
		if band[label[u]] == 0 {
			bands++
			band[label[u]] = bands
		}
	}
	slices.SortStableFunc(seq, func(a, b int32) int { return cmp.Compare(band[label[a]], band[label[b]]) })

	// Positions in steps: the first value is δ, a band's members are one
	// step apart and consecutive bands δ.
	top := uint64(bandGap + len(seq) - 1 + (int(bands)-1)*(bandGap-1))
	shift, err := stepShift(top, field)
	if err != nil {
		return Assignment{}, fmt.Errorf("policy: %d users in %d bands: %w", len(seq), bands, err)
	}
	step := 1 / float64(uint64(1)<<shift)
	out := Assignment{SV: make(map[UserID]float64, len(seq)), MaxSV: float64(top) * step, Groups: int(bands)}
	at := uint64(bandGap)
	for i, u := range seq {
		if i > 0 {
			at++
			if label[u] != label[seq[i-1]] {
				at += bandGap - 1
			}
		}
		out.SV[g.users[u]] = float64(at) * step
	}
	return out, nil
}

// stepShift returns the smallest k ≤ field.FracBits such that positions up
// to top, in steps of 2^-k, encode below seven eighths of the field's
// slots, or failing that below all of them.
func stepShift(top uint64, field SVCodec) (uint, error) {
	slots := uint64(1)<<min(field.Bits, 63) - 1 // the largest encoding
	for _, limit := range []uint64{slots - slots/freshShare, slots} {
		for k := 0; k <= field.FracBits; k++ {
			// Position p encodes as p · 2^(FracBits−k).
			if top <= limit>>(field.FracBits-k) {
				return uint(k), nil
			}
		}
	}
	return 0, fmt.Errorf("sequence values up to %d steps of 2^-%d overflow the %d-bit field",
		top, field.FracBits, field.Bits)
}

// communities builds the compatibility graph over the distinct users,
// numbered in the order of their hashed ids, and labels each node with its
// community.
func communities(s *Store, users []UserID) (*compatGraph, []int32) {
	nodes := slices.Clone(users)
	slices.SortFunc(nodes, func(a, b UserID) int { return cmp.Compare(mixID(a), mixID(b)) })
	g := newCompatGraph(s, slices.Compact(nodes), s.Compatibility)
	return g, g.propagate()
}

// propagate runs weighted label propagation and returns each node's label.
// Every node starts in a community of its own. A round visits the nodes in
// node order and moves each to the label its neighbours carry the most
// compatibility for: it keeps its own label when that ties for the most,
// and otherwise takes the smallest of the tied labels. It stops after a
// round that moves nothing, or after propagationRounds.
func (g *compatGraph) propagate() []int32 {
	label := make([]int32, len(g.users))
	for u := range label {
		label[u] = int32(u)
	}
	weight := make([]float64, len(g.users)) // by label, for the node in hand
	var near []int32                        // the labels weight holds
	for round := 0; round < propagationRounds; round++ {
		moved := false
		for u := range label {
			near = near[:0]
			for _, a := range g.row(int32(u)) {
				l := label[a.to]
				if weight[l] == 0 { // weights are positive
					near = append(near, l)
				}
				weight[l] += a.c
			}
			top := weight[label[u]]
			for _, l := range near {
				top = max(top, weight[l])
			}
			if weight[label[u]] < top {
				best := int32(len(label))
				for _, l := range near {
					if weight[l] == top {
						best = min(best, l)
					}
				}
				label[u], moved = best, true
			}
			for _, l := range near {
				weight[l] = 0
			}
		}
		if !moved {
			break
		}
	}
	return label
}

// mixID is the splitmix64 finalizer: a bijection on 64 bits, so distinct
// ids never tie, and one that scatters consecutive ids.
func mixID(u UserID) uint64 {
	z := uint64(u) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
