package policy

import (
	"cmp"
	"fmt"
	"slices"
)

// This file implements the sequence-value assignment algorithm of Fig. 5.
// Sequence values place policy-compatible users close together on the
// one-dimensional key axis: each "anchor" user starts a band δ above the
// previous user, and every related user sits inside the anchor's band at
// offset 1 − C(anchor, member), so high-compatibility pairs get the
// smallest key distance.

// AssignOptions tunes the assignment. The zero value selects the paper's
// defaults (initial value 2, δ = 2 — the worked example of Sec. 5.1).
type AssignOptions struct {
	// InitialSV is the sequence value of the first anchor (sv in Fig. 5,
	// "sv > 1"). Default 2.
	InitialSV float64
	// Delta is the inter-group spacing (δ > 1 in Fig. 5). Default 2.
	Delta float64
	// MultiPolicy selects the multi-policy compatibility degree
	// (CompatibilityMulti) instead of the paper's single-policy Eq. 4 —
	// the paper's first future-work extension (Sec. 8).
	MultiPolicy bool
}

func (o *AssignOptions) setDefaults() error {
	if o.InitialSV == 0 {
		o.InitialSV = 2
	}
	if o.Delta == 0 {
		o.Delta = 2
	}
	if o.InitialSV <= 1 {
		return fmt.Errorf("policy: initial sequence value %g must exceed 1", o.InitialSV)
	}
	if o.Delta <= 1 {
		return fmt.Errorf("policy: delta %g must exceed 1", o.Delta)
	}
	return nil
}

// Assignment is the result of the sequence-value computation.
type Assignment struct {
	// SV maps each user to its sequence value.
	SV map[UserID]float64
	// MaxSV is the largest assigned value (useful for key-width sizing).
	MaxSV float64
	// Groups is the number of distinct δ-bands: Fig. 5's anchor users, or
	// AssignCommunities' communities.
	Groups int
}

// AssignSequenceValues runs the Fig. 5 algorithm over all the given users
// using compatibilities from the store. Every user in users receives a
// value, including users with no policies at all (they become singleton
// anchors, matching the algorithm's "if SV(uk) = ⊥" path).
//
// Following Fig. 5 lines 1–5, each user's group G(ui) is the set of users
// with C(ui, uj) > 0; users are processed in descending order of |G| so
// larger social clusters claim compact bands first (ties broken by id for
// determinism).
func AssignSequenceValues(s *Store, users []UserID, opts AssignOptions) (Assignment, error) {
	if err := opts.setDefaults(); err != nil {
		return Assignment{}, err
	}
	nodes := slices.Clone(users)
	slices.Sort(nodes)
	g := newCompatGraph(s, slices.Compact(nodes), opts.MultiPolicy)

	// Fig. 5 line 9 spaces a new anchor δ above its list predecessor; we
	// space it δ above the previous *anchor* (as in the paper's worked
	// example, where SV(u1) = SV(u3) + δ). This keeps bands disjoint even
	// when the list predecessor is a low member of an earlier band.
	out := Assignment{SV: make(map[UserID]float64, len(g.users))}
	sv := opts.InitialSV - opts.Delta // so the first anchor gets InitialSV
	g.fig5(nil, func(u, anchor int32, c float64) {
		v := sv + (1 - c)
		if u == anchor {
			sv += opts.Delta
			v = sv
			out.Groups++
		}
		out.SV[g.users[u]] = v
		out.MaxSV = max(out.MaxSV, v)
	})
	return out, nil
}

// compatGraph is the compatibility graph of Sec. 5.1 over a set of users:
// an edge joins two users with C > 0 and carries C as its weight. Each
// related pair's compatibility is evaluated once, when the graph is built.
// The edges are held as compressed sparse rows: node u's arcs are
// arcs[start[u]:start[u+1]], ascending by the node they lead to.
type compatGraph struct {
	users []UserID // node → user
	start []int32
	arcs  []arc
}

// arc leads to node to, across an edge of compatibility c.
type arc struct {
	to int32
	c  float64
}

// newCompatGraph builds the graph over users, which must be distinct and
// name the nodes in order; multi selects CompatibilityMulti over
// Compatibility. Pairs with a user outside the list are left out.
//
// It walks every owner's relations once and reads both directions' rules
// from the two users' slots: a pair granted one way is met once, on the
// granting side, and a pair granted both ways twice and kept on the
// smaller id's side. Nodes are numbered through a slice indexed by slot,
// so an edge costs one hash lookup, its peer's slot.
func newCompatGraph(s *Store, users []UserID, multi bool) *compatGraph {
	node := make([]int32, len(s.users)) // slot → node, or -1
	for i := range node {
		node[i] = -1
	}
	for i, u := range users {
		if j, ok := s.slot[u]; ok {
			node[j] = int32(i)
		}
	}
	type edge struct {
		a, b int32
		c    float64
	}
	var edges []edge
	g := &compatGraph{users: users, start: make([]int32, len(users)+1)}
	for i := range s.users {
		o := &s.users[i]
		if node[i] < 0 {
			continue
		}
		for _, rel := range o.rels {
			rr := o.roles[rel.role]
			if rr.start == rr.end || rel.peer == o.id {
				continue // granted the other way only, met on that side; or a self-relation
			}
			j := s.slot[rel.peer]
			if node[j] < 0 {
				continue
			}
			fwd, back := o.rules[rr.start:rr.end], s.users[j].rulesTo(o.id)
			if len(back) > 0 && o.id > rel.peer {
				continue // granted both ways: kept on the peer's side
			}
			// fwd goes first, as Alpha puts the smaller id's rules: either
			// o is the smaller id, or back is empty and adds nothing to a
			// sum in either place.
			var c float64
			if multi {
				c = eq4(s.alphaMulti(fwd, back))
			} else {
				c = eq4(s.alpha(fwd, back))
			}
			if c > 0 {
				a, b := node[i], node[j]
				edges = append(edges, edge{a, b, c})
				g.start[a+1]++
				g.start[b+1]++
			}
		}
	}
	for u := range users {
		g.start[u+1] += g.start[u]
	}
	g.arcs = make([]arc, 2*len(edges))
	next := slices.Clone(g.start)
	for _, e := range edges {
		g.arcs[next[e.a]] = arc{e.b, e.c}
		g.arcs[next[e.b]] = arc{e.a, e.c}
		next[e.a]++
		next[e.b]++
	}
	// Ascending rows: the graph, and what runs on it, does not depend on
	// the order in which the store lists its pairs.
	for u := range users {
		slices.SortFunc(g.row(int32(u)), func(x, y arc) int { return cmp.Compare(x.to, y.to) })
	}
	return g
}

// row returns node u's arcs.
func (g *compatGraph) row(u int32) []arc { return g.arcs[g.start[u]:g.start[u+1]] }

// fig5 visits the nodes in the order Fig. 5 assigns them sequence values,
// counting only the edges whose two ends carry the same label (every edge
// when label is nil). Nodes go in descending order of degree, ties by node;
// each node not yet visited becomes an anchor, visited as its own anchor
// with c = 1, and is followed by its unvisited neighbours, most compatible
// first (ties by node), each visited with the anchor and its compatibility
// c to it.
func (g *compatGraph) fig5(label []int32, visit func(u, anchor int32, c float64)) {
	same := func(u, v int32) bool { return label == nil || label[u] == label[v] }
	n := len(g.users)
	deg := make([]int32, n)
	order := make([]int32, n)
	for u := range order {
		order[u] = int32(u)
		for _, a := range g.row(int32(u)) {
			if same(int32(u), a.to) {
				deg[u]++
			}
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(deg[b], deg[a]), cmp.Compare(a, b))
	})
	var band []arc
	done := make([]bool, n)
	for _, u := range order {
		if done[u] {
			continue
		}
		done[u] = true
		visit(u, u, 1)
		band = band[:0]
		for _, a := range g.row(u) {
			if !done[a.to] && same(u, a.to) {
				done[a.to] = true
				band = append(band, a)
			}
		}
		slices.SortFunc(band, func(x, y arc) int {
			return cmp.Or(cmp.Compare(y.c, x.c), cmp.Compare(x.to, y.to))
		})
		for _, a := range band {
			visit(a.to, u, a.c)
		}
	}
}

// SVCodec converts float sequence values into the fixed-point integers
// embedded in PEB keys. FracBits sets the resolution (values are rounded
// to multiples of 2^-FracBits); Bits is the total field width.
type SVCodec struct {
	Bits     int // total field width in the key
	FracBits int // bits of the fraction
}

// Encode converts a sequence value to its fixed-point representation.
// Values that would overflow the field are reported as errors — the caller
// should widen the key layout rather than silently wrap.
func (c SVCodec) Encode(sv float64) (uint64, error) {
	if sv < 0 {
		return 0, fmt.Errorf("policy: negative sequence value %g", sv)
	}
	v := uint64(sv*float64(uint64(1)<<uint(c.FracBits)) + 0.5)
	if c.Bits < 64 && v >= uint64(1)<<uint(c.Bits) {
		return 0, fmt.Errorf("policy: sequence value %g overflows %d-bit field", sv, c.Bits)
	}
	return v, nil
}

// Decode converts a fixed-point representation back to a float (with
// quantization error at most 2^-(FracBits+1)).
func (c SVCodec) Decode(v uint64) float64 {
	return float64(v) / float64(uint64(1)<<uint(c.FracBits))
}
