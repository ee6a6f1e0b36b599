// Package zcurve implements the space-filling-curve machinery the Bx-tree
// and PEB-tree use to linearize 2-D locations (Sec. 2.1, [13], [22]):
//
//   - Morton (Z-order) encoding and decoding of grid cells,
//   - an exact decomposition of a grid-aligned query rectangle into a
//     minimal set of consecutive curve-value intervals ("ZVconvert" in the
//     paper's Fig. 7), and
//   - a Hilbert-curve mapping used by an ablation benchmark, since the
//     paper's clustering citation [22] analyzes the Hilbert curve.
//
// All functions operate on grid coordinates in [0, 2^order). Mapping from
// continuous space to the grid is the caller's concern (see package bxtree).
package zcurve

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
)

// MaxOrder is the largest supported curve order: with order 31 a curve
// value needs 62 bits, leaving headroom inside a uint64 key.
const MaxOrder = 31

// Interval is an inclusive range [Lo, Hi] of curve values.
type Interval struct {
	Lo, Hi uint64
}

// Len returns the number of curve values covered by the interval.
func (iv Interval) Len() uint64 { return iv.Hi - iv.Lo + 1 }

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v uint64) bool { return iv.Lo <= v && v <= iv.Hi }

// String implements fmt.Stringer.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi) }

// spread2 inserts a zero bit between every bit of the lower 32 bits of v:
// ...b2 b1 b0 becomes ...b2 0 b1 0 b0.
func spread2(v uint64) uint64 {
	v &= 0x00000000FFFFFFFF
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// squash2 is the inverse of spread2: it collects every other bit.
func squash2(v uint64) uint64 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0F0F0F0F0F0F0F0F
	v = (v | v>>4) & 0x00FF00FF00FF00FF
	v = (v | v>>8) & 0x0000FFFF0000FFFF
	v = (v | v>>16) & 0x00000000FFFFFFFF
	return v
}

// Encode maps grid cell (x, y) to its Z-order value by bit interleaving
// (x provides the even bits, y the odd bits). Coordinates must fit in
// MaxOrder bits; Encode does not range-check for speed — use Grid for
// checked conversions from continuous space.
func Encode(x, y uint32) uint64 {
	return spread2(uint64(x)) | spread2(uint64(y))<<1
}

// Decode is the inverse of Encode.
func Decode(z uint64) (x, y uint32) {
	return uint32(squash2(z)), uint32(squash2(z >> 1))
}

// Rect is a closed grid-cell rectangle [MinX,MaxX] × [MinY,MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY uint32
}

// Valid reports whether the rectangle is non-empty and well ordered.
func (r Rect) Valid() bool { return r.MinX <= r.MaxX && r.MinY <= r.MaxY }

// Cells returns the number of grid cells the rectangle covers.
func (r Rect) Cells() uint64 {
	return uint64(r.MaxX-r.MinX+1) * uint64(r.MaxY-r.MinY+1)
}

// ContainsCell reports whether the grid cell (x, y) lies in the rectangle.
func (r Rect) ContainsCell(x, y uint32) bool {
	return r.MinX <= x && x <= r.MaxX && r.MinY <= y && y <= r.MaxY
}

// Decompose converts a query rectangle into the exact, minimal set of
// disjoint Z-value intervals that together cover precisely the rectangle's
// cells, sorted ascending. order is the curve order (grid is 2^order on a
// side). maxIntervals > 0 caps the result size: when the exact decomposition
// would exceed the cap, adjacent intervals with the smallest gaps are merged
// first (the earlier one on ties), so the result still covers the rectangle
// but may include extra cells (candidates are re-checked during query
// refinement anyway).
//
// This is the ZVconvert step of the paper's range-query algorithm (Fig. 7).
//
// The capped list is the exact list's maxIntervals−1 largest gaps, and
// Decompose finds those without enumerating the exact list. It keeps the
// quadrants that intersect r in curve order, each as the first and last cell
// of r inside it — Z-order is monotone in x and in y, so those are the
// corners of quadrant ∩ r. The gap between two neighbours is then exact
// whatever is still unexpanded inside them, and a gap inside a quadrant is
// no larger than the quadrant's Hi−Lo. Each round takes τ, the smallest of
// the maxIntervals−1 largest gaps known, and splits every partly covered
// quadrant that could hide a gap of τ or more; when none is left, no hidden
// gap can displace (or tie with) a kept one, and the runs between the kept
// gaps are the answer. Without a cap τ never rises, everything is split and
// the walk emits the exact list.
func Decompose(r Rect, order int, maxIntervals int) ([]Interval, error) {
	if order <= 0 || order > MaxOrder {
		return nil, errOrder(order)
	}
	if !r.Valid() {
		return nil, errRect(r)
	}
	limit := uint32(1)<<uint(order) - 1
	if r.MaxX > limit || r.MaxY > limit {
		return nil, errRectOrder(r, order)
	}
	root := Interval{Lo: Encode(r.MinX, r.MinY), Hi: Encode(r.MaxX, r.MaxY)}
	if maxIntervals == 1 {
		return []Interval{root}, nil
	}
	if maxIntervals <= 0 {
		maxIntervals = math.MaxInt
	}
	// r's bounds as interleaved bits, x in the even positions and y in the
	// odd ones: spreading is monotone, so they compare as the coordinates do.
	minX, maxX := root.Lo&evenBits, root.Hi&evenBits
	minY, maxY := root.Lo&^evenBits, root.Hi&^evenBits

	w := zwalkPool.Get().(*zwalk)
	defer zwalkPool.Put(w)
	w.ivs, w.lvl = append(w.ivs[:0], root), append(w.lvl[:0], uint8(order))
	for {
		w.keep = largestGaps(w.ivs, maxIntervals-1, w.keep[:0])
		// A gap that separates is at least 2; until maxIntervals−1 are
		// known every one found is kept.
		tau := uint64(2)
		if len(w.keep) == maxIntervals-1 {
			tau = w.ivs[w.keep[0]].Lo - w.ivs[w.keep[0]-1].Hi
		}
		split := false
		w.next, w.nextLvl = w.next[:0], w.nextLvl[:0]
		for i, iv := range w.ivs {
			lvl := w.lvl[i]
			// A fully covered quadrant is its 4^lvl cells and hides nothing.
			if span := iv.Hi - iv.Lo; span < tau || span+1 == 1<<(2*lvl) {
				w.next, w.nextLvl = append(w.next, iv), append(w.nextLvl, lvl)
				continue
			}
			split = true
			// The children, side 2^(lvl−1), in curve order: (0,0), (1,0),
			// (0,1), (1,1) with x the low interleaved bit. bit selects the
			// x-high children and low is a child's x extent, both already
			// spread; y's are one position up. The quadrant's origin is any
			// of its cells with the low 2·lvl bits cleared.
			bit := uint64(1) << (2 * (lvl - 1))
			low := (bit - 1) & evenBits
			origin := iv.Lo &^ (bit<<2 - 1)
			ox, oy := origin&evenBits, origin&^evenBits
			for c := uint64(0); c < 4; c++ {
				x0, y0 := ox|bit*(c&1), oy|bit<<1*(c>>1)
				x1, y1 := x0|low, y0|low<<1
				if x0 > maxX || x1 < minX || y0 > maxY || y1 < minY {
					continue
				}
				w.next = append(w.next, Interval{Lo: max(x0, minX) | max(y0, minY), Hi: min(x1, maxX) | min(y1, maxY)})
				w.nextLvl = append(w.nextLvl, lvl-1)
			}
		}
		if !split {
			break
		}
		w.ivs, w.next = w.next, w.ivs
		w.lvl, w.nextLvl = w.nextLvl, w.lvl
	}
	return runs(make([]Interval, len(w.keep)+1), w.ivs, w.keep), nil
}

// evenBits are the bit positions Encode gives x.
const evenBits = 0x5555555555555555

// zwalk is Decompose's scratch: the quadrants alive in this round and the
// next, each as its interval and its level (side 2^lvl), and the kept gaps.
type zwalk struct {
	ivs, next    []Interval
	lvl, nextLvl []uint8
	keep         []int
}

// A fresh zwalk has room for the hundred or so quadrants that the capped
// walk of a query window keeps alive: one that the pool dropped (it drops a
// quarter under -race) costs a make per list, not a doubling ladder.
var zwalkPool = sync.Pool{New: func() any {
	const n = 128
	return &zwalk{
		ivs: make([]Interval, 0, n), next: make([]Interval, 0, n),
		lvl: make([]uint8, 0, n), nextLvl: make([]uint8, 0, n),
		keep: make([]int, 0, 16),
	}
}}

// mergeAdjacent fuses touching intervals ([a,b],[b+1,c] → [a,c]).
// Input must be sorted ascending and disjoint.
func mergeAdjacent(ivs []Interval) []Interval {
	if len(ivs) < 2 {
		return ivs
	}
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Lo == last.Hi+1 {
			last.Hi = iv.Hi
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// coalesce reduces the interval count to max by bridging the smallest gaps
// between neighbors, the earlier one on ties. Bridging one gap leaves every
// other gap as it was, so the survivors are the max−1 largest gaps under the
// order (gap, index). The result, written over ivs, covers a superset of the
// input. ivs must be sorted, disjoint, non-touching and longer than max.
func coalesce(ivs []Interval, max int) []Interval {
	return runs(ivs, ivs, largestGaps(ivs, max-1, make([]int, 0, max-1)))
}

// largestGaps appends to keep the indices i of the want largest gaps
// ivs[i−1]→ivs[i] under the order (gap, i), ascending in that order; touching
// neighbours (gap 1) separate nothing and are passed over. When ivs has no
// more than want gaps it returns them all, in index order.
func largestGaps(ivs []Interval, want int, keep []int) []int {
	gapAt := func(i int) uint64 { return ivs[i].Lo - ivs[i-1].Hi }
	i := 1
	for ; i < len(ivs) && len(keep) < want; i++ {
		if gapAt(i) > 1 {
			keep = append(keep, i)
		}
	}
	if len(keep) < want || want == 0 {
		return keep
	}
	// keep is full and in index order: a stable sort by gap orders it by
	// (gap, i), and from here a larger gap evicts the smallest held.
	slices.SortStableFunc(keep, func(a, b int) int { return cmp.Compare(gapAt(a), gapAt(b)) })
	for ; i < len(ivs); i++ {
		gap := gapAt(i)
		if gap < gapAt(keep[0]) {
			continue
		}
		// Shift the entries below the new gap's slot down by one. i exceeds
		// every index held, so an equal gap sorts below it.
		j := 1
		for ; j < len(keep) && gapAt(keep[j]) <= gap; j++ {
			keep[j-1] = keep[j]
		}
		keep[j-1] = i
	}
	return keep
}

// runs writes to dst the intervals that remain of ivs when only the gaps at
// the indices in keep survive, and returns them. dst may be ivs itself:
// output slot n never runs ahead of the input index it reads.
func runs(dst, ivs []Interval, keep []int) []Interval {
	slices.Sort(keep)
	n := 0
	dst[0].Lo = ivs[0].Lo
	for _, i := range keep {
		dst[n].Hi = ivs[i-1].Hi
		n++
		dst[n].Lo = ivs[i].Lo
	}
	dst[n].Hi = ivs[len(ivs)-1].Hi
	return dst[:n+1]
}
