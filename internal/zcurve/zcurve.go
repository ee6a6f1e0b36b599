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
	"fmt"
	"slices"
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
// first, so the result still covers the rectangle but may include extra
// cells (candidates are re-checked during query refinement anyway).
//
// This is the ZVconvert step of the paper's range-query algorithm (Fig. 7).
func Decompose(r Rect, order int, maxIntervals int) ([]Interval, error) {
	if order <= 0 || order > MaxOrder {
		return nil, fmt.Errorf("zcurve: order %d out of range (1..%d)", order, MaxOrder)
	}
	if !r.Valid() {
		return nil, fmt.Errorf("zcurve: invalid rectangle %+v", r)
	}
	limit := uint32(1)<<uint(order) - 1
	if r.MaxX > limit || r.MaxY > limit {
		return nil, fmt.Errorf("zcurve: rectangle %+v exceeds grid of order %d", r, order)
	}

	// decompose emits intervals in ascending Z order by construction
	// (quadrant recursion follows the curve) and fuses touching ones as it
	// goes, so the list is exact and minimal as it stands.
	// The curve leaves and re-enters a rectangle along its boundary, so the
	// exact list runs to about one interval per boundary cell.
	out := make([]Interval, 0, min(r.Cells(), uint64(r.MaxX-r.MinX)+uint64(r.MaxY-r.MinY)+2))
	decompose(r, 0, 0, order, order, &out)
	if maxIntervals > 0 && len(out) > maxIntervals {
		out = coalesce(out, maxIntervals)
	}
	return out, nil
}

// decompose recursively splits the quadrant with top-left grid coordinate
// (qx, qy) (in units of cells) and side 2^qorder against r, appending
// covered intervals to out in curve order, extending the last interval
// when the next one touches it ([a,b],[b+1,c] → [a,c]).
func decompose(r Rect, qx, qy uint32, qorder, order int, out *[]Interval) {
	side := uint32(1) << uint(qorder)
	qMaxX := qx + side - 1
	qMaxY := qy + side - 1
	// No overlap: nothing to emit.
	if qx > r.MaxX || qMaxX < r.MinX || qy > r.MaxY || qMaxY < r.MinY {
		return
	}
	// Fully covered: the quadrant is one contiguous Z interval.
	if r.MinX <= qx && qMaxX <= r.MaxX && r.MinY <= qy && qMaxY <= r.MaxY {
		// (A single cell that overlaps is contained, so qorder 0 ends here.)
		lo, hi := Encode(qx, qy), Encode(qx, qy)+uint64(side)*uint64(side)-1
		if n := len(*out); n > 0 && (*out)[n-1].Hi+1 == lo {
			(*out)[n-1].Hi = hi
		} else {
			*out = append(*out, Interval{Lo: lo, Hi: hi})
		}
		return
	}
	half := side / 2
	// Z-order visits quadrants in the order (0,0), (1,0), (0,1), (1,1)
	// with x as the low interleaved bit.
	decompose(r, qx, qy, qorder-1, order, out)
	decompose(r, qx+half, qy, qorder-1, order, out)
	decompose(r, qx, qy+half, qorder-1, order, out)
	decompose(r, qx+half, qy+half, qorder-1, order, out)
}

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
// order (gap, index): one sweep selects them in a sorted buffer of max−1
// entries, a second emits the runs between them in place. The result covers
// a superset of the input. ivs must be sorted, disjoint and longer than max.
func coalesce(ivs []Interval, max int) []Interval {
	last := ivs[len(ivs)-1].Hi
	if max == 1 {
		ivs[0].Hi = last
		return ivs[:1]
	}
	// keep holds the indices i of the largest gaps ivs[i-1]→ivs[i] seen so
	// far, ascending by (gap, i).
	keep := make([]int, 0, max-1)
	gapAt := func(i int) uint64 { return ivs[i].Lo - ivs[i-1].Hi }
	for i := 1; i < len(ivs); i++ {
		gap := gapAt(i)
		if len(keep) == max-1 {
			if gap < gapAt(keep[0]) {
				continue
			}
			// Evict the smallest: shift the entries below the new gap's
			// slot down by one. i exceeds every index held, so an equal
			// gap sorts below it.
			j := 1
			for ; j < len(keep) && gapAt(keep[j]) <= gap; j++ {
				keep[j-1] = keep[j]
			}
			keep[j-1] = i
			continue
		}
		j := len(keep)
		keep = append(keep, i)
		for ; j > 0 && gapAt(keep[j-1]) > gap; j-- {
			keep[j] = keep[j-1]
		}
		keep[j] = i
	}
	slices.Sort(keep)
	// Output slot n never runs ahead of the input index it reads, so the
	// runs are written over the input.
	n := 0
	for _, i := range keep {
		ivs[n].Hi = ivs[i-1].Hi
		n++
		ivs[n].Lo = ivs[i].Lo
	}
	ivs[n].Hi = last
	return ivs[:n+1]
}
