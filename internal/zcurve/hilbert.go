package zcurve

import (
	"cmp"
	"slices"
)

// Hilbert-curve mapping, used by the curve ablation benchmark
// (DESIGN.md A3). The iterative rotate-and-accumulate formulation follows
// the classic Hamilton conversion; it is the curve analyzed by the paper's
// clustering citation [22].

// HilbertEncode maps grid cell (x, y) to its Hilbert value for a curve of
// the given order (grid is 2^order on a side). Coordinates must be within
// the grid; out-of-range bits are masked off.
func HilbertEncode(x, y uint32, order int) uint64 {
	mask := uint32(1)<<uint(order) - 1
	x &= mask
	y &= mask
	var d uint64
	for s := uint32(1) << uint(order-1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = hilbertRotate(s, x, y, rx, ry)
	}
	return d
}

// HilbertDecode is the inverse of HilbertEncode.
func HilbertDecode(d uint64, order int) (x, y uint32) {
	t := d
	for s := uint32(1); s < uint32(1)<<uint(order); s <<= 1 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		x, y = hilbertRotate(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// hilbertRotate reflects/rotates the quadrant so recursion stays oriented.
func hilbertRotate(s, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// HilbertDecompose is the Hilbert analogue of Decompose: it returns sorted,
// disjoint Hilbert-value intervals covering exactly the rectangle's cells
// (subject to the same maxIntervals coalescing rule). Because Hilbert
// quadrant visit order varies with orientation, intervals are collected
// per cell run via recursion on curve order and then normalized.
func HilbertDecompose(r Rect, order int, maxIntervals int) ([]Interval, error) {
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
	var out []Interval
	hilbertDecompose(r, 0, 0, order, order, &out)
	// The intervals are disjoint, so Lo alone orders them. The recursion
	// visits quadrants in Z order, which leaves whole blocks out of place
	// on this curve: an insertion sort would be quadratic here.
	slices.SortFunc(out, func(a, b Interval) int { return cmp.Compare(a.Lo, b.Lo) })
	out = mergeAdjacent(out)
	if maxIntervals > 0 && len(out) > maxIntervals {
		out = coalesce(out, maxIntervals)
	}
	return out, nil
}

func hilbertDecompose(r Rect, qx, qy uint32, qorder, order int, out *[]Interval) {
	side := uint32(1) << uint(qorder)
	qMaxX := qx + side - 1
	qMaxY := qy + side - 1
	if qx > r.MaxX || qMaxX < r.MinX || qy > r.MaxY || qMaxY < r.MinY {
		return
	}
	if r.MinX <= qx && qMaxX <= r.MaxX && r.MinY <= qy && qMaxY <= r.MaxY {
		// A full quadrant occupies one contiguous Hilbert range starting at
		// the minimum Hilbert value among its cells; for an aligned quadrant
		// that is the value of whichever corner the curve enters first.
		// Compute it as the min of the four corners (cheap and orientation
		// independent).
		lo := HilbertEncode(qx, qy, order)
		for _, c := range [3]uint64{
			HilbertEncode(qMaxX, qy, order),
			HilbertEncode(qx, qMaxY, order),
			HilbertEncode(qMaxX, qMaxY, order),
		} {
			if c < lo {
				lo = c
			}
		}
		*out = append(*out, Interval{Lo: lo, Hi: lo + uint64(side)*uint64(side) - 1})
		return
	}
	if qorder == 0 {
		v := HilbertEncode(qx, qy, order)
		*out = append(*out, Interval{Lo: v, Hi: v})
		return
	}
	half := side / 2
	hilbertDecompose(r, qx, qy, qorder-1, order, out)
	hilbertDecompose(r, qx+half, qy, qorder-1, order, out)
	hilbertDecompose(r, qx, qy+half, qorder-1, order, out)
	hilbertDecompose(r, qx+half, qy+half, qorder-1, order, out)
}

func errOrder(order int) error { return fmtErr("order %d out of range (1..%d)", order, MaxOrder) }
func errRect(r Rect) error     { return fmtErr("invalid rectangle %+v", r) }
func errRectOrder(r Rect, o int) error {
	return fmtErr("rectangle %+v exceeds grid of order %d", r, o)
}
