package zcurve

import (
	"math"
	"sort"
)

// Sharding helpers: a space-partitioned engine assigns each shard one
// contiguous range of Hilbert values (the curve's locality makes a
// contiguous value range a compact spatial region). Query routing needs two
// geometric predicates over such ranges: "could this rectangle hold cells
// of the range?" (range-query pruning) and "how close can a cell of the
// range come to this point?" (kNN shard ordering and its global distance
// bound).

// SplitRange divides the curve's full value range on a grid of the given
// order into n contiguous, disjoint, exhaustive intervals of near-equal
// length (the first `total mod n` intervals are one value longer). n must
// be ≥ 1 and no larger than the number of curve values.
func SplitRange(order, n int) []Interval {
	total := uint64(1) << uint(2*order)
	if n < 1 {
		n = 1
	}
	if uint64(n) > total {
		n = int(total)
	}
	per := total / uint64(n)
	extra := total % uint64(n)
	out := make([]Interval, 0, n)
	var lo uint64
	for i := 0; i < n; i++ {
		size := per
		if uint64(i) < extra {
			size++
		}
		out = append(out, Interval{Lo: lo, Hi: lo + size - 1})
		lo += size
	}
	return out
}

// SplitByDensity picks the curve value at which to bisect iv so the two
// halves carry a near-equal share of the observed population: values holds
// the curve values of the objects currently stored in the range (order and
// values outside iv do not matter — they are ignored), and the returned
// cut is the last value of the LEFT half, i.e. the range splits into
// [iv.Lo, at] and [at+1, iv.Hi]. With no observations the range bisects
// geometrically. Both halves are always non-empty value ranges; ok is
// false only when iv cannot be split at all (fewer than two curve values).
//
// The cut is placed at the population median, so a hot shard whose load
// concentrates in one sliver of its range — the rush-hour city — splits
// right through the crowd instead of down the middle of empty curve.
func SplitByDensity(iv Interval, values []uint64) (at uint64, ok bool) {
	if iv.Hi <= iv.Lo {
		return 0, false // a single value (or inverted range) cannot split
	}
	inside := make([]uint64, 0, len(values))
	for _, v := range values {
		if iv.Contains(v) {
			inside = append(inside, v)
		}
	}
	if len(inside) == 0 {
		return iv.Lo + (iv.Hi-iv.Lo)/2, true // no density signal: bisect
	}
	sort.Slice(inside, func(a, b int) bool { return inside[a] < inside[b] })
	at = inside[(len(inside)-1)/2] // lower median joins the left half
	// Clamp so both halves keep at least one curve value: at == iv.Hi
	// would leave the right half empty.
	if at >= iv.Hi {
		at = iv.Hi - 1
	}
	return at, true
}

// AnyOverlaps reports whether any interval of ivs intersects iv. Both
// sides are inclusive ranges; ivs need not be sorted.
func AnyOverlaps(ivs []Interval, iv Interval) bool {
	for _, a := range ivs {
		if a.Lo <= iv.Hi && iv.Lo <= a.Hi {
			return true
		}
	}
	return false
}

// HilbertRangeIntersectsRect reports whether any grid cell whose Hilbert
// value lies in iv falls inside the closed cell rectangle r — the
// range-query routing predicate: a shard owning iv can hold an object
// stored inside r only if this is true. Quadrants whose value run misses
// iv, or whose square misses r, are pruned without visiting their cells.
func HilbertRangeIntersectsRect(r Rect, iv Interval, order int) bool {
	if iv.Hi < iv.Lo || !r.Valid() {
		return false
	}
	return hilbertRangeIntersects(r, iv, 0, 0, order, order)
}

func hilbertRangeIntersects(r Rect, iv Interval, qx, qy uint32, qorder, order int) bool {
	side := uint32(1) << uint(qorder)
	qMaxX, qMaxY := qx+side-1, qy+side-1
	if qx > r.MaxX || qMaxX < r.MinX || qy > r.MaxY || qMaxY < r.MinY {
		return false // no spatial overlap
	}
	lo := hilbertRunStart(qx, qy, qorder, order)
	hi := lo + uint64(side)*uint64(side) - 1
	if hi < iv.Lo || lo > iv.Hi {
		return false // no value overlap
	}
	if r.MinX <= qx && qMaxX <= r.MaxX && r.MinY <= qy && qMaxY <= r.MaxY {
		// Every quadrant cell is inside r, and the value runs overlap, so
		// some cell of the quadrant carries a value in iv.
		return true
	}
	if qorder == 0 {
		return true // a single cell overlapping both constraints
	}
	half := side / 2
	return hilbertRangeIntersects(r, iv, qx, qy, qorder-1, order) ||
		hilbertRangeIntersects(r, iv, qx+half, qy, qorder-1, order) ||
		hilbertRangeIntersects(r, iv, qx, qy+half, qorder-1, order) ||
		hilbertRangeIntersects(r, iv, qx+half, qy+half, qorder-1, order)
}

// HilbertMinDist returns the minimum Euclidean distance, in continuous
// units, from the point (x, y) to the region covered by the grid cells
// whose Hilbert value lies in iv. A point inside the region has distance 0;
// an empty interval returns +Inf.
//
// The search descends the Hilbert quadrant hierarchy: a quadrant aligned at
// order q covers one contiguous run of 4^q curve values, so subtrees whose
// value run misses iv — or whose bounding square is already farther than
// the best distance found — are pruned without visiting their cells.
func (g Grid) HilbertMinDist(x, y float64, iv Interval) float64 {
	if iv.Hi < iv.Lo {
		return math.Inf(1)
	}
	best := math.Inf(1)
	g.hilbertMinDist(x, y, iv, 0, 0, g.Order, &best)
	return best
}

func (g Grid) hilbertMinDist(x, y float64, iv Interval, qx, qy uint32, qorder int, best *float64) {
	side := uint32(1) << uint(qorder)
	qMaxX, qMaxY := qx+side-1, qy+side-1
	lo := hilbertRunStart(qx, qy, qorder, g.Order)
	hi := lo + uint64(side)*uint64(side) - 1
	if hi < iv.Lo || lo > iv.Hi {
		return // the quadrant's value run misses the interval entirely
	}
	d := g.distToCellRect(x, y, qx, qy, qMaxX, qMaxY)
	if d >= *best {
		return // cannot improve on the best distance already found
	}
	if iv.Lo <= lo && hi <= iv.Hi {
		*best = d // every cell of the quadrant belongs to the interval
		return
	}
	if qorder == 0 {
		// A single cell with a partial run overlap means containment.
		*best = d
		return
	}
	half := side / 2
	g.hilbertMinDist(x, y, iv, qx, qy, qorder-1, best)
	g.hilbertMinDist(x, y, iv, qx+half, qy, qorder-1, best)
	g.hilbertMinDist(x, y, iv, qx, qy+half, qorder-1, best)
	g.hilbertMinDist(x, y, iv, qx+half, qy+half, qorder-1, best)
}

// distToCellRect returns the Euclidean distance from the continuous point
// (x, y) to the continuous rectangle spanned by the closed grid-cell
// rectangle [minC,maxC] × [minR,maxR]; 0 when the point is inside.
func (g Grid) distToCellRect(x, y float64, minC, minR, maxC, maxR uint32) float64 {
	cell := g.Side / float64(g.Cells())
	loX, hiX := float64(minC)*cell, float64(maxC+1)*cell
	loY, hiY := float64(minR)*cell, float64(maxR+1)*cell
	var dx, dy float64
	switch {
	case x < loX:
		dx = loX - x
	case x > hiX:
		dx = x - hiX
	}
	switch {
	case y < loY:
		dy = loY - y
	case y > hiY:
		dy = y - hiY
	}
	return math.Hypot(dx, dy)
}
