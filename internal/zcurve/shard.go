package zcurve

import "sort"

// Sharding helpers: a space-partitioned engine assigns each shard one
// contiguous range of Hilbert values (the curve's locality makes a
// contiguous value range a compact spatial region). Range-query routing
// asks one geometric question of such a range: "could this rectangle hold
// cells of the range?"

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
