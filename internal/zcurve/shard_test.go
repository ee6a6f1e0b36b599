package zcurve

import (
	"math"
	"math/rand"
	"testing"
)

func TestSplitRange(t *testing.T) {
	for _, tc := range []struct {
		order, n int
	}{
		{order: 3, n: 1}, {order: 3, n: 2}, {order: 3, n: 3},
		{order: 3, n: 4}, {order: 5, n: 7}, {order: 10, n: 8},
	} {
		ivs := SplitRange(tc.order, tc.n)
		if len(ivs) != tc.n {
			t.Fatalf("SplitRange(%d,%d): %d intervals", tc.order, tc.n, len(ivs))
		}
		total := uint64(1) << uint(2*tc.order)
		if ivs[0].Lo != 0 || ivs[len(ivs)-1].Hi != total-1 {
			t.Fatalf("SplitRange(%d,%d): does not span [0,%d]: %v", tc.order, tc.n, total-1, ivs)
		}
		var covered uint64
		for i, iv := range ivs {
			if iv.Hi < iv.Lo {
				t.Fatalf("interval %d inverted: %v", i, iv)
			}
			if i > 0 && iv.Lo != ivs[i-1].Hi+1 {
				t.Fatalf("gap/overlap between %v and %v", ivs[i-1], iv)
			}
			covered += iv.Len()
		}
		if covered != total {
			t.Fatalf("covered %d of %d values", covered, total)
		}
		// Near-equal: lengths differ by at most one.
		min, max := ivs[0].Len(), ivs[0].Len()
		for _, iv := range ivs {
			if iv.Len() < min {
				min = iv.Len()
			}
			if iv.Len() > max {
				max = iv.Len()
			}
		}
		if max-min > 1 {
			t.Fatalf("uneven split: min %d max %d", min, max)
		}
	}
}

func TestAnyOverlaps(t *testing.T) {
	ivs := []Interval{{Lo: 0, Hi: 3}, {Lo: 10, Hi: 20}}
	for _, tc := range []struct {
		iv   Interval
		want bool
	}{
		{Interval{Lo: 4, Hi: 9}, false},
		{Interval{Lo: 3, Hi: 3}, true},
		{Interval{Lo: 21, Hi: 30}, false},
		{Interval{Lo: 15, Hi: 40}, true},
		{Interval{Lo: 0, Hi: 100}, true},
	} {
		if got := AnyOverlaps(ivs, tc.iv); got != tc.want {
			t.Errorf("AnyOverlaps(%v) = %v, want %v", tc.iv, got, tc.want)
		}
	}
}

// bruteIntersects computes the reference answer by checking every cell.
func bruteIntersects(r Rect, iv Interval, order int) bool {
	cells := uint32(1) << uint(order)
	for cy := uint32(0); cy < cells; cy++ {
		for cx := uint32(0); cx < cells; cx++ {
			if !r.ContainsCell(cx, cy) {
				continue
			}
			if iv.Contains(HilbertEncode(cx, cy, order)) {
				return true
			}
		}
	}
	return false
}

func TestHilbertRangeIntersectsRectBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, order := range []int{2, 3, 4} {
		limit := uint32(1)<<uint(order) - 1
		total := uint64(1) << uint(2*order)
		for trial := 0; trial < 300; trial++ {
			minX := rng.Uint32() % (limit + 1)
			minY := rng.Uint32() % (limit + 1)
			r := Rect{
				MinX: minX, MinY: minY,
				MaxX: minX + rng.Uint32()%(limit+1-minX),
				MaxY: minY + rng.Uint32()%(limit+1-minY),
			}
			lo := rng.Uint64() % total
			iv := Interval{Lo: lo, Hi: lo + rng.Uint64()%(total-lo)}
			got := HilbertRangeIntersectsRect(r, iv, order)
			want := bruteIntersects(r, iv, order)
			if got != want {
				t.Fatalf("order %d r %+v iv %v: got %v want %v", order, r, iv, got, want)
			}
		}
	}
}

// TestHilbertRunStart checks hilbertRunStart against the curve itself for
// every aligned quadrant at orders 1–9: a quadrant of side 2^q holds
// exactly the 4^q consecutive values from its run start on (HilbertEncode
// is a bijection, so the 4^q cells spanning 4^q values fill the run).
func TestHilbertRunStart(t *testing.T) {
	for order := 1; order <= 9; order++ {
		cells := uint32(1) << uint(order)
		for q := 0; q <= order; q++ {
			per := cells >> uint(q) // quadrants a side
			lo := make([]uint64, per*per)
			hi := make([]uint64, per*per)
			for i := range lo {
				lo[i] = math.MaxUint64
			}
			for y := uint32(0); y < cells; y++ {
				for x := uint32(0); x < cells; x++ {
					v := HilbertEncode(x, y, order)
					i := (y>>uint(q))*per + x>>uint(q)
					lo[i] = min(lo[i], v)
					hi[i] = max(hi[i], v)
				}
			}
			run := uint64(1) << uint(2*q)
			for i := range lo {
				qx, qy := uint32(i)%per<<uint(q), uint32(i)/per<<uint(q)
				if got := hilbertRunStart(qx, qy, q, order); got != lo[i] || hi[i]-lo[i] != run-1 {
					t.Fatalf("order %d, quadrant (%d,%d) of side 2^%d: run start %d, cells span [%d, %d]",
						order, qx, qy, q, got, lo[i], hi[i])
				}
			}
		}
	}
}

// The router's two Hilbert descents at the benchmark's shape: four shards
// splitting the order-10 curve evenly over a 1000-side space, and a PRQ
// window of side 200 enlarged by 3 × 60 on every side (≈ 530 cells a
// side, the window BenchmarkDecompose's enlarged530 uses).
var (
	benchShardCovers = SplitRange(10, 4)
	benchRoutedRect  = Rect{MinX: 149, MinY: 33, MaxX: 721, MaxY: 605}
)

// BenchmarkHilbertRangeIntersectsRect times routeRegion's predicate: one
// routed PRQ's test against every shard's cover.
func BenchmarkHilbertRangeIntersectsRect(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		for _, iv := range benchShardCovers {
			HilbertRangeIntersectsRect(benchRoutedRect, iv, 10)
		}
	}
}

func TestSplitByDensity(t *testing.T) {
	iv := Interval{Lo: 10, Hi: 20}

	// Median placement: the lower median joins the left half, so the split
	// lands where the population actually balances.
	at, ok := SplitByDensity(iv, []uint64{11, 12, 13, 19, 20})
	if !ok || at != 13 {
		t.Fatalf("median split = (%d,%v), want (13,true)", at, ok)
	}

	// Out-of-range observations are ignored.
	at, ok = SplitByDensity(iv, []uint64{0, 1, 14, 15, 16, 99})
	if !ok || at != 15 {
		t.Fatalf("filtered split = (%d,%v), want (15,true)", at, ok)
	}

	// No observations inside: geometric midpoint.
	at, ok = SplitByDensity(iv, nil)
	if !ok || at != 15 {
		t.Fatalf("empty split = (%d,%v), want (15,true)", at, ok)
	}

	// The split point is clamped below Hi so the upper half is never empty.
	at, ok = SplitByDensity(iv, []uint64{20, 20, 20})
	if !ok || at != 19 {
		t.Fatalf("clamped split = (%d,%v), want (19,true)", at, ok)
	}
	if lo, hi := (Interval{Lo: iv.Lo, Hi: at}), (Interval{Lo: at + 1, Hi: iv.Hi}); lo.Len() == 0 || hi.Len() == 0 {
		t.Fatalf("degenerate halves %v / %v", lo, hi)
	}

	// A single-value range cannot split.
	if _, ok := SplitByDensity(Interval{Lo: 7, Hi: 7}, []uint64{7}); ok {
		t.Fatal("single-value range reported splittable")
	}
}
