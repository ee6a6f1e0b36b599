package zcurve

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEncodeKnownValues(t *testing.T) {
	cases := []struct {
		x, y uint32
		z    uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{0, 1, 2},
		{1, 1, 3},
		{2, 0, 4},
		{3, 3, 15},
		{2, 3, 14},
		{7, 7, 63},
	}
	for _, c := range cases {
		if got := Encode(c.x, c.y); got != c.z {
			t.Errorf("Encode(%d,%d) = %d, want %d", c.x, c.y, got, c.z)
		}
		x, y := Decode(c.z)
		if x != c.x || y != c.y {
			t.Errorf("Decode(%d) = (%d,%d), want (%d,%d)", c.z, x, y, c.x, c.y)
		}
	}
}

func TestEncodeDecodeRoundTripQuick(t *testing.T) {
	f := func(x, y uint32) bool {
		gx, gy := Decode(Encode(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeMonotoneInQuadrant(t *testing.T) {
	// Within one quadrant the curve value of the quadrant's first cell is
	// the minimum over the quadrant: encode(quadrant origin) <= all cells.
	for trial := 0; trial < 200; trial++ {
		qx := uint32(rand.Intn(8)) * 4
		qy := uint32(rand.Intn(8)) * 4
		base := Encode(qx, qy)
		for dx := uint32(0); dx < 4; dx++ {
			for dy := uint32(0); dy < 4; dy++ {
				if z := Encode(qx+dx, qy+dy); z < base || z > base+15 {
					t.Fatalf("cell (%d,%d) z=%d outside quadrant range [%d,%d]",
						qx+dx, qy+dy, z, base, base+15)
				}
			}
		}
	}
}

// coveredCells expands intervals to the set of cells they contain.
func coveredCells(ivs []Interval) map[uint64]bool {
	set := make(map[uint64]bool)
	for _, iv := range ivs {
		for v := iv.Lo; ; v++ {
			set[v] = true
			if v == iv.Hi {
				break
			}
		}
	}
	return set
}

func TestDecomposeExactCoverage(t *testing.T) {
	const order = 5 // 32x32 grid keeps exhaustive checks fast
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		r := Rect{
			MinX: uint32(rng.Intn(32)),
			MinY: uint32(rng.Intn(32)),
		}
		r.MaxX = r.MinX + uint32(rng.Intn(int(32-r.MinX)))
		r.MaxY = r.MinY + uint32(rng.Intn(int(32-r.MinY)))

		ivs, err := Decompose(r, order, 0)
		if err != nil {
			t.Fatalf("Decompose(%+v): %v", r, err)
		}
		got := coveredCells(ivs)
		want := make(map[uint64]bool)
		for x := r.MinX; x <= r.MaxX; x++ {
			for y := r.MinY; y <= r.MaxY; y++ {
				want[Encode(x, y)] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("rect %+v: covered %d cells, want %d", r, len(got), len(want))
		}
		for v := range want {
			if !got[v] {
				t.Fatalf("rect %+v: cell z=%d not covered", r, v)
			}
		}
		// Intervals must be sorted, disjoint, non-adjacent.
		for i := 1; i < len(ivs); i++ {
			if ivs[i].Lo <= ivs[i-1].Hi+1 {
				t.Fatalf("rect %+v: intervals %v and %v overlap or touch", r, ivs[i-1], ivs[i])
			}
		}
	}
}

func TestDecomposeFullGridIsOneInterval(t *testing.T) {
	ivs, err := Decompose(Rect{0, 0, 31, 31}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 1 || ivs[0].Lo != 0 || ivs[0].Hi != 1023 {
		t.Fatalf("full grid = %v, want [[0,1023]]", ivs)
	}
}

func TestDecomposeSingleCell(t *testing.T) {
	ivs, err := Decompose(Rect{5, 9, 5, 9}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	z := Encode(5, 9)
	if len(ivs) != 1 || ivs[0].Lo != z || ivs[0].Hi != z {
		t.Fatalf("single cell = %v, want [[%d,%d]]", ivs, z, z)
	}
}

func TestDecomposeMaxIntervalsCoalesces(t *testing.T) {
	// A thin full-width row decomposes into many intervals at high order.
	r := Rect{0, 13, 63, 13}
	full, err := Decompose(r, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 5 {
		t.Skipf("row decomposed into only %d intervals", len(full))
	}
	capped, err := Decompose(r, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) > 4 {
		t.Fatalf("cap ignored: %d intervals", len(capped))
	}
	// Capped result must still cover every cell of the rectangle.
	got := coveredCells(capped)
	for x := r.MinX; x <= r.MaxX; x++ {
		if !got[Encode(x, 13)] {
			t.Fatalf("cell (%d,13) lost by coalescing", x)
		}
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(Rect{0, 0, 1, 1}, 0, 0); err == nil {
		t.Errorf("order 0 accepted")
	}
	if _, err := Decompose(Rect{2, 0, 1, 1}, 4, 0); err == nil {
		t.Errorf("inverted rect accepted")
	}
	if _, err := Decompose(Rect{0, 0, 99, 1}, 4, 0); err == nil {
		t.Errorf("out-of-grid rect accepted")
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{3, 7}
	if iv.Len() != 5 {
		t.Errorf("Len = %d, want 5", iv.Len())
	}
	if !iv.Contains(3) || !iv.Contains(7) || iv.Contains(8) || iv.Contains(2) {
		t.Errorf("Contains wrong")
	}
}

func TestHilbertRoundTripQuick(t *testing.T) {
	const order = 10
	f := func(x, y uint32) bool {
		x %= 1 << order
		y %= 1 << order
		gx, gy := HilbertDecode(HilbertEncode(x, y, order), order)
		return gx == x && gy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHilbertIsBijectionSmall(t *testing.T) {
	const order = 4
	seen := make(map[uint64]bool)
	for x := uint32(0); x < 16; x++ {
		for y := uint32(0); y < 16; y++ {
			d := HilbertEncode(x, y, order)
			if d >= 256 {
				t.Fatalf("Hilbert(%d,%d) = %d out of range", x, y, d)
			}
			if seen[d] {
				t.Fatalf("Hilbert value %d duplicated", d)
			}
			seen[d] = true
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// Consecutive Hilbert values must be 4-adjacent cells — the locality
	// property that motivates the ablation.
	const order = 5
	prevX, prevY := HilbertDecode(0, order)
	for d := uint64(1); d < 1024; d++ {
		x, y := HilbertDecode(d, order)
		dx := int64(x) - int64(prevX)
		dy := int64(y) - int64(prevY)
		if dx*dx+dy*dy != 1 {
			t.Fatalf("steps %d→%d jump from (%d,%d) to (%d,%d)", d-1, d, prevX, prevY, x, y)
		}
		prevX, prevY = x, y
	}
}

func TestHilbertDecomposeCoverage(t *testing.T) {
	const order = 5
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		r := Rect{MinX: uint32(rng.Intn(32)), MinY: uint32(rng.Intn(32))}
		r.MaxX = r.MinX + uint32(rng.Intn(int(32-r.MinX)))
		r.MaxY = r.MinY + uint32(rng.Intn(int(32-r.MinY)))

		ivs, err := HilbertDecompose(r, order, 0)
		if err != nil {
			t.Fatalf("HilbertDecompose(%+v): %v", r, err)
		}
		got := coveredCells(ivs)
		count := 0
		for x := r.MinX; x <= r.MaxX; x++ {
			for y := r.MinY; y <= r.MaxY; y++ {
				if !got[HilbertEncode(x, y, order)] {
					t.Fatalf("rect %+v: cell (%d,%d) not covered", r, x, y)
				}
				count++
			}
		}
		if len(got) != count {
			t.Fatalf("rect %+v: covered %d values, want %d", r, len(got), count)
		}
	}
}

func TestGridCellMapping(t *testing.T) {
	g, err := NewGrid(1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cells() != 1024 {
		t.Fatalf("Cells = %d", g.Cells())
	}
	if c := g.CellOf(0); c != 0 {
		t.Errorf("CellOf(0) = %d", c)
	}
	if c := g.CellOf(999.999); c != 1023 {
		t.Errorf("CellOf(999.999) = %d", c)
	}
	if c := g.CellOf(-5); c != 0 {
		t.Errorf("CellOf(-5) = %d, want clamp to 0", c)
	}
	if c := g.CellOf(1e9); c != 1023 {
		t.Errorf("CellOf(1e9) = %d, want clamp to 1023", c)
	}
	// Centers land back in their own cell.
	for _, cell := range []uint32{0, 1, 511, 1023} {
		if back := g.CellOf(g.CellCenter(cell)); back != cell {
			t.Errorf("CellOf(CellCenter(%d)) = %d", cell, back)
		}
	}
}

func TestGridRectOf(t *testing.T) {
	g, _ := NewGrid(1000, 10)
	r, ok := g.RectOf(100, 200, 300, 400)
	if !ok {
		t.Fatal("RectOf rejected valid rect")
	}
	if !r.Valid() || r.MinX > r.MaxX {
		t.Fatalf("RectOf produced %+v", r)
	}
	if _, ok := g.RectOf(300, 0, 100, 10); ok {
		t.Errorf("inverted rect accepted")
	}
	if _, ok := g.RectOf(2000, 2000, 3000, 3000); ok {
		t.Errorf("out-of-space rect accepted")
	}
	// Clamped rect still valid.
	r, ok = g.RectOf(-50, -50, 50, 50)
	if !ok || r.MinX != 0 || r.MinY != 0 {
		t.Errorf("clamping failed: %+v ok=%v", r, ok)
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(-1, 10); err == nil {
		t.Errorf("negative side accepted")
	}
	if _, err := NewGrid(100, 0); err == nil {
		t.Errorf("order 0 accepted")
	}
	if _, err := NewGrid(100, 99); err == nil {
		t.Errorf("huge order accepted")
	}
}

func TestGridMaxValue(t *testing.T) {
	g, _ := NewGrid(1000, 10)
	if g.MaxValue() != (1<<20)-1 {
		t.Fatalf("MaxValue = %d", g.MaxValue())
	}
	if z := g.ZValue(999.9, 999.9); z != g.MaxValue() {
		t.Fatalf("corner ZValue = %d, want %d", z, g.MaxValue())
	}
}

func BenchmarkEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Encode(uint32(i), uint32(i*7))
	}
}

// BenchmarkDecompose is one ZVconvert of the benchmark's PRQ, capped at
// bxtree's default 16 intervals on the order-10 grid: the 200-side window of
// the 1000-side space as it is drawn (≈ 205 cells a side, off the quadrant
// boundaries), and as a query issues it once it is enlarged by 3 × 60 on
// every side for a partition's label gap (≈ 530 cells a side, ~800 exact
// intervals).
func BenchmarkDecompose(b *testing.B) {
	for _, w := range []struct {
		name string
		r    Rect
	}{
		{"window205", Rect{333, 217, 537, 421}},
		{"enlarged530", Rect{149, 33, 721, 605}},
	} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decompose(w.r, 10, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// decomposeRef is ZVconvert as first written, the reference Decompose must
// equal interval for interval: enumerate the exact list by recursion over
// the quadrants, then coalesce it to the cap.
func decomposeRef(r Rect, order, maxIntervals int) []Interval {
	var out []Interval
	decomposeRec(r, 0, 0, order, &out)
	if maxIntervals > 0 && len(out) > maxIntervals {
		out = coalesce(out, maxIntervals)
	}
	return out
}

// decomposeRec splits the quadrant with origin (qx, qy) and side 2^qorder
// against r, appending covered intervals to out in curve order and extending
// the last one when the next touches it ([a,b],[b+1,c] → [a,c]).
func decomposeRec(r Rect, qx, qy uint32, qorder int, out *[]Interval) {
	side := uint32(1) << uint(qorder)
	qMaxX := qx + side - 1
	qMaxY := qy + side - 1
	if qx > r.MaxX || qMaxX < r.MinX || qy > r.MaxY || qMaxY < r.MinY {
		return
	}
	// Fully covered (a single cell that overlaps is): one contiguous interval.
	if r.MinX <= qx && qMaxX <= r.MaxX && r.MinY <= qy && qMaxY <= r.MaxY {
		lo, hi := Encode(qx, qy), Encode(qx, qy)+uint64(side)*uint64(side)-1
		if n := len(*out); n > 0 && (*out)[n-1].Hi+1 == lo {
			(*out)[n-1].Hi = hi
		} else {
			*out = append(*out, Interval{Lo: lo, Hi: hi})
		}
		return
	}
	half := side / 2
	// Z-order visits quadrants in the order (0,0), (1,0), (0,1), (1,1).
	decomposeRec(r, qx, qy, qorder-1, out)
	decomposeRec(r, qx+half, qy, qorder-1, out)
	decomposeRec(r, qx, qy+half, qorder-1, out)
	decomposeRec(r, qx+half, qy+half, qorder-1, out)
}

// checkDecompose compares Decompose with the reference on one input.
func checkDecompose(t *testing.T, r Rect, order, max int) {
	t.Helper()
	got, err := Decompose(r, order, max)
	if err != nil {
		t.Fatalf("Decompose(%+v, %d, %d): %v", r, order, max, err)
	}
	if want := decomposeRef(r, order, max); !slices.Equal(got, want) {
		t.Fatalf("Decompose(%+v, order %d, cap %d):\n got %v\nwant %v", r, order, max, got, want)
	}
}

func TestDecomposeMatchesReference(t *testing.T) {
	caps := []int{0, 1, 2, 3, 16, 64, 1000}
	rng := rand.New(rand.NewSource(19))
	for _, order := range []int{1, 2, 3, 5, 8, 10, 12, 16, 31} {
		side := uint64(1) << order
		last := uint32(side - 1)
		// The exact list runs to about one interval per boundary cell: keep
		// the windows of the large grids narrow enough to enumerate.
		span := min(side, 600)
		for _, max := range caps {
			for i := 0; i < 4000; i++ {
				x0, y0 := uint32(rng.Int63n(int64(side))), uint32(rng.Int63n(int64(side)))
				w, h := uint32(rng.Int63n(int64(span))), uint32(rng.Int63n(int64(span)))
				if i%4 == 0 { // small windows: often fewer intervals than the cap
					w, h = w%12, h%12
				}
				checkDecompose(t, Rect{x0, y0, min(last, x0+w), min(last, y0+h)}, order, max)
			}
			// Single cells, the full grid, 1-wide strips on both axes, and
			// windows touching the grid's last row and column.
			mid := last / 2
			near := last - min(last, 300)
			for _, r := range []Rect{
				{0, 0, 0, 0}, {last, last, last, last}, {mid, mid, mid, mid},
				{near, near, last, last},
				{near, mid, last, mid}, {mid, near, mid, last},
				{near, 0, last, 0}, {0, near, 0, last},
				{near, last, last, last}, {last, near, last, last},
				{near, near, last - 1, last}, {near, near, last, last - min(last, 1)},
			} {
				checkDecompose(t, r, order, max)
			}
			if order <= 10 {
				checkDecompose(t, Rect{0, 0, last, last}, order, max)
				checkDecompose(t, Rect{0, mid, last, mid}, order, max)
				checkDecompose(t, Rect{mid, 0, mid, last}, order, max)
			}
		}
	}
	// Every window of the 16 × 16 grid under every cap that bites: among
	// them each way a gap still hidden inside a quadrant can tie with the
	// smallest gap kept.
	for x0 := uint32(0); x0 < 16; x0++ {
		for y0 := uint32(0); y0 < 16; y0++ {
			for x1 := x0; x1 < 16; x1++ {
				for y1 := y0; y1 < 16; y1++ {
					for max := 2; max <= 12; max++ {
						checkDecompose(t, Rect{x0, y0, x1, y1}, 4, max)
					}
				}
			}
		}
	}
	// Many equal gaps, so the survivors are decided by index: a 1-wide
	// column's gaps are all powers of four, each size repeated down the
	// column, and an odd-aligned 2-wide one adds a gap per row.
	for order := 3; order <= 9; order++ {
		last := uint32(1)<<order - 1
		for x := uint32(0); x < 8; x++ {
			for max := 1; max <= 40; max++ {
				checkDecompose(t, Rect{x, 0, x, last}, order, max)
				checkDecompose(t, Rect{0, x, last, x}, order, max)
				checkDecompose(t, Rect{x, 1, min(last, x+1), last - 1}, order, max)
			}
		}
	}
}

// FuzzDecompose: Decompose equals the reference on any window, order and
// cap, and its result is sorted, disjoint and covers every cell of the
// window.
func FuzzDecompose(f *testing.F) {
	f.Add(uint32(333), uint32(217), uint32(204), uint32(204), uint8(10), uint16(16))
	f.Add(uint32(149), uint32(33), uint32(572), uint32(572), uint8(10), uint16(16))
	f.Add(uint32(0), uint32(0), uint32(31), uint32(31), uint8(5), uint16(0))
	f.Add(uint32(5), uint32(0), uint32(0), uint32(500), uint8(9), uint16(7))
	f.Add(uint32(1)<<31-200, uint32(1)<<31-3, uint32(199), uint32(2), uint8(31), uint16(3))
	f.Fuzz(func(t *testing.T, x0, y0, w, h uint32, order uint8, max uint16) {
		order = order%MaxOrder + 1
		last := uint32(1)<<order - 1
		x0, y0 = x0&last, y0&last
		// Bound the exact list the reference enumerates.
		r := Rect{x0, y0, min(last, x0+w%700), min(last, y0+h%700)}
		checkDecompose(t, r, int(order), int(max))
		got, _ := Decompose(r, int(order), int(max))
		for i, iv := range got {
			if iv.Hi < iv.Lo || i > 0 && iv.Lo <= got[i-1].Hi+1 {
				t.Fatalf("%+v order %d cap %d: %v is not sorted and disjoint at %d", r, order, max, got, i)
			}
		}
		if max > 0 && len(got) > int(max) {
			t.Fatalf("%+v order %d cap %d: %d intervals", r, order, max, len(got))
		}
		// Every row of the window lies inside the list; with the cap off,
		// the list holds nothing else.
		var cells uint64
		for _, iv := range got {
			cells += iv.Len()
		}
		if max == 0 && cells != r.Cells() {
			t.Fatalf("%+v order %d: exact list covers %d cells, window has %d", r, order, cells, r.Cells())
		}
		if r.Cells() > 1<<16 {
			return
		}
		for x := r.MinX; x <= r.MaxX; x++ {
			for y := r.MinY; y <= r.MaxY; y++ {
				z := Encode(x, y)
				i, _ := slices.BinarySearchFunc(got, z, func(iv Interval, z uint64) int {
					if iv.Hi < z {
						return -1
					}
					return 1
				})
				if i == len(got) || !got[i].Contains(z) {
					t.Fatalf("%+v order %d cap %d: cell (%d,%d) not covered by %v", r, order, max, x, y, got)
				}
			}
		}
	})
}

// coalesceRef is the coalescing rule as first written and as Decompose
// documents it: bridge the smallest gap, the first one on ties, until max
// intervals remain. coalesce must equal it interval for interval.
func coalesceRef(ivs []Interval, max int) []Interval {
	for len(ivs) > max {
		best := 1
		bestGap := ivs[1].Lo - ivs[0].Hi
		for i := 2; i < len(ivs); i++ {
			if gap := ivs[i].Lo - ivs[i-1].Hi; gap < bestGap {
				bestGap = gap
				best = i
			}
		}
		ivs[best-1].Hi = ivs[best].Hi
		ivs = append(ivs[:best], ivs[best+1:]...)
	}
	return ivs
}

func TestCoalesceMatchesReference(t *testing.T) {
	caps := []int{1, 2, 16, 64}
	check := func(name string, exact []Interval) {
		t.Helper()
		for _, max := range caps {
			want := append([]Interval(nil), exact...)
			got := append([]Interval(nil), exact...)
			if len(exact) > max { // Decompose's own guard; len ≤ cap passes through
				want = coalesceRef(want, max)
				got = coalesce(got, max)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s cap %d over %d intervals:\n got %v\nwant %v", name, max, len(exact), got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(15))
	const order = 8
	side := uint32(1) << order
	for i := 0; i < 3000; i++ {
		// Alternate small windows (often len ≤ cap) with wide ones (hundreds
		// of intervals, whose gaps repeat: the Z-curve's gaps are sums of
		// powers of four, so ties are the common case, not the corner).
		span := side
		if i%3 == 0 {
			span = 12
		}
		x0, y0 := uint32(rng.Intn(int(side))), uint32(rng.Intn(int(side)))
		r := Rect{x0, y0, min(side-1, x0+uint32(rng.Intn(int(span)))), min(side-1, y0+uint32(rng.Intn(int(span))))}
		z, err := Decompose(r, order, 0)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("z %+v", r), z)
		h, err := HilbertDecompose(r, order, 0)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("hilbert %+v", r), h)
	}

	// Every gap equal: the survivors are decided by index alone.
	for _, n := range []int{2, 3, 17, 65, 200} {
		ivs := make([]Interval, n)
		for i := range ivs {
			ivs[i] = Interval{Lo: uint64(10 * i), Hi: uint64(10*i + 4)}
		}
		check(fmt.Sprintf("uniform %d", n), ivs)
	}
	// Few distinct gap sizes in random order.
	for i := 0; i < 200; i++ {
		ivs := make([]Interval, 1+rng.Intn(150))
		var at uint64
		for j := range ivs {
			at += 1 + uint64(rng.Intn(3))*5
			ivs[j] = Interval{Lo: at, Hi: at + uint64(rng.Intn(4))}
			at = ivs[j].Hi + 1
		}
		check(fmt.Sprintf("few-gaps #%d", i), ivs)
	}
}
