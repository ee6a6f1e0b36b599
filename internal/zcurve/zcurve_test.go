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

// BenchmarkDecompose is one ZVconvert of the benchmark's PRQ: a 200-side
// window of the 1000-side space on the order-10 grid (≈ 205 cells a side,
// off the quadrant boundaries), capped at bxtree's default 16 intervals.
func BenchmarkDecompose(b *testing.B) {
	r := Rect{333, 217, 537, 421}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(r, 10, 16); err != nil {
			b.Fatal(err)
		}
	}
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
