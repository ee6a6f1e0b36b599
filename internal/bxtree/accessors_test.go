package bxtree

import (
	"testing"

	"repro/internal/motion"
	"repro/internal/store"
	"repro/internal/zcurve"
)

func TestAccessors(t *testing.T) {
	cfg := DefaultConfig()
	pool := store.NewBufferPool(store.NewMemDisk(), store.DefaultBufferPages)
	tr, err := New(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Config(); got.DeltaTmu != cfg.DeltaTmu {
		t.Errorf("Config = %+v", got)
	}
	if tr.Pool() != pool {
		t.Error("Pool mismatch")
	}
	if tr.LeafCount() != 1 {
		t.Errorf("empty tree LeafCount = %d, want 1", tr.LeafCount())
	}
	for i := 0; i < 200; i++ {
		if err := tr.Insert(motion.Object{UID: motion.UserID(i + 1), X: float64(i), Y: float64(i), T: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.LeafCount() < 2 {
		t.Errorf("LeafCount = %d after 200 inserts", tr.LeafCount())
	}
}

func TestCurveKindString(t *testing.T) {
	if CurveZ.String() != "z-order" || CurveHilbert.String() != "hilbert" {
		t.Error("CurveKind.String mismatch")
	}
	if CurveKind(9).String() == "" {
		t.Error("unknown CurveKind should still stringify")
	}
}

func TestConfigRejectsUnknownCurve(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Curve = CurveKind(42)
	if err := cfg.Validate(); err == nil {
		t.Error("unknown curve accepted")
	}
}

func TestCurveValueAndDecomposeHilbert(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Curve = CurveHilbert
	// CurveValue must agree with the grid's Hilbert mapping.
	if got, want := cfg.CurveValue(500, 500), cfg.Grid.HilbertValue(500, 500); got != want {
		t.Errorf("CurveValue = %d, want %d", got, want)
	}
	rect, ok := cfg.Grid.RectOf(100, 100, 300, 300)
	if !ok {
		t.Fatal("RectOf failed")
	}
	ivs, err := cfg.DecomposeRect(rect)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) == 0 || len(ivs) > cfg.MaxIntervals {
		t.Fatalf("DecomposeRect returned %d intervals (cap %d)", len(ivs), cfg.MaxIntervals)
	}
	// Every cell of the rectangle must be covered.
	for x := rect.MinX; x <= rect.MaxX; x += 37 {
		for y := rect.MinY; y <= rect.MaxY; y += 41 {
			h := zcurve.HilbertEncode(x, y, cfg.Grid.Order)
			covered := false
			for _, iv := range ivs {
				if iv.Contains(h) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("cell (%d,%d) h=%d not covered", x, y, h)
			}
		}
	}
}

func TestCoverIntervalBothCurves(t *testing.T) {
	for _, curve := range []CurveKind{CurveZ, CurveHilbert} {
		cfg := DefaultConfig()
		cfg.Curve = curve
		rect, ok := cfg.Grid.RectOf(200, 300, 450, 650)
		if !ok {
			t.Fatal("RectOf failed")
		}
		iv, err := cfg.CoverInterval(rect)
		if err != nil {
			t.Fatalf("%v: %v", curve, err)
		}
		// The interval must contain every cell's curve value.
		for x := rect.MinX; x <= rect.MaxX; x += 53 {
			for y := rect.MinY; y <= rect.MaxY; y += 59 {
				var v uint64
				if curve == CurveHilbert {
					v = zcurve.HilbertEncode(x, y, cfg.Grid.Order)
				} else {
					v = zcurve.Encode(x, y)
				}
				if !iv.Contains(v) {
					t.Fatalf("%v: cell (%d,%d) value %d outside cover %v", curve, x, y, v, iv)
				}
			}
		}
		// Nesting: a sub-rectangle's cover lies inside the cover.
		sub := zcurve.Rect{MinX: rect.MinX + 10, MinY: rect.MinY + 10, MaxX: rect.MaxX - 10, MaxY: rect.MaxY - 10}
		siv, err := cfg.CoverInterval(sub)
		if err != nil {
			t.Fatal(err)
		}
		if siv.Lo < iv.Lo || siv.Hi > iv.Hi {
			t.Fatalf("%v: sub-cover %v escapes cover %v", curve, siv, iv)
		}
	}
}

func TestPartitionTrackerDirect(t *testing.T) {
	cfg := DefaultConfig()
	pt := NewPartitionTracker(cfg)
	if pt.Size() != 0 || pt.LabelCount() != 0 {
		t.Fatal("fresh tracker not empty")
	}
	pt.Set(1, 2)
	pt.Set(2, 2)
	pt.Set(3, 3)
	if pt.Size() != 3 || pt.LabelCount() != 2 {
		t.Fatalf("Size=%d LabelCount=%d", pt.Size(), pt.LabelCount())
	}
	if li, ok := pt.Label(1); !ok || li != 2 {
		t.Errorf("Label(1) = %d, %v", li, ok)
	}
	if _, ok := pt.Label(99); ok {
		t.Error("Label of untracked uid")
	}
	// Move u1 to another label.
	pt.Set(1, 3)
	if pt.LabelCount() != 2 {
		t.Errorf("LabelCount after move = %d", pt.LabelCount())
	}
	pt.Remove(2)
	if pt.LabelCount() != 1 || pt.Size() != 2 {
		t.Errorf("after remove: LabelCount=%d Size=%d", pt.LabelCount(), pt.Size())
	}
	pt.Remove(99) // no-op
	// Active merges labels that alias to one partition under the max gap.
	pt2 := NewPartitionTracker(cfg) // n=2 → period 3: labels 2 and 5 alias
	pt2.Set(1, 2)
	pt2.Set(2, 5)
	refs := pt2.Active(100)
	if len(refs) != 1 {
		t.Fatalf("aliasing labels produced %d partitions, want 1", len(refs))
	}
	// Gaps: |120−100| = 20, |300−100| = 200 → merged gap 200.
	if refs[0].Gap != 200 {
		t.Errorf("merged gap = %g, want 200", refs[0].Gap)
	}
}

// BenchmarkCoverIntervalHilbert is one PkNN matrix cell on the Hilbert
// curve: the cover of a window some rounds into the search, a third of the
// space on a side. The decomposition behind it is exact, so the cost is the
// boundary's — coalescing it to one interval must add one pass, not a
// quadratic term.
func BenchmarkCoverIntervalHilbert(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Curve = CurveHilbert
	rect, ok := cfg.Grid.RectOf(310, 270, 650, 610)
	if !ok {
		b.Fatal("RectOf failed")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.CoverInterval(rect); err != nil {
			b.Fatal(err)
		}
	}
}
