package exp

import (
	"strings"
	"testing"
)

// tinyOptions makes experiments fast enough for unit testing: populations
// floor at 1000 users and 20 queries per point.
func tinyOptions() Options {
	return Options{Scale: 0.0001, QueryCount: 20, Parallel: 4}
}

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Workload.NumUsers = 1500
	cfg.Workload.PoliciesPerUser = 10
	cfg.Workload.GroupSize = 30
	cfg.QueryCount = 25
	return cfg
}

func TestBuildTestbed(t *testing.T) {
	tb, err := Build(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tb.PEB.Size() != 1500 || tb.Spatial.Size() != 1500 {
		t.Fatalf("sizes = %d, %d; want 1500", tb.PEB.Size(), tb.Spatial.Size())
	}
	if tb.EncodeTime <= 0 {
		t.Error("encode time not recorded")
	}
	if len(tb.Assignment.SV) != 1500 {
		t.Errorf("assignment covers %d users", len(tb.Assignment.SV))
	}
}

func TestMeasurePRQAndPKNN(t *testing.T) {
	tb, err := Build(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	prq := tb.DS.GenPRQueries(25, 200, 60)
	m, err := tb.MeasurePRQ(prq)
	if err != nil {
		t.Fatal(err)
	}
	if m.PEB <= 0 || m.Spatial <= 0 {
		t.Errorf("non-positive I/O: %+v", m)
	}
	knn := tb.DS.GenKNNQueries(25, 5, 60)
	m, err = tb.MeasurePKNN(knn)
	if err != nil {
		t.Fatal(err)
	}
	if m.PEB <= 0 || m.Spatial <= 0 {
		t.Errorf("non-positive kNN I/O: %+v", m)
	}
}

func TestMeasureEmptyQueries(t *testing.T) {
	tb, err := Build(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.MeasurePRQ(nil); err == nil {
		t.Error("empty PRQ set accepted")
	}
	if _, err := tb.MeasurePKNN(nil); err == nil {
		t.Error("empty PkNN set accepted")
	}
}

func TestByID(t *testing.T) {
	for _, e := range Experiments {
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("ByID(%q) failed", e.ID)
		}
		if e.Title == "" || e.XLabel == "" || len(e.Columns) == 0 || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
	// IDs must be unique.
	seen := make(map[string]bool)
	for _, e := range Experiments {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestExperimentsSmoke runs every registered experiment at minimum scale
// and validates the result tables' structure.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds many testbeds")
	}
	o := tinyOptions()
	for _, e := range Experiments {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(o)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table id %q, want %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range tbl.Rows {
				if len(row.Vals) != len(tbl.Columns) {
					t.Fatalf("row %g has %d values, want %d", row.X, len(row.Vals), len(tbl.Columns))
				}
			}
		})
	}
}

func TestTableFormats(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "demo", XLabel: "n",
		Columns: []string{"a", "b"},
		Rows:    []Row{{X: 1, Vals: []float64{2, 3.5}}, {X: 10, Vals: []float64{20, 30}}},
	}
	s := tbl.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "3.500") {
		t.Errorf("String output missing content:\n%s", s)
	}
	csv := tbl.CSV()
	want := "n,a,b\n1,2,3.500\n10,20,30\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestOptionsNormalize(t *testing.T) {
	var o Options
	o.normalize()
	if o.Scale != 1 || o.Seed != 1 || o.Parallel < 1 || o.QueryCount != DefaultQueryCount {
		t.Errorf("normalized = %+v", o)
	}
	if n := (Options{Scale: 0.001}).users(60_000); n != 1000 {
		t.Errorf("users floor = %d, want 1000", n)
	}
	if n := (Options{Scale: 0.5}).users(60_000); n != 30_000 {
		t.Errorf("users(0.5 × 60K) = %d", n)
	}
}

// TestAblationEncodingShape holds the engine's community encoding to its
// purpose across populations of 3 600 to 6 000 users × 50 policies and two
// seeds: at θ ≥ 0.7 it costs at most three quarters of Fig. 5's pages per
// PRQ and PkNN, at θ ≥ 0.3 never more, and at θ 0.1, where the graph has no
// groups to find, at most 10 % more — Fig. 5 itself, run with its ties in
// another order, moves by up to 16 % there. Below 3 600 users the tree is
// barely larger than the 50-page buffer, and pages count the leaves that
// do not fit rather than locality.
func TestAblationEncodingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ninety testbeds")
	}
	for _, seed := range []int64{1, 2} {
		for _, scale := range []float64{0.06, 0.08, 0.1} {
			tbl, err := expAblationEncoding.Run(Options{Scale: scale, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range tbl.Rows {
				bound := 1.1
				switch {
				case row.X >= 0.7:
					bound = 0.75
				case row.X >= 0.3:
					bound = 1
				}
				for _, q := range []struct {
					name              string
					fig5, communities int
				}{{"PRQ", 0, 1}, {"PkNN", 3, 4}} {
					if fig5, comm := row.Vals[q.fig5], row.Vals[q.communities]; comm > bound*fig5 {
						t.Errorf("seed %d, scale %g, θ %g: %s pages %.3f, above %g × Fig. 5's %.3f",
							seed, scale, row.X, q.name, comm, bound, fig5)
					}
				}
			}
		}
	}
}
