package exp

import (
	"maps"
	"math/rand"
	"slices"
	"time"

	"repro/internal/bxtree"
	"repro/internal/core"
	"repro/internal/policy"
)

// Ablation experiments isolate the PEB-tree's design choices that Sec. 5
// argues for: SV-above-ZV key ordering, the triangular search order, the
// choice of space-filling curve, and the policy encoding that assigns the
// sequence values.

var expAblationKeyOrder = Experiment{
	ID:      "ablation-keyorder",
	Title:   "Key layout ablation: SV-first (paper) vs. ZV-first keys",
	XLabel:  "users",
	Columns: []string{"svfirst_prq", "zvfirst_prq", "svfirst_pknn", "zvfirst_pknn"},
	Run: func(o Options) (*Table, error) {
		o.normalize()
		paperNs := []int{10_000, 30_000, 60_000}
		rows := make([]Row, len(paperNs))
		err := forEachPoint(o.Parallel, len(paperNs), func(i int) error {
			cfg := o.baseConfig()
			cfg.Workload.NumUsers = o.users(paperNs[i])
			tb, err := Build(cfg)
			if err != nil {
				return err
			}
			zvTree, err := tb.NewPEBVariant(func(c *core.Config) { c.Layout = core.ZVFirst })
			if err != nil {
				return err
			}
			prqs := tb.DS.GenPRQueries(cfg.QueryCount, cfg.WindowSide, cfg.QueryTime)
			knns := tb.DS.GenKNNQueries(cfg.QueryCount, cfg.K, cfg.QueryTime)
			svPRQ, err := MeasurePRQOn(tb.PEB, prqs)
			if err != nil {
				return err
			}
			zvPRQ, err := MeasurePRQOn(zvTree, prqs)
			if err != nil {
				return err
			}
			svKNN, err := MeasurePKNNOn(tb.PEB, knns)
			if err != nil {
				return err
			}
			zvKNN, err := MeasurePKNNOn(zvTree, knns)
			if err != nil {
				return err
			}
			o.logf("ablation-keyorder N=%d: prq %.1f vs %.1f, pknn %.1f vs %.1f",
				cfg.Workload.NumUsers, svPRQ, zvPRQ, svKNN, zvKNN)
			rows[i] = Row{X: float64(cfg.Workload.NumUsers), Vals: []float64{svPRQ, zvPRQ, svKNN, zvKNN}}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return &Table{ID: "ablation-keyorder", Title: "Key layout ablation: SV-first (paper) vs. ZV-first keys",
			XLabel: "users", Columns: []string{"svfirst_prq", "zvfirst_prq", "svfirst_pknn", "zvfirst_pknn"}, Rows: rows}, nil
	},
}

var expAblationSearchOrder = Experiment{
	ID:      "ablation-searchorder",
	Title:   "PkNN search-order ablation: triangular (Fig. 9) vs. column-major",
	XLabel:  "k",
	Columns: []string{"triangular_io", "columnmajor_io"},
	Run: func(o Options) (*Table, error) {
		o.normalize()
		tb, err := Build(o.baseConfig())
		if err != nil {
			return nil, err
		}
		cmTree, err := tb.NewPEBVariant(func(c *core.Config) { c.PKNNOrder = core.ColumnMajor })
		if err != nil {
			return nil, err
		}
		ks := []int{1, 3, 5, 7, 10}
		rows := make([]Row, 0, len(ks))
		for _, k := range ks {
			qs := tb.DS.GenKNNQueries(tb.Cfg.QueryCount, k, tb.Cfg.QueryTime)
			tri, err := MeasurePKNNOn(tb.PEB, qs)
			if err != nil {
				return nil, err
			}
			cm, err := MeasurePKNNOn(cmTree, qs)
			if err != nil {
				return nil, err
			}
			o.logf("ablation-searchorder k=%d: triangular=%.1f column-major=%.1f", k, tri, cm)
			rows = append(rows, Row{X: float64(k), Vals: []float64{tri, cm}})
		}
		return &Table{ID: "ablation-searchorder", Title: "PkNN search-order ablation: triangular (Fig. 9) vs. column-major",
			XLabel: "k", Columns: []string{"triangular_io", "columnmajor_io"}, Rows: rows}, nil
	},
}

var expAblationCurve = Experiment{
	ID:      "ablation-curve",
	Title:   "Space-filling-curve ablation: Z-order (paper) vs. Hilbert",
	XLabel:  "window_side",
	Columns: []string{"zcurve_io", "hilbert_io"},
	Run: func(o Options) (*Table, error) {
		o.normalize()
		tb, err := Build(o.baseConfig())
		if err != nil {
			return nil, err
		}
		hilTree, err := tb.NewPEBVariant(func(c *core.Config) { c.Base.Curve = bxtree.CurveHilbert })
		if err != nil {
			return nil, err
		}
		sides := []float64{100, 200, 400, 600, 800, 1000}
		rows := make([]Row, 0, len(sides))
		for _, side := range sides {
			qs := tb.DS.GenPRQueries(tb.Cfg.QueryCount, side, tb.Cfg.QueryTime)
			z, err := MeasurePRQOn(tb.PEB, qs)
			if err != nil {
				return nil, err
			}
			h, err := MeasurePRQOn(hilTree, qs)
			if err != nil {
				return nil, err
			}
			o.logf("ablation-curve side=%g: z=%.1f hilbert=%.1f", side, z, h)
			rows = append(rows, Row{X: side, Vals: []float64{z, h}})
		}
		return &Table{ID: "ablation-curve", Title: "Space-filling-curve ablation: Z-order (paper) vs. Hilbert",
			XLabel: "window_side", Columns: []string{"zcurve_io", "hilbert_io"}, Rows: rows}, nil
	},
}

// ablationThetas are the grouping factors the encoding ablation sweeps.
var ablationThetas = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

var expAblationEncoding = Experiment{
	ID:     "ablation-encoding",
	Title:  "Policy-encoding ablation: Fig. 5 (paper) vs. communities (engine) vs. Fig. 5 shuffled",
	XLabel: "theta",
	Columns: []string{"fig5_prq", "community_prq", "shuffled_prq", "fig5_pknn", "community_pknn", "shuffled_pknn",
		"fig5_encode_s", "community_encode_s"},
	Run: func(o Options) (*Table, error) {
		o.normalize()
		rows := make([]Row, len(ablationThetas))
		err := forEachPoint(o.Parallel, len(ablationThetas), func(i int) error {
			cfg := o.baseConfig()
			cfg.Workload.GroupingFactor = ablationThetas[i]
			tb, err := Build(cfg)
			if err != nil {
				return err
			}
			start := time.Now()
			community, err := policy.AssignCommunities(tb.DS.Policies, tb.DS.Users, tb.PEB.Config().SV)
			if err != nil {
				return err
			}
			communityTime := time.Since(start)
			communityTree, err := tb.newPEB(tb.PEB.Config(), community)
			if err != nil {
				return err
			}
			shuffledTree, err := tb.newPEB(tb.PEB.Config(), shuffleSV(tb.Assignment, cfg.Workload.Seed))
			if err != nil {
				return err
			}
			trees := []*core.Tree{tb.PEB, communityTree, shuffledTree}
			prqs := tb.DS.GenPRQueries(cfg.QueryCount, cfg.WindowSide, cfg.QueryTime)
			knns := tb.DS.GenKNNQueries(cfg.QueryCount, cfg.K, cfg.QueryTime)
			vals := make([]float64, 0, 8)
			for _, t := range trees {
				v, err := MeasurePRQOn(t, prqs)
				if err != nil {
					return err
				}
				vals = append(vals, v)
			}
			for _, t := range trees {
				v, err := MeasurePKNNOn(t, knns)
				if err != nil {
					return err
				}
				vals = append(vals, v)
			}
			vals = append(vals, tb.EncodeTime.Seconds(), communityTime.Seconds())
			o.logf("ablation-encoding theta=%g: prq fig5=%.2f community=%.2f shuffled=%.2f (N=%d)",
				ablationThetas[i], vals[0], vals[1], vals[2], cfg.Workload.NumUsers)
			rows[i] = Row{X: ablationThetas[i], Vals: vals}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return &Table{ID: "ablation-encoding", Title: "Policy-encoding ablation: Fig. 5 (paper) vs. communities (engine) vs. Fig. 5 shuffled",
			XLabel: "theta", Columns: []string{"fig5_prq", "community_prq", "shuffled_prq", "fig5_pknn", "community_pknn", "shuffled_pknn",
				"fig5_encode_s", "community_encode_s"}, Rows: rows}, nil
	},
}

// shuffleSV deals a's values out to its users in a seeded random order:
// the same multiset of keys with the grouping removed, the control that
// shows what Fig. 5's grouping buys.
func shuffleSV(a policy.Assignment, seed int64) policy.Assignment {
	users := slices.Sorted(maps.Keys(a.SV))
	values := make([]float64, len(users))
	for i, u := range users {
		values[i] = a.SV[u]
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(values), func(i, j int) { values[i], values[j] = values[j], values[i] })
	out := policy.Assignment{SV: make(map[policy.UserID]float64, len(users)), MaxSV: a.MaxSV, Groups: a.Groups}
	for i, u := range users {
		out.SV[u] = values[i]
	}
	return out
}
