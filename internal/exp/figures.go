package exp

import (
	"fmt"
	"time"

	"repro/internal/costmodel"
	"repro/internal/workload"
)

// Experiment is one reproducible table or figure from the paper.
type Experiment struct {
	ID      string
	Title   string
	XLabel  string
	Columns []string
	Run     func(o Options) (*Table, error)
}

// Experiments lists every registered experiment in paper order.
var Experiments = []Experiment{
	expFig11a, expFig11b,
	expFig12a, expFig12b,
	expFig13a, expFig13b,
	expFig14a, expFig14b,
	expFig15a, expFig15b,
	expFig16a, expFig16b,
	expFig17a, expFig17b,
	expFig18a, expFig18b,
	expFig19a, expFig19b, expFig19c,
	expAblationKeyOrder, expAblationSearchOrder, expAblationCurve, expAblationEncoding,
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Sweep values from Table 1.
var (
	sweepUsers    = []int{10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 70_000, 80_000, 90_000, 100_000}
	sweepPolicies = []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	sweepTheta    = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	sweepWindow   = []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	sweepK        = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	sweepHubs     = []int{25, 50, 100, 200, 300, 400, 500}
	sweepSpeed    = []float64{1, 2, 3, 4, 5, 6}
)

// queryMode distinguishes the two query families.
type queryMode int

const (
	modePRQ queryMode = iota
	modePKNN
)

func (m queryMode) String() string {
	if m == modePKNN {
		return "PkNN"
	}
	return "PRQ"
}

// genQueries draws the point's query set under its own configuration.
func genQueries(tb *Testbed, mode queryMode) ([]workload.PRQuery, []workload.KNNQuery) {
	if mode == modePKNN {
		return nil, tb.DS.GenKNNQueries(tb.Cfg.QueryCount, tb.Cfg.K, tb.Cfg.QueryTime)
	}
	return tb.DS.GenPRQueries(tb.Cfg.QueryCount, tb.Cfg.WindowSide, tb.Cfg.QueryTime), nil
}

// measurePoint builds one testbed and measures one query family on it.
func measurePoint(cfg Config, mode queryMode) (Measured, *Testbed, error) {
	tb, err := Build(cfg)
	if err != nil {
		return Measured{}, nil, err
	}
	prq, knn := genQueries(tb, mode)
	var m Measured
	if mode == modePKNN {
		m, err = tb.MeasurePKNN(knn)
	} else {
		m, err = tb.MeasurePRQ(prq)
	}
	if err != nil {
		return Measured{}, nil, err
	}
	return m, tb, nil
}

// sweepIO runs the standard two-column (PEB vs spatial) sweep used by most
// figures: one testbed per x value, built in parallel.
func sweepIO(o Options, id string, xs []float64, mode queryMode, mkCfg func(i int) Config) ([]Row, error) {
	rows := make([]Row, len(xs))
	err := forEachPoint(o.Parallel, len(xs), func(i int) error {
		start := time.Now()
		m, tb, err := measurePoint(mkCfg(i), mode)
		if err != nil {
			return fmt.Errorf("%s point %g: %w", id, xs[i], err)
		}
		o.logf("%s %s x=%g: peb=%.1f spatial=%.1f (N=%d, %v)",
			id, mode, xs[i], m.PEB, m.Spatial, tb.DS.Cfg.NumUsers, time.Since(start).Round(time.Millisecond))
		rows[i] = Row{X: xs[i], Vals: []float64{m.PEB, m.Spatial}}
		return nil
	})
	return rows, err
}

var ioColumns = []string{"peb_io", "spatial_io"}

// --- Fig. 11: preprocessing time for policy encoding -----------------------

var expFig11a = Experiment{
	ID:      "fig11a",
	Title:   "Preprocessing time vs. number of users (Fig. 11a)",
	XLabel:  "users",
	Columns: []string{"encode_seconds"},
	Run: func(o Options) (*Table, error) {
		o.normalize()
		rows := make([]Row, len(sweepUsers))
		err := forEachPoint(o.Parallel, len(sweepUsers), func(i int) error {
			cfg := o.baseConfig()
			cfg.Workload.NumUsers = o.users(sweepUsers[i])
			ds, err := workload.Generate(cfg.Workload)
			if err != nil {
				return err
			}
			start := time.Now()
			if _, err := ds.Assign(); err != nil {
				return err
			}
			secs := time.Since(start).Seconds()
			o.logf("fig11a N=%d: %.2fs", cfg.Workload.NumUsers, secs)
			rows[i] = Row{X: float64(cfg.Workload.NumUsers), Vals: []float64{secs}}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return &Table{ID: "fig11a", Title: "Preprocessing time vs. number of users (Fig. 11a)", XLabel: "users", Columns: []string{"encode_seconds"}, Rows: rows}, nil
	},
}

var expFig11b = Experiment{
	ID:      "fig11b",
	Title:   "Preprocessing time vs. policies per user (Fig. 11b)",
	XLabel:  "policies_per_user",
	Columns: []string{"encode_seconds"},
	Run: func(o Options) (*Table, error) {
		o.normalize()
		rows := make([]Row, len(sweepPolicies))
		err := forEachPoint(o.Parallel, len(sweepPolicies), func(i int) error {
			cfg := o.baseConfig()
			cfg.Workload.PoliciesPerUser = sweepPolicies[i]
			cfg.Workload.GroupSize = 0 // re-derive from Np
			ds, err := workload.Generate(cfg.Workload)
			if err != nil {
				return err
			}
			start := time.Now()
			if _, err := ds.Assign(); err != nil {
				return err
			}
			secs := time.Since(start).Seconds()
			o.logf("fig11b Np=%d: %.2fs", sweepPolicies[i], secs)
			rows[i] = Row{X: float64(sweepPolicies[i]), Vals: []float64{secs}}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return &Table{ID: "fig11b", Title: "Preprocessing time vs. policies per user (Fig. 11b)", XLabel: "policies_per_user", Columns: []string{"encode_seconds"}, Rows: rows}, nil
	},
}

// --- Fig. 12: effect of total number of users -------------------------------

func usersSweep(id, title string, mode queryMode) Experiment {
	return Experiment{
		ID: id, Title: title, XLabel: "users", Columns: ioColumns,
		Run: func(o Options) (*Table, error) {
			o.normalize()
			xs := make([]float64, len(sweepUsers))
			for i, n := range sweepUsers {
				xs[i] = float64(o.users(n))
			}
			rows, err := sweepIO(o, id, xs, mode, func(i int) Config {
				cfg := o.baseConfig()
				cfg.Workload.NumUsers = o.users(sweepUsers[i])
				return cfg
			})
			if err != nil {
				return nil, err
			}
			return &Table{ID: id, Title: title, XLabel: "users", Columns: ioColumns, Rows: rows}, nil
		},
	}
}

var (
	expFig12a = usersSweep("fig12a", "PRQ I/O vs. number of users (Fig. 12a)", modePRQ)
	expFig12b = usersSweep("fig12b", "PkNN I/O vs. number of users (Fig. 12b)", modePKNN)
)

// --- Fig. 13: effect of number of policies per user -------------------------

func policiesSweep(id, title string, mode queryMode) Experiment {
	return Experiment{
		ID: id, Title: title, XLabel: "policies_per_user", Columns: ioColumns,
		Run: func(o Options) (*Table, error) {
			o.normalize()
			xs := make([]float64, len(sweepPolicies))
			for i, np := range sweepPolicies {
				xs[i] = float64(np)
			}
			rows, err := sweepIO(o, id, xs, mode, func(i int) Config {
				cfg := o.baseConfig()
				cfg.Workload.PoliciesPerUser = sweepPolicies[i]
				cfg.Workload.GroupSize = 0
				return cfg
			})
			if err != nil {
				return nil, err
			}
			return &Table{ID: id, Title: title, XLabel: "policies_per_user", Columns: ioColumns, Rows: rows}, nil
		},
	}
}

var (
	expFig13a = policiesSweep("fig13a", "PRQ I/O vs. policies per user (Fig. 13a)", modePRQ)
	expFig13b = policiesSweep("fig13b", "PkNN I/O vs. policies per user (Fig. 13b)", modePKNN)
)

// --- Fig. 14: effect of the grouping factor ---------------------------------

func thetaSweep(id, title string, mode queryMode) Experiment {
	return Experiment{
		ID: id, Title: title, XLabel: "grouping_factor", Columns: ioColumns,
		Run: func(o Options) (*Table, error) {
			o.normalize()
			rows, err := sweepIO(o, id, sweepTheta, mode, func(i int) Config {
				cfg := o.baseConfig()
				cfg.Workload.GroupingFactor = sweepTheta[i]
				return cfg
			})
			if err != nil {
				return nil, err
			}
			return &Table{ID: id, Title: title, XLabel: "grouping_factor", Columns: ioColumns, Rows: rows}, nil
		},
	}
}

var (
	expFig14a = thetaSweep("fig14a", "PRQ I/O vs. grouping factor (Fig. 14a)", modePRQ)
	expFig14b = thetaSweep("fig14b", "PkNN I/O vs. grouping factor (Fig. 14b)", modePKNN)
)

// --- Fig. 15: effect of query parameters ------------------------------------

var expFig15a = Experiment{
	ID:      "fig15a",
	Title:   "PRQ I/O vs. query window size (Fig. 15a)",
	XLabel:  "window_side",
	Columns: ioColumns,
	Run: func(o Options) (*Table, error) {
		o.normalize()
		tb, err := Build(o.baseConfig())
		if err != nil {
			return nil, err
		}
		rows := make([]Row, 0, len(sweepWindow))
		for _, side := range sweepWindow {
			qs := tb.DS.GenPRQueries(tb.Cfg.QueryCount, side, tb.Cfg.QueryTime)
			m, err := tb.MeasurePRQ(qs)
			if err != nil {
				return nil, err
			}
			o.logf("fig15a side=%g: peb=%.1f spatial=%.1f", side, m.PEB, m.Spatial)
			rows = append(rows, Row{X: side, Vals: []float64{m.PEB, m.Spatial}})
		}
		return &Table{ID: "fig15a", Title: "PRQ I/O vs. query window size (Fig. 15a)", XLabel: "window_side", Columns: ioColumns, Rows: rows}, nil
	},
}

var expFig15b = Experiment{
	ID:      "fig15b",
	Title:   "PkNN I/O vs. k (Fig. 15b)",
	XLabel:  "k",
	Columns: ioColumns,
	Run: func(o Options) (*Table, error) {
		o.normalize()
		tb, err := Build(o.baseConfig())
		if err != nil {
			return nil, err
		}
		rows := make([]Row, 0, len(sweepK))
		for _, k := range sweepK {
			qs := tb.DS.GenKNNQueries(tb.Cfg.QueryCount, k, tb.Cfg.QueryTime)
			m, err := tb.MeasurePKNN(qs)
			if err != nil {
				return nil, err
			}
			o.logf("fig15b k=%d: peb=%.1f spatial=%.1f", k, m.PEB, m.Spatial)
			rows = append(rows, Row{X: float64(k), Vals: []float64{m.PEB, m.Spatial}})
		}
		return &Table{ID: "fig15b", Title: "PkNN I/O vs. k (Fig. 15b)", XLabel: "k", Columns: ioColumns, Rows: rows}, nil
	},
}

// --- Fig. 16: effect of spatial distribution (network data) -----------------

func hubsSweep(id, title string, mode queryMode) Experiment {
	return Experiment{
		ID: id, Title: title, XLabel: "destinations", Columns: ioColumns,
		Run: func(o Options) (*Table, error) {
			o.normalize()
			xs := make([]float64, len(sweepHubs))
			for i, h := range sweepHubs {
				xs[i] = float64(h)
			}
			rows, err := sweepIO(o, id, xs, mode, func(i int) Config {
				cfg := o.baseConfig()
				cfg.Workload.Distribution = workload.Network
				cfg.Workload.NumHubs = sweepHubs[i]
				return cfg
			})
			if err != nil {
				return nil, err
			}
			return &Table{ID: id, Title: title, XLabel: "destinations", Columns: ioColumns, Rows: rows}, nil
		},
	}
}

var (
	expFig16a = hubsSweep("fig16a", "PRQ I/O vs. number of destinations, network data (Fig. 16a)", modePRQ)
	expFig16b = hubsSweep("fig16b", "PkNN I/O vs. number of destinations, network data (Fig. 16b)", modePKNN)
)

// --- Fig. 17: effect of object speed ----------------------------------------

func speedSweep(id, title string, mode queryMode) Experiment {
	return Experiment{
		ID: id, Title: title, XLabel: "max_speed", Columns: ioColumns,
		Run: func(o Options) (*Table, error) {
			o.normalize()
			rows, err := sweepIO(o, id, sweepSpeed, mode, func(i int) Config {
				cfg := o.baseConfig()
				cfg.Workload.MaxSpeed = sweepSpeed[i]
				return cfg
			})
			if err != nil {
				return nil, err
			}
			return &Table{ID: id, Title: title, XLabel: "max_speed", Columns: ioColumns, Rows: rows}, nil
		},
	}
}

var (
	expFig17a = speedSweep("fig17a", "PRQ I/O vs. maximum speed (Fig. 17a)", modePRQ)
	expFig17b = speedSweep("fig17b", "PkNN I/O vs. maximum speed (Fig. 17b)", modePKNN)
)

// --- Fig. 18: effect of updates ---------------------------------------------

func updatesSweep(id, title string, mode queryMode) Experiment {
	return Experiment{
		ID: id, Title: title, XLabel: "percent_updated", Columns: ioColumns,
		Run: func(o Options) (*Table, error) {
			o.normalize()
			cfg := o.baseConfig()
			tb, err := Build(cfg)
			if err != nil {
				return nil, err
			}
			// Eight 25% batches: the dataset is fully updated twice
			// (Sec. 7.9). Batches are 10 time units apart, so no object's
			// inter-update gap exceeds ∆tmu = 120.
			rows := make([]Row, 0, 8)
			now := cfg.QueryTime
			for batch := 1; batch <= 8; batch++ {
				now += 10
				if err := tb.ApplyUpdates(tb.DS.UpdateBatch(0.25, now)); err != nil {
					return nil, err
				}
				var m Measured
				if mode == modePKNN {
					m, err = tb.MeasurePKNN(tb.DS.GenKNNQueries(cfg.QueryCount, cfg.K, now))
				} else {
					m, err = tb.MeasurePRQ(tb.DS.GenPRQueries(cfg.QueryCount, cfg.WindowSide, now))
				}
				if err != nil {
					return nil, err
				}
				pct := float64(batch) * 25
				o.logf("%s %.0f%% updated: peb=%.1f spatial=%.1f", id, pct, m.PEB, m.Spatial)
				rows = append(rows, Row{X: pct, Vals: []float64{m.PEB, m.Spatial}})
			}
			return &Table{ID: id, Title: title, XLabel: "percent_updated", Columns: ioColumns, Rows: rows}, nil
		},
	}
}

var (
	expFig18a = updatesSweep("fig18a", "PRQ I/O after update rounds (Fig. 18a)", modePRQ)
	expFig18b = updatesSweep("fig18b", "PkNN I/O after update rounds (Fig. 18b)", modePKNN)
)

// --- Fig. 19: cost-model accuracy -------------------------------------------

// calibrate measures two default-workload points at different densities and
// fits Eq. 7's a1, a2 (Sec. 6: "any two sample points from the experiments
// on the datasets with the same location distribution").
func calibrate(o Options) (costmodel.Model, error) {
	sample := func(users int) (costmodel.Sample, error) {
		cfg := o.baseConfig()
		cfg.Workload.NumUsers = users
		m, tb, err := measurePoint(cfg, modePRQ)
		if err != nil {
			return costmodel.Sample{}, err
		}
		return costmodel.Sample{
			Params: costmodel.Params{
				N:     users,
				Np:    cfg.Workload.PoliciesPerUser,
				Theta: cfg.Workload.GroupingFactor,
				Nl:    tb.PEB.LeafCount(),
				L:     cfg.Workload.Space,
			},
			IO: m.PEB,
		}, nil
	}
	n1 := o.users(20_000)
	n2 := o.users(80_000)
	if n2 <= n1 {
		n2 = 2 * n1 // tiny scales floor both sizes; keep densities distinct
	}
	s1, err := sample(n1)
	if err != nil {
		return costmodel.Model{}, err
	}
	s2, err := sample(n2)
	if err != nil {
		return costmodel.Model{}, err
	}
	model, err := costmodel.Calibrate(s1, s2)
	if err != nil {
		return costmodel.Model{}, err
	}
	o.logf("calibrated cost model: a1=%.4g a2=%.4g", model.A1, model.A2)
	return model, nil
}

var modelColumns = []string{"measured_io", "model_io"}

// costModelSweep compares measured PEB PRQ I/O with the calibrated model
// while varying one parameter.
func costModelSweep(id, title, xlabel string, xs []float64, mkCfg func(o Options, i int) Config) Experiment {
	return Experiment{
		ID: id, Title: title, XLabel: xlabel, Columns: modelColumns,
		Run: func(o Options) (*Table, error) {
			o.normalize()
			model, err := calibrate(o)
			if err != nil {
				return nil, err
			}
			rows := make([]Row, len(xs))
			err = forEachPoint(o.Parallel, len(xs), func(i int) error {
				cfg := mkCfg(o, i)
				m, tb, err := measurePoint(cfg, modePRQ)
				if err != nil {
					return err
				}
				est, err := model.Cost(costmodel.Params{
					N:     cfg.Workload.NumUsers,
					Np:    cfg.Workload.PoliciesPerUser,
					Theta: cfg.Workload.GroupingFactor,
					Nl:    tb.PEB.LeafCount(),
					L:     cfg.Workload.Space,
				})
				if err != nil {
					return err
				}
				o.logf("%s x=%g: measured=%.1f model=%.1f", id, xs[i], m.PEB, est)
				rows[i] = Row{X: xs[i], Vals: []float64{m.PEB, est}}
				return nil
			})
			if err != nil {
				return nil, err
			}
			return &Table{ID: id, Title: title, XLabel: xlabel, Columns: modelColumns, Rows: rows}, nil
		},
	}
}

var expFig19a = costModelSweep("fig19a",
	"Cost model vs. measured I/O, sweeping users (Fig. 19 left)", "users",
	func() []float64 {
		xs := make([]float64, len(sweepUsers))
		for i, n := range sweepUsers {
			xs[i] = float64(n)
		}
		return xs
	}(),
	func(o Options, i int) Config {
		cfg := o.baseConfig()
		cfg.Workload.NumUsers = o.users(sweepUsers[i])
		return cfg
	})

var expFig19b = costModelSweep("fig19b",
	"Cost model vs. measured I/O, sweeping policies per user (Fig. 19 middle)", "policies_per_user",
	func() []float64 {
		xs := make([]float64, len(sweepPolicies))
		for i, np := range sweepPolicies {
			xs[i] = float64(np)
		}
		return xs
	}(),
	func(o Options, i int) Config {
		cfg := o.baseConfig()
		cfg.Workload.PoliciesPerUser = sweepPolicies[i]
		cfg.Workload.GroupSize = 0
		return cfg
	})

var expFig19c = costModelSweep("fig19c",
	"Cost model vs. measured I/O, sweeping grouping factor (Fig. 19 right)", "grouping_factor",
	sweepTheta,
	func(o Options, i int) Config {
		cfg := o.baseConfig()
		cfg.Workload.GroupingFactor = sweepTheta[i]
		return cfg
	})

// Note: fig19a's x axis reports the paper-scale user counts; the scaled
// population is what is actually measured (same as fig12a).
