// Package exp is the experiment harness behind every table and figure of
// the paper's empirical study (Sec. 7). Each figure is registered as an
// Experiment that, when run, generates the workload, builds the PEB-tree
// and the spatial-index baseline over identical data, replays the query
// set against both, and reports the mean I/O cost — buffer misses against
// a 50-page LRU buffer over 4 KB pages, the paper's metric — per query.
//
// Experiments accept a population scale factor so the full sweeps can be
// reproduced quickly at reduced size; shapes are preserved.
package exp

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/bxtree"
	"repro/internal/core"
	"repro/internal/motion"
	"repro/internal/policy"
	"repro/internal/spatialidx"
	"repro/internal/store"
	"repro/internal/workload"
)

// Config fixes one experimental data point (Table 1's settings).
type Config struct {
	Workload   workload.Config
	Buffer     int     // LRU buffer capacity in pages
	WindowSide float64 // PRQ window side length
	K          int     // PkNN k
	QueryCount int     // queries averaged per data point
	QueryTime  float64 // tq
}

// Defaults from Table 1 (bold values).
const (
	DefaultWindowSide = 200.0
	DefaultK          = 5
	DefaultQueryCount = 200
	DefaultQueryTime  = 60.0
)

// DefaultConfig returns the paper's default setting: 60 K uniform users,
// 50 policies per user, θ = 0.7, window 200, k = 5, 50-page buffer,
// 200 queries per measurement.
func DefaultConfig() Config {
	return Config{
		Workload:   workload.DefaultConfig(),
		Buffer:     store.DefaultBufferPages,
		WindowSide: DefaultWindowSide,
		K:          DefaultK,
		QueryCount: DefaultQueryCount,
		QueryTime:  DefaultQueryTime,
	}
}

// Testbed holds one dataset and both indexes built over it.
type Testbed struct {
	Cfg        Config
	DS         *workload.Dataset
	Assignment policy.Assignment
	// EncodeTime is the wall-clock duration of the offline policy-encoding
	// phase (sequence-value assignment), the quantity of Fig. 11.
	EncodeTime time.Duration

	PEB     *core.Tree
	Spatial *spatialidx.Index
}

// indexConfig derives the index parameters from the workload so that the
// grid, speeds, and space agree.
func indexConfig(cfg Config) (core.Config, error) {
	base := bxtree.DefaultConfig()
	grid := base.Grid
	grid.Side = cfg.Workload.Space
	base.Grid = grid
	base.MaxSpeed = cfg.Workload.MaxSpeed
	c := core.DefaultConfig()
	c.Base = base
	if err := c.Validate(); err != nil {
		return core.Config{}, err
	}
	return c, nil
}

// Build generates the dataset, runs policy encoding, and loads both
// indexes. The two indexes use separate disks and buffer pools so their
// I/O counters are independent.
func Build(cfg Config) (*Testbed, error) {
	ds, err := workload.Generate(cfg.Workload)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	assignment, err := ds.Assign()
	if err != nil {
		return nil, err
	}
	encodeTime := time.Since(start)

	pebCfg, err := indexConfig(cfg)
	if err != nil {
		return nil, err
	}
	peb, err := core.New(pebCfg, store.NewBufferPool(store.NewMemDisk(), cfg.Buffer), ds.Policies, assignment)
	if err != nil {
		return nil, err
	}
	spatial, err := spatialidx.New(pebCfg.Base, store.NewBufferPool(store.NewMemDisk(), cfg.Buffer), ds.Policies)
	if err != nil {
		return nil, err
	}
	for _, o := range ds.Objects {
		if err := peb.Insert(o); err != nil {
			return nil, err
		}
		if err := spatial.Insert(o); err != nil {
			return nil, err
		}
	}
	return &Testbed{
		Cfg:        cfg,
		DS:         ds,
		Assignment: assignment,
		EncodeTime: encodeTime,
		PEB:        peb,
		Spatial:    spatial,
	}, nil
}

// Measured is the mean per-query I/O (buffer misses) of both approaches.
type Measured struct {
	PEB     float64
	Spatial float64
}

// resetPool cold-starts a pool for a measurement run.
func resetPool(pool *store.BufferPool) error {
	if err := pool.DropAll(); err != nil {
		return err
	}
	pool.ResetStats()
	return nil
}

// MeasurePRQ replays the range queries against both indexes and returns
// their mean I/O. As a safety net against divergence, the result counts of
// the two approaches are compared query by query.
func (tb *Testbed) MeasurePRQ(qs []workload.PRQuery) (Measured, error) {
	if len(qs) == 0 {
		return Measured{}, fmt.Errorf("exp: empty query set")
	}
	counts := make([]int, len(qs))
	if err := resetPool(tb.PEB.Pool()); err != nil {
		return Measured{}, err
	}
	for i, q := range qs {
		res, err := tb.PEB.PRQ(q.Issuer, q.W, q.T)
		if err != nil {
			return Measured{}, err
		}
		counts[i] = len(res)
	}
	pebIO := float64(tb.PEB.Pool().Stats().Misses) / float64(len(qs))

	if err := resetPool(tb.Spatial.Pool()); err != nil {
		return Measured{}, err
	}
	for i, q := range qs {
		res, err := tb.Spatial.PRQ(q.Issuer, q.W, q.T)
		if err != nil {
			return Measured{}, err
		}
		if len(res) != counts[i] {
			return Measured{}, fmt.Errorf("exp: PRQ result divergence on query %d: peb %d vs spatial %d",
				i, counts[i], len(res))
		}
	}
	spatialIO := float64(tb.Spatial.Pool().Stats().Misses) / float64(len(qs))
	return Measured{PEB: pebIO, Spatial: spatialIO}, nil
}

// MeasurePKNN replays the kNN queries against both indexes and returns
// their mean I/O, cross-checking result counts.
func (tb *Testbed) MeasurePKNN(qs []workload.KNNQuery) (Measured, error) {
	if len(qs) == 0 {
		return Measured{}, fmt.Errorf("exp: empty query set")
	}
	counts := make([]int, len(qs))
	if err := resetPool(tb.PEB.Pool()); err != nil {
		return Measured{}, err
	}
	for i, q := range qs {
		res, err := tb.PEB.PKNN(q.Issuer, q.X, q.Y, q.K, q.T)
		if err != nil {
			return Measured{}, err
		}
		counts[i] = len(res)
	}
	pebIO := float64(tb.PEB.Pool().Stats().Misses) / float64(len(qs))

	if err := resetPool(tb.Spatial.Pool()); err != nil {
		return Measured{}, err
	}
	for i, q := range qs {
		res, err := tb.Spatial.PKNN(q.Issuer, q.X, q.Y, q.K, q.T)
		if err != nil {
			return Measured{}, err
		}
		if len(res) != counts[i] {
			return Measured{}, fmt.Errorf("exp: PkNN result divergence on query %d: peb %d vs spatial %d",
				i, counts[i], len(res))
		}
	}
	spatialIO := float64(tb.Spatial.Pool().Stats().Misses) / float64(len(qs))
	return Measured{PEB: pebIO, Spatial: spatialIO}, nil
}

// ApplyUpdates feeds an update batch to both indexes (Sec. 7.9).
func (tb *Testbed) ApplyUpdates(batch []motion.Object) error {
	for _, o := range batch {
		if err := tb.PEB.Update(o); err != nil {
			return err
		}
		if err := tb.Spatial.Update(o); err != nil {
			return err
		}
	}
	return nil
}

// Options tunes an experiment run.
type Options struct {
	// Scale multiplies every population size in the sweep (default 1, the
	// paper's scale). Scaled populations are floored at 1000 users.
	Scale float64
	// Seed offsets the workload seeds, for variance studies. Default 1.
	Seed int64
	// Parallel bounds how many data points build concurrently. Default
	// min(4, GOMAXPROCS). Testbeds are large; each worker holds one.
	Parallel int
	// QueryCount overrides the number of queries per point (default 200).
	QueryCount int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...interface{})
}

func (o *Options) normalize() {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
		if o.Parallel > 4 {
			o.Parallel = 4
		}
	}
	if o.QueryCount <= 0 {
		o.QueryCount = DefaultQueryCount
	}
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// users scales a paper population size.
func (o Options) users(n int) int {
	scaled := int(math.Round(float64(n) * o.Scale))
	if scaled < 1000 {
		scaled = 1000
	}
	return scaled
}

// baseConfig returns the default config under these options.
func (o Options) baseConfig() Config {
	cfg := DefaultConfig()
	cfg.Workload.NumUsers = o.users(cfg.Workload.NumUsers)
	cfg.Workload.Seed = o.Seed
	cfg.QueryCount = o.QueryCount
	return cfg
}

// forEachPoint runs fn(i) for i in [0, n) with bounded parallelism,
// collecting the first error.
func forEachPoint(parallel, n int, fn func(i int) error) error {
	if parallel > n {
		parallel = n
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		rerr error
	)
	next := make(chan int)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if rerr == nil {
						rerr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return rerr
}
