// Costexplorer: what-if exploration with the query I/O cost model (Sec. 6).
//
// The example calibrates Eq. 7's a1 and a2 from two measured sample points,
// then prints predicted privacy-aware range-query costs across a grid of
// workload parameters — including the break-even analysis the paper closes
// Sec. 6 with: the PEB-tree stops paying off when a user is related to
// roughly 5% of the population.
//
// The sample points are measured through the public API: a peb.DB is
// bulk-loaded (peb.Open, the workload's relations and grants in one
// batched Apply and encoded with EncodePolicies, the population in a second
// batch) and the query replay
// runs on a pinned Snapshot, whose per-session I/O counters and LeafCount
// provide the measured cost and the model's Nl directly. The spatial
// baseline for the break-even line is measured the same way the paper
// does, on its own index.
package main

import (
	"fmt"
	"log"

	"repro/internal/bxtree"
	"repro/internal/costmodel"
	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/spatialidx"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/peb"
)

func main() {
	// Measure two real sample points at different densities (small scale
	// so the example runs in seconds).
	fmt.Println("Calibrating Eq. 7 from two measured sample points...")
	var baselineIO float64
	sample := func(users int) costmodel.Sample {
		cfg := exp.DefaultConfig()
		cfg.Workload.NumUsers = users
		cfg.Workload.PoliciesPerUser = 20
		cfg.Workload.GroupSize = 0
		cfg.QueryCount = 100

		ds, err := workload.Generate(cfg.Workload)
		if err != nil {
			log.Fatal(err)
		}
		// The paper's 50-page buffer, so misses are the paper's I/O metric.
		db, err := peb.Open(peb.Options{
			SpaceSide:   cfg.Workload.Space,
			DayLength:   cfg.Workload.DayLen,
			MaxSpeed:    cfg.Workload.MaxSpeed,
			BufferPages: cfg.Buffer,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer db.Close()
		batch := db.NewBatch()
		ds.Policies.ForEachGrant(func(owner, viewer policy.UserID, p policy.Policy) bool {
			batch.DefineRelation(peb.UserID(owner), peb.UserID(viewer), p.Role)
			batch.Grant(peb.UserID(owner), p.Role, p.Locr, p.Tint)
			return true
		})
		if err := db.Apply(batch); err != nil {
			log.Fatal(err)
		}
		if err := db.EncodePolicies(); err != nil {
			log.Fatal(err)
		}
		batch = db.NewBatch()
		for _, o := range ds.Objects {
			batch.Upsert(o)
		}
		if err := db.Apply(batch); err != nil {
			log.Fatal(err)
		}
		qs := ds.GenPRQueries(cfg.QueryCount, cfg.WindowSide, cfg.QueryTime)

		// Cold-start before measuring, exactly like the baseline below —
		// both sides must pay the same compulsory misses.
		if err := db.DropCaches(); err != nil {
			log.Fatal(err)
		}
		snap, err := db.Snapshot()
		if err != nil {
			log.Fatal(err)
		}
		defer snap.Close()
		for _, q := range qs {
			r := peb.Region{MinX: q.W.MinX, MinY: q.W.MinY, MaxX: q.W.MaxX, MaxY: q.W.MaxY}
			if _, err := snap.RangeQuery(q.Issuer, r, q.T); err != nil {
				log.Fatal(err)
			}
		}
		io := float64(snap.IOStats().Misses) / float64(len(qs))

		// The spatial baseline at the same density (kept for the larger
		// population's break-even line).
		base := bxtree.DefaultConfig()
		grid := base.Grid
		grid.Side = cfg.Workload.Space
		base.Grid = grid
		base.MaxSpeed = cfg.Workload.MaxSpeed
		spatial, err := spatialidx.New(base, store.NewBufferPool(store.NewMemDisk(), cfg.Buffer), ds.Policies)
		if err != nil {
			log.Fatal(err)
		}
		for _, o := range ds.Objects {
			if err := spatial.Insert(o); err != nil {
				log.Fatal(err)
			}
		}
		if err := spatial.Pool().DropAll(); err != nil {
			log.Fatal(err)
		}
		spatial.Pool().ResetStats()
		for _, q := range qs {
			if _, err := spatial.PRQ(q.Issuer, q.W, q.T); err != nil {
				log.Fatal(err)
			}
		}
		baselineIO = float64(spatial.Pool().Stats().Misses) / float64(len(qs))

		s := costmodel.Sample{
			Params: costmodel.Params{
				N:     users,
				Np:    cfg.Workload.PoliciesPerUser,
				Theta: cfg.Workload.GroupingFactor,
				Nl:    snap.LeafCount(),
				L:     cfg.Workload.Space,
			},
			IO: io,
		}
		fmt.Printf("  N=%-6d → measured %.1f I/Os (Nl=%d)\n", users, io, s.Params.Nl)
		return s
	}
	model, err := costmodel.Calibrate(sample(4_000), sample(12_000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  calibrated: a1=%.4g, a2=%.4g\n\n", model.A1, model.A2)

	// What-if grid: predicted PRQ cost as policies per user and grouping
	// factor vary at a fixed population.
	const n = 12_000
	nl := 160 // leaves at this population (from the sample above)
	fmt.Printf("Predicted PRQ I/O at N=%d:\n", n)
	fmt.Printf("%14s", "Np \\ θ")
	thetas := []float64{0, 0.3, 0.5, 0.7, 0.9, 1.0}
	for _, th := range thetas {
		fmt.Printf("%8.1f", th)
	}
	fmt.Println()
	for _, np := range []int{10, 25, 50, 100, 200} {
		fmt.Printf("%14d", np)
		for _, th := range thetas {
			c, err := model.Cost(costmodel.Params{N: n, Np: np, Theta: th, Nl: nl, L: 1000})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%8.1f", c)
		}
		fmt.Println()
	}

	// Break-even analysis (end of Sec. 6): find the Np at which the
	// PEB-tree's predicted cost reaches the spatial baseline's measured
	// cost for the default window at this population.
	baseline := baselineIO
	fmt.Printf("\nBaseline (spatial index, default window, measured): %.1f I/Os\n", baseline)
	for _, th := range []float64{0.5, 0.7, 0.9} {
		for np := 1; np <= n; np++ {
			c, err := model.Cost(costmodel.Params{N: n, Np: np, Theta: th, Nl: nl, L: 1000})
			if err != nil {
				log.Fatal(err)
			}
			if c >= baseline {
				fmt.Printf("  θ=%.1f: PEB-tree stops winning at ≈ %d policies/user (%.2f%% of the population)\n",
					th, np, 100*float64(np)/float64(n))
				break
			}
			if np == n {
				fmt.Printf("  θ=%.1f: PEB-tree wins across the whole range\n", th)
			}
		}
	}
}
