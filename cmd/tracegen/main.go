// Command tracegen dumps the synthetic workloads used by the experiments —
// moving-object snapshots, location-privacy policies, and query sets — as
// CSV on stdout, for inspection or for feeding external tools. Policy rows
// come out ascending by owner, then by viewer: the generator bulk-builds
// its store, whose owners hold its first slots in id order.
//
// With -load, the generated movement snapshot is additionally bulk-loaded
// into an in-memory peb.DB through the batched write handle (NewBatch +
// Apply) and load statistics are printed to stderr — a quick end-to-end
// sanity check that a generated trace is ingestible, and a demonstration
// of the bulk-load path.
//
// Usage:
//
//	tracegen -kind objects -n 10000 -dist network -hubs 50
//	tracegen -kind policies -n 1000 -np 20 -theta 0.9
//	tracegen -kind queries -n 5000 -queries 200 -window 200
//	tracegen -kind objects -n 50000 -load
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/policy"
	"repro/internal/workload"
	"repro/peb"
)

func main() {
	var (
		kind    = flag.String("kind", "objects", "what to dump: objects | policies | queries | knnqueries")
		n       = flag.Int("n", 10_000, "number of users")
		np      = flag.Int("np", 50, "policies per user")
		theta   = flag.Float64("theta", 0.7, "grouping factor")
		dist    = flag.String("dist", "uniform", "distribution: uniform | network")
		hubs    = flag.Int("hubs", 100, "network destinations (network distribution)")
		speed   = flag.Float64("speed", 3, "maximum object speed")
		seed    = flag.Int64("seed", 1, "generator seed")
		queries = flag.Int("queries", 200, "number of queries (queries kinds)")
		window  = flag.Float64("window", 200, "query window side (queries kind)")
		k       = flag.Int("k", 5, "k (knnqueries kind)")
		tq      = flag.Float64("tq", 60, "query time")
		load    = flag.Bool("load", false, "bulk-load the objects into a peb.DB and report stats (stderr)")
	)
	flag.Parse()

	cfg := workload.DefaultConfig()
	cfg.NumUsers = *n
	cfg.PoliciesPerUser = *np
	cfg.GroupingFactor = *theta
	cfg.MaxSpeed = *speed
	cfg.Seed = *seed
	switch *dist {
	case "uniform":
		cfg.Distribution = workload.Uniform
	case "network":
		cfg.Distribution = workload.Network
		cfg.NumHubs = *hubs
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown distribution %q\n", *dist)
		os.Exit(2)
	}

	ds, err := workload.Generate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}

	if *load {
		db, err := peb.Open(peb.Options{
			SpaceSide: cfg.Space,
			DayLength: cfg.DayLen,
			MaxSpeed:  cfg.MaxSpeed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		defer db.Close()
		batch := db.NewBatch()
		for _, o := range ds.Objects {
			batch.Upsert(o)
		}
		start := time.Now()
		swaps := db.ViewSwaps()
		if err := db.Apply(batch); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: bulk load: %v\n", err)
			os.Exit(1)
		}
		stats := db.IOStats()
		fmt.Fprintf(os.Stderr, "tracegen: bulk-loaded %d objects in %v (%d buffer misses, %d write-backs, %d view republish)\n",
			db.Size(), time.Since(start).Round(time.Millisecond),
			stats.Misses, stats.WriteBack, db.ViewSwaps()-swaps)
	}

	switch *kind {
	case "objects":
		fmt.Println("uid,x,y,vx,vy,t")
		for _, o := range ds.Objects {
			fmt.Printf("%d,%g,%g,%g,%g,%g\n", o.UID, o.X, o.Y, o.VX, o.VY, o.T)
		}
	case "policies":
		fmt.Println("owner,viewer,role,min_x,min_y,max_x,max_y,tint_start,tint_end")
		ds.Policies.ForEachGrant(func(owner, viewer policy.UserID, p policy.Policy) bool {
			fmt.Printf("%d,%d,%s,%g,%g,%g,%g,%g,%g\n",
				owner, viewer, p.Role, p.Locr.MinX, p.Locr.MinY, p.Locr.MaxX, p.Locr.MaxY,
				p.Tint.Start, p.Tint.End)
			return true
		})
	case "queries":
		fmt.Println("issuer,min_x,min_y,max_x,max_y,t")
		for _, q := range ds.GenPRQueries(*queries, *window, *tq) {
			fmt.Printf("%d,%g,%g,%g,%g,%g\n", q.Issuer, q.W.MinX, q.W.MinY, q.W.MaxX, q.W.MaxY, q.T)
		}
	case "knnqueries":
		fmt.Println("issuer,x,y,k,t")
		for _, q := range ds.GenKNNQueries(*queries, *k, *tq) {
			fmt.Printf("%d,%g,%g,%d,%g\n", q.Issuer, q.X, q.Y, q.K, q.T)
		}
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown kind %q\n", *kind)
		os.Exit(2)
	}
}
