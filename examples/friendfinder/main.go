// Friendfinder: the paper's motivating application — "find my k nearest
// friends who are willing to be seen" — on a network-based workload.
//
// A population of users moves between hub destinations (the workload of
// Sec. 7.7). Each user grants visibility to a small social circle. The
// example serves the PEB side entirely through the public peb API — batched
// policy load and encoding, batched movement ingest, pinned snapshots with
// per-session I/O counters — and compares its query I/O against the
// spatial-index-plus-filtering baseline on the same data, reproducing the
// paper's headline effect end to end.
package main

import (
	"fmt"
	"log"

	"repro/internal/bxtree"
	"repro/internal/policy"
	"repro/internal/spatialidx"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/peb"
)

func main() {
	// 10K users moving between 50 hubs; everyone has 20 policies, 80% of
	// them inside their social group.
	cfg := workload.DefaultConfig()
	cfg.NumUsers = 10_000
	cfg.PoliciesPerUser = 20
	cfg.GroupingFactor = 0.8
	cfg.Distribution = workload.Network
	cfg.NumHubs = 50
	cfg.Seed = 7

	ds, err := workload.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The service database: load every relation and grant in one batch, run
	// the offline encoding of Sec. 5.1, then bulk-load all movement in one
	// batch. The paper's 50-page buffer keeps I/O comparable.
	db, err := peb.Open(peb.Options{
		SpaceSide: cfg.Space,
		DayLength: cfg.DayLen,
		MaxSpeed:  cfg.MaxSpeed,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	load := db.NewBatch()
	ds.Policies.ForEachGrant(func(owner, viewer policy.UserID, p policy.Policy) bool {
		load.DefineRelation(peb.UserID(owner), peb.UserID(viewer), p.Role)
		load.Grant(peb.UserID(owner), p.Role, p.Locr, p.Tint)
		return true
	})
	if err := db.Apply(load); err != nil {
		log.Fatal(err)
	}
	if err := db.EncodePolicies(); err != nil {
		log.Fatal(err)
	}
	load = db.NewBatch()
	for _, o := range ds.Objects {
		load.Upsert(o)
	}
	if err := db.Apply(load); err != nil {
		log.Fatal(err)
	}

	// The privacy-unaware baseline: a spatial index plus post-filtering,
	// over its own disk and buffer so I/O counts are independent.
	base := bxtree.DefaultConfig()
	grid := base.Grid
	grid.Side = cfg.Space
	base.Grid = grid
	base.MaxSpeed = cfg.MaxSpeed
	baseline, err := spatialidx.New(base, store.NewBufferPool(store.NewMemDisk(), store.DefaultBufferPages), ds.Policies)
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range ds.Objects {
		if err := baseline.Insert(o); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("Indexed %d users moving between %d hubs (%d policies)\n",
		db.Size(), cfg.NumHubs, ds.Policies.NumPolicies())

	// Issue "find my 3 nearest visible friends" for a few users, all from
	// one consistent snapshot.
	const tq = 60.0
	snap, err := db.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	defer snap.Close()
	for _, q := range ds.GenKNNQueries(5, 3, tq) {
		found, err := snap.NearestNeighbors(q.Issuer, q.X, q.Y, q.K, q.T)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nu%d at (%.0f, %.0f) — %d visible friend(s):\n", q.Issuer, q.X, q.Y, len(found))
		for i, nb := range found {
			x, y := nb.Object.PositionAt(tq)
			fmt.Printf("  %d. u%-6d %.1f away at (%.0f, %.0f)\n", i+1, nb.Object.UID, nb.Dist, x, y)
		}
		if len(found) == 0 {
			fmt.Println("  (no friend is currently willing to share their location)")
		}
	}

	// Replay a larger batch on both indexes and compare I/O. Both sides
	// start from a cold cache (the paper's measurement convention); the
	// PEB side then runs on a fresh snapshot whose counters cover exactly
	// this session.
	snap.Close() // release the demo session before dropping caches
	batch := ds.GenKNNQueries(200, 3, tq)
	fmt.Printf("\nMean I/O over %d privacy-aware 3NN queries:\n", len(batch))

	if err := db.DropCaches(); err != nil {
		log.Fatal(err)
	}
	session, err := db.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()
	for _, q := range batch {
		if _, err := session.NearestNeighbors(q.Issuer, q.X, q.Y, q.K, q.T); err != nil {
			log.Fatal(err)
		}
	}
	pebIO := float64(session.IOStats().Misses) / float64(len(batch))
	fmt.Printf("  %-28s %6.1f I/Os per query\n", "PEB-tree", pebIO)

	if err := baseline.Pool().DropAll(); err != nil {
		log.Fatal(err)
	}
	baseline.Pool().ResetStats()
	for _, q := range batch {
		if _, err := baseline.PKNN(q.Issuer, q.X, q.Y, q.K, q.T); err != nil {
			log.Fatal(err)
		}
	}
	spatIO := float64(baseline.Pool().Stats().Misses) / float64(len(batch))
	fmt.Printf("  %-28s %6.1f I/Os per query\n", "spatial index + filtering", spatIO)
	fmt.Printf("  → the PEB-tree uses %.1f× less I/O\n", spatIO/pebIO)
}
