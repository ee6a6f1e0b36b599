// Citygrid: privacy-aware queries over a city partitioned into shards.
//
// A city-wide location service runs the sharded engine: the service space
// is split into four shards by Hilbert-curve range — with four shards,
// one per city quadrant — each with its own PEB-tree, write lock, and
// commit path, so update traffic from different districts never contends.
// The example loads a population clustered around four district hubs,
// then serves the two query families through the router:
//
//   - a privacy-aware range query over one district, which the router
//     prunes to the shards whose curve range can matter (watch the
//     per-shard population to see why most shards are skipped);
//   - a privacy-aware k-nearest-neighbor query, answered by probe then
//     wave — the shard containing the query point first, then together
//     the rest that could still beat its k-th best candidate;
//   - the same queries on a consistent Snapshot taken under the router's
//     brief global barrier, while updates keep flowing.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/peb"
	"repro/peb/obs"
	"repro/peb/sharded"
)

func main() {
	mon := flag.String("mon", "", "serve /metrics, /statusz, and /debug/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	db, err := sharded.Open(sharded.Options{Shards: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if *mon != "" {
		srv, err := obs.Serve(*mon, obs.ForSharded(db))
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("observability endpoint on http://%s (curl /metrics, /statusz)\n\n", srv.Addr())
	}

	// Four district hubs, one per quadrant of the 1000×1000 space.
	hubs := [4][2]float64{{250, 250}, {250, 750}, {750, 750}, {750, 250}}
	day := peb.TimeInterval{Start: 0, End: 1440}
	city := peb.Region{MaxX: 1000, MaxY: 1000}
	const (
		dispatcher = sharded.UserID(1)
		residents  = 600
	)

	// Residents opt in to the dispatcher city-wide; policies are broadcast
	// to every shard so any shard can evaluate them for its own objects.
	setup := db.NewBatch()
	for i := 0; i < residents; i++ {
		u := sharded.UserID(10 + i)
		setup.DefineRelation(u, dispatcher, "service")
		setup.Grant(u, "service", city, day)
	}
	if err := db.Apply(setup); err != nil {
		log.Fatal(err)
	}
	if err := db.EncodePolicies(); err != nil {
		log.Fatal(err)
	}

	// Load the population clustered around the hubs. The batch spans every
	// shard; Apply commits it atomically across all of them.
	rng := rand.New(rand.NewSource(7))
	load := db.NewBatch()
	for i := 0; i < residents; i++ {
		hub := hubs[i%len(hubs)]
		load.Upsert(sharded.Object{
			UID: sharded.UserID(10 + i),
			X:   hub[0] + rng.Float64()*300 - 150,
			Y:   hub[1] + rng.Float64()*300 - 150,
			VX:  (rng.Float64() - 0.5) * 4,
			VY:  (rng.Float64() - 0.5) * 4,
			T:   float64(i%40) * 0.1,
		})
	}
	if err := db.Apply(load); err != nil {
		log.Fatal(err)
	}

	st := db.Stats()
	fmt.Printf("City loaded: %d residents across %d shards (", db.Size(), db.Shards())
	for i, ss := range st.Shards {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("shard %d: %d", i, ss.Size)
	}
	fmt.Println(")")

	// A range query over the north-east district: the router consults only
	// the shards whose Hilbert range intersects the (motion-enlarged)
	// window.
	northEast := peb.Region{MinX: 600, MinY: 600, MaxX: 900, MaxY: 900}
	inDistrict, err := db.RangeQuery(dispatcher, northEast, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPRQ over the north-east district at t=10: %d residents visible\n", len(inDistrict))

	// Nearest units to an incident downtown: the nearest shard is probed,
	// and its k-th distance bounds which other shards are asked.
	const k = 5
	nearest, err := db.NearestNeighbors(dispatcher, 500, 500, k, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d nearest residents to the incident at (500,500):\n", k)
	for _, nb := range nearest {
		fmt.Printf("  u%-4d at distance %6.1f\n", nb.Object.UID, nb.Dist)
	}

	// A consistent cut across all shards: updates keep committing, the
	// snapshot keeps answering from the pinned state.
	snap, err := db.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	defer snap.Close()
	for i := 0; i < 50; i++ { // concurrent-looking churn after the cut
		hub := hubs[rng.Intn(len(hubs))]
		if err := db.Upsert(sharded.Object{
			UID: sharded.UserID(10 + rng.Intn(residents)),
			X:   hub[0] + rng.Float64()*300 - 150,
			Y:   hub[1] + rng.Float64()*300 - 150,
			T:   20,
		}); err != nil {
			log.Fatal(err)
		}
	}
	pinned, err := snap.RangeQuery(dispatcher, northEast, 10)
	if err != nil {
		log.Fatal(err)
	}
	live, err := db.RangeQuery(dispatcher, northEast, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAfter churn: snapshot still answers %d (pinned cut), live answers %d\n",
		len(pinned), len(live))

	agg := db.Stats()
	fmt.Printf("\nAggregate view swaps: %d; per-shard WAL appends:", agg.ViewSwaps)
	for _, ss := range agg.Shards {
		fmt.Printf(" %d", ss.WAL.Appends)
	}
	fmt.Println(" (memory-backed: zero)")
}
