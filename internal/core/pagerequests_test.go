package core

import (
	"math/rand"
	"testing"

	"repro/internal/bxtree"
	"repro/internal/motion"
	"repro/internal/store"
)

// The paper's metric is page I/O per query, so the number of page requests
// a query makes is part of its contract: a change to the read path's CPU
// (interval coalescing, the friend table, in-place page search) must leave
// it exactly as it was. The numbers below were recorded at the commit
// before the query kernel was rewritten (PR 14, cc63f54), for one seeded
// batch per search path; hits and misses depend on the pool's size, their
// sum does not.

// pageRequestBatch runs 40 seeded PRQs, then 40 seeded PkNNs, and returns
// the page requests each batch made, summed from the queries' own cost
// records. The sums must equal what the pool counted, hit for hit and miss
// for miss.
func pageRequestBatch(t *testing.T, cfg Config) (prq, pknn uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1501))
	f := buildFixture(t, rng, cfg, 2500, 8)
	pool := f.tree.Pool()
	v := f.tree.View()
	side := cfg.Base.Grid.Side

	var records store.BufferStats
	// A cold pool, so that the records have misses to tell from hits.
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	for i := 0; i < 40; i++ {
		issuer := motion.UserID(1 + rng.Intn(len(f.objs)))
		w := bxtree.Square(rng.Float64()*side, rng.Float64()*side, 40+rng.Float64()*120)
		_, cost, err := v.PRQ(issuer, w, rng.Float64()*80)
		if err != nil {
			t.Fatal(err)
		}
		records.Add(cost)
	}
	prq = records.Accesses()
	for i := 0; i < 40; i++ {
		issuer := motion.UserID(1 + rng.Intn(len(f.objs)))
		_, cost, err := v.PKNN(issuer, rng.Float64()*side, rng.Float64()*side, 1+rng.Intn(6), rng.Float64()*80)
		if err != nil {
			t.Fatal(err)
		}
		records.Add(cost)
	}
	pknn = records.Accesses() - prq
	if got := pool.Stats(); got.Hits != records.Hits || got.Misses != records.Misses {
		t.Errorf("the queries recorded %d hits + %d misses, the pool counted %d + %d",
			records.Hits, records.Misses, got.Hits, got.Misses)
	}
	if records.Misses == 0 {
		t.Error("no page request missed the buffer")
	}
	return prq, pknn
}

func TestQueryPageRequestsPinned(t *testing.T) {
	want := map[string][2]uint64{
		"SVFirst": {842, 942},
		"ZVFirst": {1887, 12613},
		"Hilbert": {851, 942},
	}
	for name, cfg := range residencyConfigs() {
		prq, pknn := pageRequestBatch(t, cfg)
		if w := want[name]; prq != w[0] || pknn != w[1] {
			t.Errorf("%s: %d PRQ + %d PkNN page requests, recorded %d + %d", name, prq, pknn, w[0], w[1])
		}
	}
}
