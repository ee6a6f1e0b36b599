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

// pageRequestBatch runs 40 seeded PRQs, then 40 seeded PkNNs, through a
// counted view and returns the page requests each batch made.
func pageRequestBatch(t *testing.T, cfg Config) (prq, pknn uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1501))
	f := buildFixture(t, rng, cfg, 2500, 8)
	pool := f.tree.Pool()
	var io store.IOCounter
	v := f.tree.ViewIO(&io)
	side := cfg.Base.Grid.Side

	pool.ResetStats()
	for i := 0; i < 40; i++ {
		issuer := motion.UserID(1 + rng.Intn(len(f.objs)))
		w := bxtree.Square(rng.Float64()*side, rng.Float64()*side, 40+rng.Float64()*120)
		if _, err := v.PRQ(issuer, w, rng.Float64()*80); err != nil {
			t.Fatal(err)
		}
	}
	prq = pool.Stats().Accesses()
	for i := 0; i < 40; i++ {
		issuer := motion.UserID(1 + rng.Intn(len(f.objs)))
		if _, err := v.PKNN(issuer, rng.Float64()*side, rng.Float64()*side, 1+rng.Intn(6), rng.Float64()*80); err != nil {
			t.Fatal(err)
		}
	}
	pknn = pool.Stats().Accesses() - prq
	if got := io.Stats().Accesses(); got != prq+pknn {
		t.Errorf("view counter saw %d requests, pool %d", got, prq+pknn)
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
