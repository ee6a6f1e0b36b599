// Benchmarks: one per paper table/figure plus micro-benchmarks of the core
// operations. The per-figure benchmarks run the same experiment code as
// cmd/pebbench at a small scale and export the measured mean I/O per query
// as custom metrics (ios_col0, ios_col1, ...), so `go test -bench=.` both
// exercises every experiment path and tracks the headline numbers.
//
// Full paper-scale figures are regenerated with:
//
//	go run ./cmd/pebbench -exp <id> -scale 1
package repro

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/workload"
	"repro/peb"
)

// benchScale keeps each figure benchmark to a few seconds: populations
// floor at 1000 users and 30 queries per data point.
var benchOptions = exp.Options{Scale: 0.02, QueryCount: 30, Parallel: 4, Seed: 1}

// runExperiment executes one registered experiment and reports the mean of
// every column as a custom metric.
func runExperiment(b *testing.B, id string) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		for c, name := range tbl.Columns {
			sum := 0.0
			for _, row := range tbl.Rows {
				sum += row.Vals[c]
			}
			b.ReportMetric(sum/float64(len(tbl.Rows)), name)
		}
	}
}

// --- One benchmark per paper table/figure -----------------------------------

func BenchmarkFig11aPreprocessUsers(b *testing.B)    { runExperiment(b, "fig11a") }
func BenchmarkFig11bPreprocessPolicies(b *testing.B) { runExperiment(b, "fig11b") }
func BenchmarkFig12aPRQUsers(b *testing.B)           { runExperiment(b, "fig12a") }
func BenchmarkFig12bPkNNUsers(b *testing.B)          { runExperiment(b, "fig12b") }
func BenchmarkFig13aPRQPolicies(b *testing.B)        { runExperiment(b, "fig13a") }
func BenchmarkFig13bPkNNPolicies(b *testing.B)       { runExperiment(b, "fig13b") }
func BenchmarkFig14aPRQGrouping(b *testing.B)        { runExperiment(b, "fig14a") }
func BenchmarkFig14bPkNNGrouping(b *testing.B)       { runExperiment(b, "fig14b") }
func BenchmarkFig15aPRQWindow(b *testing.B)          { runExperiment(b, "fig15a") }
func BenchmarkFig15bPkNNK(b *testing.B)              { runExperiment(b, "fig15b") }
func BenchmarkFig16aPRQNetwork(b *testing.B)         { runExperiment(b, "fig16a") }
func BenchmarkFig16bPkNNNetwork(b *testing.B)        { runExperiment(b, "fig16b") }
func BenchmarkFig17aPRQSpeed(b *testing.B)           { runExperiment(b, "fig17a") }
func BenchmarkFig17bPkNNSpeed(b *testing.B)          { runExperiment(b, "fig17b") }
func BenchmarkFig18aPRQUpdates(b *testing.B)         { runExperiment(b, "fig18a") }
func BenchmarkFig18bPkNNUpdates(b *testing.B)        { runExperiment(b, "fig18b") }
func BenchmarkFig19aCostModelUsers(b *testing.B)     { runExperiment(b, "fig19a") }
func BenchmarkFig19bCostModelPolicies(b *testing.B)  { runExperiment(b, "fig19b") }
func BenchmarkFig19cCostModelGrouping(b *testing.B)  { runExperiment(b, "fig19c") }
func BenchmarkAblationKeyOrder(b *testing.B)         { runExperiment(b, "ablation-keyorder") }
func BenchmarkAblationSearchOrder(b *testing.B)      { runExperiment(b, "ablation-searchorder") }
func BenchmarkAblationCurve(b *testing.B)            { runExperiment(b, "ablation-curve") }

// --- Micro-benchmarks of the core operations --------------------------------

// sharedTestbed lazily builds one mid-size testbed reused by the operation
// benchmarks so setup cost is paid once, outside the timed region.
var (
	tbOnce sync.Once
	tbVal  *exp.Testbed
	tbErr  error
)

func sharedTestbed(b *testing.B) *exp.Testbed {
	tbOnce.Do(func() {
		cfg := exp.DefaultConfig()
		cfg.Workload.NumUsers = 10_000
		cfg.Workload.PoliciesPerUser = 20
		cfg.Workload.GroupSize = 0
		tbVal, tbErr = exp.Build(cfg)
	})
	if tbErr != nil {
		b.Fatal(tbErr)
	}
	return tbVal
}

func BenchmarkPEBInsert(b *testing.B) {
	tb := sharedTestbed(b)
	objs := tb.DS.Objects
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-inserting an existing user is delete+insert, the update path.
		o := objs[i%len(objs)]
		o.T += float64(i/len(objs)) * 0.001
		if err := tb.PEB.Insert(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPEBPRQ(b *testing.B) {
	tb := sharedTestbed(b)
	qs := tb.DS.GenPRQueries(256, exp.DefaultWindowSide, exp.DefaultQueryTime)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := tb.PEB.PRQ(q.Issuer, q.W, q.T); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPEBPkNN(b *testing.B) {
	tb := sharedTestbed(b)
	qs := tb.DS.GenKNNQueries(256, exp.DefaultK, exp.DefaultQueryTime)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := tb.PEB.PKNN(q.Issuer, q.X, q.Y, q.K, q.T); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpatialPRQ(b *testing.B) {
	tb := sharedTestbed(b)
	qs := tb.DS.GenPRQueries(256, exp.DefaultWindowSide, exp.DefaultQueryTime)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := tb.Spatial.PRQ(q.Issuer, q.W, q.T); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpatialPkNN(b *testing.B) {
	tb := sharedTestbed(b)
	qs := tb.DS.GenKNNQueries(256, exp.DefaultK, exp.DefaultQueryTime)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := tb.Spatial.PKNN(q.Issuer, q.X, q.Y, q.K, q.T); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyEncoding(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.NumUsers = 5_000
	cfg.PoliciesPerUser = 20
	cfg.GroupSize = 0
	ds, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Assign(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.NumUsers = 5_000
	cfg.PoliciesPerUser = 20
	cfg.GroupSize = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := workload.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel query benchmarks (peb.DB read path) ----------------------------

// sharedDB lazily builds one peb.DB (public API, RWMutex + snapshot read
// path) reused by the parallel benchmarks, with an index-resident buffer so
// the numbers reflect lock scaling rather than eviction churn.
var (
	dbOnce sync.Once
	dbVal  *peb.DB
	dbQs   []workload.PRQuery
	dbKNN  []workload.KNNQuery
	dbErr  error
)

func sharedDB(b *testing.B) (*peb.DB, []workload.PRQuery, []workload.KNNQuery) {
	dbOnce.Do(func() {
		cfg := workload.DefaultConfig()
		cfg.NumUsers = 10_000
		cfg.PoliciesPerUser = 20
		cfg.GroupSize = 0
		var ds *workload.Dataset
		if ds, dbErr = workload.Generate(cfg); dbErr != nil {
			return
		}
		// Leaves are at least half full, so this buffer holds every page
		// of the tree.
		if dbVal, dbErr = peb.Open(peb.Options{
			SpaceSide:   cfg.Space,
			DayLength:   cfg.DayLen,
			MaxSpeed:    cfg.MaxSpeed,
			BufferPages: cfg.NumUsers/16 + 256,
		}); dbErr != nil {
			return
		}
		var policies bytes.Buffer
		if dbErr = ds.Policies.Save(&policies); dbErr != nil {
			return
		}
		if dbErr = dbVal.LoadPolicies(&policies); dbErr != nil {
			return
		}
		batch := dbVal.NewBatch()
		for _, o := range ds.Objects {
			batch.Upsert(o)
		}
		if dbErr = dbVal.Apply(batch); dbErr != nil {
			return
		}
		dbQs = ds.GenPRQueries(256, exp.DefaultWindowSide, exp.DefaultQueryTime)
		dbKNN = ds.GenKNNQueries(256, exp.DefaultK, exp.DefaultQueryTime)
	})
	if dbErr != nil {
		b.Fatal(dbErr)
	}
	return dbVal, dbQs, dbKNN
}

// BenchmarkDBRangeQueryParallel drives concurrent RangeQuery calls through
// the RWMutex read path with b.RunParallel; compare its per-op time against
// BenchmarkDBRangeQuerySerialized to see the concurrency win (the ratio
// approaches the core count on parallel hardware; on one core they tie).
// Run with -cpu 8 to fix the goroutine count.
func BenchmarkDBRangeQueryParallel(b *testing.B) {
	db, qs, _ := sharedDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := qs[i%len(qs)]
			i++
			r := peb.Region{MinX: q.W.MinX, MinY: q.W.MinY, MaxX: q.W.MaxX, MaxY: q.W.MaxY}
			if _, err := db.RangeQuery(q.Issuer, r, q.T); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDBRangeQuerySerialized is the single-mutex baseline: the same
// concurrent load, but every query serialized behind one global lock — the
// DB's behavior before the RWMutex/snapshot read path.
func BenchmarkDBRangeQuerySerialized(b *testing.B) {
	db, qs, _ := sharedDB(b)
	var mu sync.Mutex
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := qs[i%len(qs)]
			i++
			r := peb.Region{MinX: q.W.MinX, MinY: q.W.MinY, MaxX: q.W.MaxX, MaxY: q.W.MaxY}
			mu.Lock()
			_, err := db.RangeQuery(q.Issuer, r, q.T)
			mu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDBNearestNeighborsParallel is the PkNN counterpart of
// BenchmarkDBRangeQueryParallel.
func BenchmarkDBNearestNeighborsParallel(b *testing.B) {
	db, _, qs := sharedDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := qs[i%len(qs)]
			i++
			if _, err := db.NearestNeighbors(q.Issuer, q.X, q.Y, q.K, q.T); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Write-batching and snapshot benchmarks (handle API) ---------------------

// BenchmarkBulkLoad compares loading 10k objects into a fresh DB through
// the two write paths the API offers. ApplyBatch must beat PerCallUpsert:
// the batch is key-sorted and bottom-up bulk-built (one page write per
// leaf), while per-call inserts descend, split, and republish per object.
//
//	go test -bench BenchmarkBulkLoad -run xxx
func BenchmarkBulkLoad(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.NumUsers = 10_000
	cfg.PoliciesPerUser = 0
	cfg.GroupSize = 0
	ds, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("PerCallUpsert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db, err := peb.Open(peb.Options{SpaceSide: cfg.Space, MaxSpeed: cfg.MaxSpeed})
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range ds.Objects {
				if err := db.Upsert(o); err != nil {
					b.Fatal(err)
				}
			}
			if swaps := db.ViewSwaps(); swaps < uint64(len(ds.Objects)) {
				b.Fatalf("per-call load did %d view swaps, want >= %d", swaps, len(ds.Objects))
			}
			db.Close()
		}
		b.ReportMetric(float64(len(ds.Objects))*float64(b.N)/b.Elapsed().Seconds(), "objs/s")
	})
	b.Run("ApplyBatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db, err := peb.Open(peb.Options{SpaceSide: cfg.Space, MaxSpeed: cfg.MaxSpeed})
			if err != nil {
				b.Fatal(err)
			}
			swaps := db.ViewSwaps()
			batch := db.NewBatch()
			for _, o := range ds.Objects {
				batch.Upsert(o)
			}
			if err := db.Apply(batch); err != nil {
				b.Fatal(err)
			}
			if got := db.ViewSwaps() - swaps; got != 1 {
				b.Fatalf("Apply did %d view swaps, want 1", got)
			}
			db.Close()
		}
		b.ReportMetric(float64(len(ds.Objects))*float64(b.N)/b.Elapsed().Seconds(), "objs/s")
	})
}

// BenchmarkSnapshotRangeQuery measures the pinned-snapshot read path: no
// lock acquisition per query, per-session I/O counters. Compare with
// BenchmarkDBRangeQueryParallel (read-locked one-shot path).
func BenchmarkSnapshotRangeQuery(b *testing.B) {
	db, qs, _ := sharedDB(b)
	snap, err := db.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := qs[i%len(qs)]
			i++
			r := peb.Region{MinX: q.W.MinX, MinY: q.W.MinY, MaxX: q.W.MaxX, MaxY: q.W.MaxY}
			if _, err := snap.RangeQuery(q.Issuer, r, q.T); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotRangeQueryStream measures the streaming form of the
// snapshot query (iter.Seq2 plumbing over the same executor).
func BenchmarkSnapshotRangeQueryStream(b *testing.B) {
	db, qs, _ := sharedDB(b)
	snap, err := db.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		r := peb.Region{MinX: q.W.MinX, MinY: q.W.MinY, MaxX: q.W.MaxX, MaxY: q.W.MaxY}
		for _, err := range snap.RangeQueryCtx(ctx, q.Issuer, r, q.T) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHeadline reproduces the paper's headline comparison at bench
// scale and prints the ratio once per run.
func BenchmarkHeadline(b *testing.B) {
	tb := sharedTestbed(b)
	qs := tb.DS.GenPRQueries(200, exp.DefaultWindowSide, exp.DefaultQueryTime)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := tb.MeasurePRQ(qs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.PEB, "peb_ios")
		b.ReportMetric(m.Spatial, "spatial_ios")
		if m.PEB > 0 {
			b.ReportMetric(m.Spatial/m.PEB, "speedup")
		}
	}
}
