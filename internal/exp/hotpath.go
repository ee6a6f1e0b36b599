package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/peb"
	"repro/peb/sharded"
)

// The hot-path report is the measurement layer behind pebbench -json: one
// JSON document per run covering the commit path (latency percentiles,
// allocations, fsyncs, log volume), the WAL codec before/after (gob vs
// binary over the identical stream), the checkpoint pipeline (full vs
// incremental builds, pages walked and flushed), and the pooled PRQ and
// PkNN query paths. CI uploads the document as the BENCH_pr*.json artifact
// and diffs its *stable* counters — allocations, fsyncs/op, pages walked
// per incremental build, bytes per record, page requests per query —
// against the committed baseline.
// Latencies and ns/op are reported for the trajectory but never diffed:
// they measure the runner, not the code.

// HotPathReport is the pebbench -json document.
type HotPathReport struct {
	Schema      int               `json:"schema"` // bump when fields change meaning
	Quick       bool              `json:"quick"`
	GoVersion   string            `json:"go_version"`
	Codec       peb.WALCodecBench `json:"wal_codec"`
	Commit      CommitBench       `json:"commit"`
	Checkpoint  CheckpointBench   `json:"checkpoint"`
	PRQ         PRQBench          `json:"prq"`
	PKNN        PKNNBench         `json:"pknn"`
	Replication ReplicationBench  `json:"replication"`
	Resharding  ReshardingBench   `json:"resharding"`
}

// CommitBench measures durable single-object commits (Durability: Sync —
// fsync before every ack) against a file-backed DB.
type CommitBench struct {
	Ops int `json:"ops"`
	// Latency percentiles in microseconds. Machine-dependent.
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	// Stable counters: heap allocations, physical fsyncs, and framed log
	// bytes per acknowledged commit.
	AllocsPerOp   float64 `json:"allocs_per_op"`
	FsyncsPerOp   float64 `json:"fsyncs_per_op"`
	WALBytesPerOp float64 `json:"wal_bytes_per_op"`
}

// CheckpointBench measures a churn/checkpoint regime: one full build
// anchors the chain, every later build should ride the dead-extent ledger.
type CheckpointBench struct {
	Cycles            int    `json:"cycles"`
	ObjectsPerCycle   int    `json:"objects_per_cycle"`
	FullBuilds        uint64 `json:"full_builds"`
	IncrementalBuilds uint64 `json:"incremental_builds"`
	// PagesWalkedFull is what the anchor's liveness sweep visited — the
	// per-checkpoint cost the ledger then eliminates.
	PagesWalkedFull           uint64  `json:"pages_walked_full"`
	PagesWalkedPerIncremental float64 `json:"pages_walked_per_incremental"`
	PagesFlushed              uint64  `json:"pages_flushed"`
	PagesReclaimed            uint64  `json:"pages_reclaimed"`
}

// PRQBench measures the pooled range-query path on an in-memory DB holding
// only the issuer and its friends (no page I/O in the allocation counter).
type PRQBench struct {
	Friends     int     `json:"friends"`
	Queries     int     `json:"queries"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	P50Micros   float64 `json:"p50_us"`
	// PageRequestsPerQuery is a stable counter: logical page requests (buffer
	// hits and misses alike) per query issued by u1 from pageQueries fixed
	// points against pagePopulation users. The paper's metric is page I/O per
	// query, and a change to the read path's CPU must not move it.
	PageRequestsPerQuery float64 `json:"page_requests_per_query"`
}

// PKNNBench measures the pooled k-nearest-neighbors query path the same way.
type PKNNBench struct {
	Friends              int     `json:"friends"`
	K                    int     `json:"k"`
	Queries              int     `json:"queries"`
	AllocsPerOp          float64 `json:"allocs_per_op"`
	P50Micros            float64 `json:"p50_us"`
	PageRequestsPerQuery float64 `json:"page_requests_per_query"`
	// RoutedPagesPerQuery4Shards is a stable counter: logical page requests
	// (buffer hits and misses alike), summed over the shards, per PkNN routed
	// through a 4-shard sharded.DB that holds the same friends among
	// routedPopulation users. It is what a shard pays for the grantors it
	// does not hold: each shard should search only for its residents.
	RoutedPagesPerQuery4Shards float64 `json:"routed_pages_per_query_4shards"`
}

// ReplicationBench measures a replica tailing a committing primary: apply
// lag (in WAL records) sampled after every commit, and the replica's read
// latency once caught up. FinalLagRecords is the stable counter — after a
// synchronous CatchUp on a quiesced primary the replica must report zero
// lag, or the tailing protocol is broken.
type ReplicationBench struct {
	Commits         int     `json:"commits"`
	LagP50Records   float64 `json:"lag_p50_records"`
	LagP99Records   float64 `json:"lag_p99_records"`
	FinalLagRecords float64 `json:"final_lag_records"`
	ReadP50Micros   float64 `json:"read_p50_us"`
}

// ReshardingBench measures the skewed-commit workload against a static
// uniform 8-shard topology and again after the AutoReshard maintainer has
// reshaped that layout around the load — the hot range split in two, the
// cold ranges merged (see resharding.go). Splits, Merges and LostObjects
// are the stable facts CI gates on — both kinds of topology change must
// fire and the population must survive the migrations exactly; the shard
// counts, latency and throughput fields are the trajectory.
type ReshardingBench struct {
	Commits      int     `json:"commits"`       // per measured phase
	ShardsBefore int     `json:"shards_before"` // the static layout
	ShardsAfter  int     `json:"shards_after"`  // the converged dynamic layout
	Splits       uint64  `json:"splits"`
	Merges       uint64  `json:"merges"`
	LostObjects  float64 `json:"lost_objects"`
	// Hot-rectangle commit p99 (µs) on the static vs post-split topology.
	HotP99StaticMicros float64 `json:"hot_p99_static_us"`
	HotP99SplitMicros  float64 `json:"hot_p99_split_us"`
	OpsPerSecStatic    float64 `json:"ops_per_sec_static"`
	OpsPerSecSplit     float64 `json:"ops_per_sec_split"`
}

func hotObj(uid, salt int) peb.Object {
	return peb.Object{
		UID: peb.UserID(uid),
		X:   float64((uid*37 + salt*131) % 1000),
		Y:   float64((uid*59 + salt*17) % 1000),
		VX:  float64(uid%5) - 2,
		VY:  float64(salt%5) - 2,
		T:   float64(salt % 50),
	}
}

// allocsPerOp is testing.AllocsPerRun without the testing import: average
// mallocs per fn call, pinned to one P.
func allocsPerOp(runs int, fn func(i int) error) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := fn(0); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), nil
}

func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx].Nanoseconds()) / 1e3
}

// RunHotPath produces the full report. quick shrinks every loop to CI
// smoke size; the counters it diffs are size-independent.
func RunHotPath(quick bool, logf func(string, ...interface{})) (HotPathReport, error) {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	rep := HotPathReport{Schema: 1, Quick: quick, GoVersion: runtime.Version()}

	codecRecords, commitOps, ckptCycles, ckptObjs, pknnQueries := 20000, 4000, 8, 200, 2000
	if quick {
		codecRecords, commitOps, ckptCycles, ckptObjs, pknnQueries = 4000, 600, 4, 80, 400
	}

	logf("hotpath: codec bench (%d records)", codecRecords)
	rep.Codec = peb.RunWALCodecBench(codecRecords)

	dir, err := os.MkdirTemp("", "pebbench-hotpath")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)

	logf("hotpath: commit bench (%d durable commits)", commitOps)
	rep.Commit, err = runCommitBench(filepath.Join(dir, "commit.idx"), commitOps)
	if err != nil {
		return rep, fmt.Errorf("commit bench: %w", err)
	}

	logf("hotpath: checkpoint bench (%d cycles x %d objects)", ckptCycles, ckptObjs)
	rep.Checkpoint, err = runCheckpointBench(filepath.Join(dir, "ckpt.idx"), ckptCycles, ckptObjs)
	if err != nil {
		return rep, fmt.Errorf("checkpoint bench: %w", err)
	}

	logf("hotpath: prq and pknn bench (%d queries each)", pknnQueries)
	rep.PRQ, rep.PKNN, err = runQueryBench(pknnQueries)
	if err != nil {
		return rep, fmt.Errorf("query bench: %w", err)
	}

	repCommits := commitOps / 2
	logf("hotpath: replication bench (%d commits tailed)", repCommits)
	rep.Replication, err = runReplicationBench(filepath.Join(dir, "rep.idx"), repCommits)
	if err != nil {
		return rep, fmt.Errorf("replication bench: %w", err)
	}

	// The resharding phases get a floor rather than the quick-mode commit
	// count: the p99 columns are queueing-delay tails and the throughput
	// delta is a steady-state effect — 600-commit phases make both too
	// noisy to read.
	reshCommits := commitOps
	if reshCommits < 2400 {
		reshCommits = 2400
	}
	logf("hotpath: resharding bench (%d skewed commits per phase)", reshCommits)
	rep.Resharding, err = runReshardingBench(filepath.Join(dir, "reshard"), reshCommits)
	if err != nil {
		return rep, fmt.Errorf("resharding bench: %w", err)
	}
	return rep, nil
}

// runReplicationBench commits against a durable primary while a replica
// tails it, sampling the replica's apply lag after every commit, then
// quiesces, catches the replica up, and measures its read path.
func runReplicationBench(path string, commits int) (ReplicationBench, error) {
	db, err := peb.Open(peb.Options{Path: path, Durability: peb.DurabilitySync, BufferPages: 64})
	if err != nil {
		return ReplicationBench{}, err
	}
	defer db.Close()
	const population = 256
	space := peb.Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	day := peb.TimeInterval{Start: 0, End: 1440}
	for i := 2; i <= population; i++ {
		if err := db.DefineRelation(peb.UserID(i), 1, "f"); err != nil {
			return ReplicationBench{}, err
		}
	}
	if err := db.Grant(2, "f", space, day); err != nil {
		return ReplicationBench{}, err
	}
	b := db.NewBatch()
	for i := 1; i <= population; i++ {
		b.Upsert(hotObj(i, 0))
	}
	if err := db.Apply(b); err != nil {
		return ReplicationBench{}, err
	}

	r, err := peb.NewReplica(db)
	if err != nil {
		return ReplicationBench{}, err
	}
	defer r.Close()

	lags := make([]uint64, 0, commits)
	for i := 0; i < commits; i++ {
		if err := db.Upsert(hotObj(i%population+1, i+1)); err != nil {
			return ReplicationBench{}, err
		}
		if seq, h := db.CommitSeq(), r.Horizon(); h < seq {
			lags = append(lags, seq-h)
		} else {
			lags = append(lags, 0)
		}
	}
	if _, err := r.CatchUp(); err != nil {
		return ReplicationBench{}, err
	}
	res := ReplicationBench{
		Commits:         commits,
		LagP50Records:   pctlU64(lags, 50),
		LagP99Records:   pctlU64(lags, 99),
		FinalLagRecords: float64(db.CommitSeq()) - float64(r.Horizon()),
	}

	reads := commits / 4
	if reads < 100 {
		reads = 100
	}
	lat := make([]time.Duration, reads)
	for i := range lat {
		start := time.Now()
		if _, err := r.RangeQuery(1, space, 10); err != nil {
			return ReplicationBench{}, err
		}
		lat[i] = time.Since(start)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.ReadP50Micros = percentile(lat, 0.50)
	return res, nil
}

func runCommitBench(path string, ops int) (CommitBench, error) {
	db, err := peb.Open(peb.Options{Path: path, Durability: peb.DurabilitySync, BufferPages: 64})
	if err != nil {
		return CommitBench{}, err
	}
	defer db.Close()
	const population = 256
	b := db.NewBatch()
	for i := 1; i <= population; i++ {
		b.Upsert(hotObj(i, 0))
	}
	if err := db.Apply(b); err != nil {
		return CommitBench{}, err
	}

	// Timed pass: per-op latency plus WAL counter deltas.
	before := db.WALStats()
	lat := make([]time.Duration, ops)
	for i := 0; i < ops; i++ {
		start := time.Now()
		if err := db.Upsert(hotObj(i%population+1, i+1)); err != nil {
			return CommitBench{}, err
		}
		lat[i] = time.Since(start)
	}
	after := db.WALStats()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })

	res := CommitBench{
		Ops:           ops,
		P50Micros:     percentile(lat, 0.50),
		P99Micros:     percentile(lat, 0.99),
		FsyncsPerOp:   float64(after.Syncs-before.Syncs) / float64(ops),
		WALBytesPerOp: float64(after.BytesAppended-before.BytesAppended) / float64(ops),
	}
	// Separate alloc pass: timing calls inside the measured window would
	// charge the clock's allocations to the commit path.
	allocRuns := ops / 4
	if allocRuns < 100 {
		allocRuns = 100
	}
	res.AllocsPerOp, err = allocsPerOp(allocRuns, func(i int) error {
		return db.Upsert(hotObj(i%population+1, ops+i+2))
	})
	return res, err
}

func runCheckpointBench(path string, cycles, objs int) (CheckpointBench, error) {
	db, err := peb.Open(peb.Options{Path: path, Durability: peb.DurabilitySync, BufferPages: 64})
	if err != nil {
		return CheckpointBench{}, err
	}
	defer db.Close()
	churn := func(salt int) error {
		b := db.NewBatch()
		for i := 1; i <= objs; i++ {
			b.Upsert(hotObj(i, salt))
		}
		return db.Apply(b)
	}
	if err := churn(0); err != nil {
		return CheckpointBench{}, err
	}
	if err := db.Checkpoint(); err != nil { // the anchoring full build
		return CheckpointBench{}, err
	}
	anchor := db.CheckpointStats()
	for c := 1; c <= cycles; c++ {
		if err := churn(c); err != nil {
			return CheckpointBench{}, err
		}
		if err := db.Checkpoint(); err != nil {
			return CheckpointBench{}, err
		}
	}
	st := db.CheckpointStats()
	res := CheckpointBench{
		Cycles:            cycles,
		ObjectsPerCycle:   objs,
		FullBuilds:        st.FullBuilds,
		IncrementalBuilds: st.IncrementalBuilds,
		PagesWalkedFull:   anchor.PagesWalked,
		PagesFlushed:      st.PagesFlushed,
		PagesReclaimed:    st.PagesReclaimed,
	}
	if st.IncrementalBuilds > 0 {
		res.PagesWalkedPerIncremental =
			float64(st.PagesWalked-anchor.PagesWalked) / float64(st.IncrementalBuilds)
	}
	return res, nil
}

// policyDB is the policy surface peb.DB and sharded.DB share.
type policyDB interface {
	DefineRelation(owner, peer peb.UserID, role peb.Role) error
	Grant(owner peb.UserID, role peb.Role, locr peb.Region, tint peb.TimeInterval) error
	EncodePolicies() error
}

// befriendU1 makes users 2…friends+1 consider u1 a friend and grant friends
// visibility everywhere, all day, then encodes — so u1's queries assemble a
// real candidate set rather than measuring an empty result path.
func befriendU1(db policyDB, friends int) error {
	space := peb.Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	day := peb.TimeInterval{Start: 0, End: 1440}
	for i := 2; i <= friends+1; i++ {
		if err := db.DefineRelation(peb.UserID(i), 1, "f"); err != nil {
			return err
		}
		if err := db.Grant(peb.UserID(i), "f", space, day); err != nil {
			return err
		}
	}
	return db.EncodePolicies()
}

// runQueryBench measures u1's PRQ and PkNN against its friends alone, then
// the page requests both make against a real population.
func runQueryBench(queries int) (PRQBench, PKNNBench, error) {
	const friends, k = 39, 5
	prq := PRQBench{Friends: friends, Queries: queries}
	knn := PKNNBench{Friends: friends, K: k, Queries: queries}
	db, err := peb.Open(peb.Options{}) // in-memory: measure the query path, not page I/O
	if err != nil {
		return prq, knn, err
	}
	defer db.Close()
	if err := befriendU1(db, friends); err != nil {
		return prq, knn, err
	}
	for i := 1; i <= friends+1; i++ {
		if err := db.Upsert(hotObj(i, 0)); err != nil {
			return prq, knn, err
		}
	}
	// Each query first warms the pooled search state, and refuses to
	// "measure" an empty result set — that would make every counter
	// trivially flattering.
	window := peb.Region{MinX: 300, MinY: 300, MaxX: 500, MaxY: 500}
	prq.P50Micros, prq.AllocsPerOp, err = measureQuery(queries, func() (int, error) {
		res, err := db.RangeQuery(1, window, 10)
		return len(res), err
	}, 1)
	if err != nil {
		return prq, knn, fmt.Errorf("prq: %w", err)
	}
	knn.P50Micros, knn.AllocsPerOp, err = measureQuery(queries, func() (int, error) {
		res, err := db.NearestNeighbors(1, 500, 500, k, 10)
		return len(res), err
	}, k)
	if err != nil {
		return prq, knn, fmt.Errorf("pknn: %w", err)
	}
	prq.PageRequestsPerQuery, knn.PageRequestsPerQuery, err = queryPageRequests(friends, k)
	if err != nil {
		return prq, knn, err
	}
	knn.RoutedPagesPerQuery4Shards, err = routedPKNNPages(friends, k)
	return prq, knn, err
}

// measureQuery returns a warm query's median latency (µs) and allocations.
// query reports how many results it found.
func measureQuery(queries int, query func() (int, error), minResults int) (p50, allocs float64, err error) {
	n, err := query()
	if err != nil {
		return 0, 0, err
	}
	if n < minResults {
		return 0, 0, fmt.Errorf("warm query returned %d results, want %d — policy setup broken", n, minResults)
	}
	lat := make([]time.Duration, queries)
	for i := range lat {
		start := time.Now()
		if _, err := query(); err != nil {
			return 0, 0, err
		}
		lat[i] = time.Since(start)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	allocs, err = allocsPerOp(queries, func(int) error { _, err := query(); return err })
	return percentile(lat, 0.50), allocs, err
}

// pagePopulation and pageQueries size the page-request counters. Neither
// shrinks in quick mode: the counters are per-query means and must repeat
// exactly from run to run.
const (
	pagePopulation = 20000
	pageQueries    = 200
)

// queryPageRequests loads u1's friends, among pagePopulation users spread
// over the space, into one in-memory DB and returns the page requests per
// PRQ and per PkNN issued by u1 from pageQueries fixed points.
func queryPageRequests(friends, k int) (prq, pknn float64, err error) {
	db, err := peb.Open(peb.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer db.Close()
	if err := befriendU1(db, friends); err != nil {
		return 0, 0, err
	}
	b := db.NewBatch()
	for i := 1; i <= pagePopulation; i++ {
		b.Upsert(hotObj(i, i/7))
	}
	if err := db.Apply(b); err != nil {
		return 0, 0, err
	}
	at := func(i int) (x, y float64) { return float64(i * 131 % 1000), float64(i * 577 % 1000) }
	before := db.IOStats().Accesses()
	for i := 0; i < pageQueries; i++ {
		x, y := at(i)
		if _, err := db.RangeQuery(1, peb.Region{MinX: x - 100, MinY: y - 100, MaxX: x + 100, MaxY: y + 100}, 10); err != nil {
			return 0, 0, err
		}
	}
	mid := db.IOStats().Accesses()
	for i := 0; i < pageQueries; i++ {
		x, y := at(i)
		if _, err := db.NearestNeighbors(1, x, y, k, 10); err != nil {
			return 0, 0, err
		}
	}
	after := db.IOStats().Accesses()
	return float64(mid-before) / pageQueries, float64(after-mid) / pageQueries, nil
}

// routedPopulation and routedQueries size the routed-PkNN page counter.
// Neither shrinks in quick mode: the counter is a per-query mean and must
// repeat exactly from run to run.
const (
	routedPopulation = 2000
	routedQueries    = 200
)

// routedPKNNPages loads u1's friends, among routedPopulation users spread
// over the space, into a 4-shard in-memory sharded.DB and returns the page
// requests per routed PkNN issued by u1 from routedQueries fixed points.
func routedPKNNPages(friends, k int) (float64, error) {
	db, err := sharded.Open(sharded.Options{Shards: 4})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	if err := befriendU1(db, friends); err != nil {
		return 0, err
	}
	b := db.NewBatch()
	for i := 1; i <= routedPopulation; i++ {
		b.Upsert(hotObj(i, i/7))
	}
	if err := db.Apply(b); err != nil {
		return 0, err
	}
	before := db.Stats().Buffer.Accesses()
	results := 0
	for i := 0; i < routedQueries; i++ {
		nbs, err := db.NearestNeighbors(1, float64(i*131%1000), float64(i*577%1000), k, 10)
		if err != nil {
			return 0, err
		}
		results += len(nbs)
	}
	if results != routedQueries*k {
		return 0, fmt.Errorf("routed pknn bench returned %d results, want %d — policy setup broken", results, routedQueries*k)
	}
	return float64(db.Stats().Buffer.Accesses()-before) / routedQueries, nil
}

// CompareHotPath diffs the report's stable counters against a baseline and
// returns one message per violated budget (empty = within budget). Each
// check allows relative-plus-absolute slack because allocation counts
// wobble slightly across Go releases and map growth boundaries; latencies
// are never compared.
func CompareHotPath(base, cur HotPathReport) []string {
	var bad []string
	check := func(name string, baseV, curV, relSlack, absSlack float64) {
		limit := baseV*(1+relSlack) + absSlack
		if curV > limit {
			bad = append(bad, fmt.Sprintf("%s: %.3f exceeds baseline %.3f (limit %.3f)",
				name, curV, baseV, limit))
		}
	}
	check("wal_codec.binary_bytes_per_record", base.Codec.BinaryBytesPerRecord, cur.Codec.BinaryBytesPerRecord, 0.05, 1)
	check("wal_codec.binary_allocs_per_op", base.Codec.BinaryAllocsPerOp, cur.Codec.BinaryAllocsPerOp, 0, 0.5)
	check("commit.allocs_per_op", base.Commit.AllocsPerOp, cur.Commit.AllocsPerOp, 0.5, 2)
	check("commit.fsyncs_per_op", base.Commit.FsyncsPerOp, cur.Commit.FsyncsPerOp, 0.1, 0.01)
	check("commit.wal_bytes_per_op", base.Commit.WALBytesPerOp, cur.Commit.WALBytesPerOp, 0.1, 4)
	check("checkpoint.pages_walked_per_incremental", base.Checkpoint.PagesWalkedPerIncremental,
		cur.Checkpoint.PagesWalkedPerIncremental, 0, 0.01)
	if cur.Checkpoint.FullBuilds > base.Checkpoint.FullBuilds {
		bad = append(bad, fmt.Sprintf("checkpoint.full_builds: %d exceeds baseline %d — the incremental chain broke",
			cur.Checkpoint.FullBuilds, base.Checkpoint.FullBuilds))
	}
	check("pknn.allocs_per_op", base.PKNN.AllocsPerOp, cur.PKNN.AllocsPerOp, 0.5, 2)
	// A baseline from before a counter existed reads zero and gates nothing.
	if base.PRQ.AllocsPerOp > 0 {
		check("prq.allocs_per_op", base.PRQ.AllocsPerOp, cur.PRQ.AllocsPerOp, 0.5, 2)
	}
	if base.PRQ.PageRequestsPerQuery > 0 {
		check("prq.page_requests_per_query", base.PRQ.PageRequestsPerQuery, cur.PRQ.PageRequestsPerQuery, 0, 0.01)
	}
	if base.PKNN.PageRequestsPerQuery > 0 {
		check("pknn.page_requests_per_query", base.PKNN.PageRequestsPerQuery, cur.PKNN.PageRequestsPerQuery, 0, 0.01)
	}
	if base.PKNN.RoutedPagesPerQuery4Shards > 0 {
		check("pknn.routed_pages_per_query_4shards", base.PKNN.RoutedPagesPerQuery4Shards,
			cur.PKNN.RoutedPagesPerQuery4Shards, 0.1, 1)
	}
	check("replication.final_lag_records", base.Replication.FinalLagRecords, cur.Replication.FinalLagRecords, 0, 0.01)
	check("resharding.lost_objects", base.Resharding.LostObjects, cur.Resharding.LostObjects, 0, 0.01)
	if base.Resharding.Splits > 0 && cur.Resharding.Splits == 0 {
		bad = append(bad, "resharding.splits: 0 — the load-driven split never fired")
	}
	if base.Resharding.Merges > 0 && cur.Resharding.Merges == 0 {
		bad = append(bad, "resharding.merges: 0 — the cold shards never coalesced")
	}
	return bad
}
