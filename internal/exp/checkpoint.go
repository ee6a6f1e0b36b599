package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/peb"
)

// The checkpoint experiment measures what a checkpoint costs the serving
// path: one committer and one querier run flat out against a file-backed
// durable DB while checkpoints happen, and the experiment reports their
// p50/p99/max latencies plus the total write-lock stall the checkpoints
// imposed (CheckpointStats: the cut and publish phases). Two modes, one
// row each:
//
//	x=1  phased  manual Checkpoint calls alongside the load — only cut
//	             and publish hold the write lock.
//	x=2  auto    no manual Checkpoint calls at all: AutoCheckpoint
//	             triggers from the WAL record threshold (steady state).
//
// (x=0 was the stop-the-world baseline — the whole pipeline in one
// write-lock critical section; its numbers are recorded in CHANGES.md.)
//
// Stall time, not throughput ratios, is the headline number: the CI box
// has one CPU, so a background build phase still steals cycles — what the
// pipeline eliminates is the *lock-held* window where every commit and
// query must wait, and that is what stall_ms reports. This is not a paper
// figure; it validates the phased checkpoint pipeline (ROADMAP).
const (
	checkpointID     = "checkpoint"
	checkpointTitle  = "Commit/query latency with checkpoints running (mode 1=phased 2=auto)"
	checkpointXLabel = "mode"
)

var checkpointColumns = []string{
	"commit_p50_us", "commit_p99_us", "commit_max_us",
	"query_p99_us", "stall_ms", "ckpts",
}

// pctl returns the p-th percentile (0 < p ≤ 100) of the samples.
func pctl(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(float64(len(sorted))*p/100) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// checkpointBench runs one mode and returns the latency samples and the
// DB's final checkpoint statistics.
func checkpointBench(dir, mode string, commits, preload int) (commitLat, queryLat []time.Duration, st peb.CheckpointStats, err error) {
	opts := peb.Options{
		Path:       filepath.Join(dir, "ckpt-"+mode+".idx"),
		Durability: peb.DurabilityGrouped,
		// Size the buffer to the index so the build phase's page flushing,
		// not miss-path serialization, is the effect under test.
		BufferPages: preload/8 + 256,
	}
	if mode == "auto" {
		opts.AutoCheckpoint = peb.AutoCheckpointPolicy{WALRecords: uint64(commits / 4)}
	}
	db, err := peb.Open(opts)
	if err != nil {
		return nil, nil, st, err
	}
	defer db.Close()

	obj := func(uid, salt int) peb.Object {
		return peb.Object{
			UID: peb.UserID(uid),
			X:   float64((uid*37 + salt*131) % 1000),
			Y:   float64((uid*59 + salt*17) % 1000),
			T:   float64(salt % 50),
		}
	}
	// Preload the population and enough policies that the measured range
	// query scans real leaves: users grant visibility to user 1's role.
	day := peb.TimeInterval{Start: 0, End: 1440}
	space := peb.Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	b := db.NewBatch()
	for i := 1; i <= preload; i++ {
		b.Upsert(obj(i, 0))
	}
	grantors := preload
	if grantors > 200 {
		grantors = 200
	}
	for i := 2; i <= grantors; i++ {
		b.DefineRelation(peb.UserID(i), 1, "f")
		b.Grant(peb.UserID(i), "f", space, day)
	}
	if err := db.Apply(b); err != nil {
		return nil, nil, st, err
	}
	if err := db.EncodePolicies(); err != nil {
		return nil, nil, st, err
	}
	if err := db.Checkpoint(); err != nil { // baseline image; the measured ones are incremental
		return nil, nil, st, err
	}

	var (
		done   atomic.Bool
		wg     sync.WaitGroup
		qLat   []time.Duration
		qErr   error
		ckptWG sync.WaitGroup
	)
	ckptErrs := make(chan error, 3) // one slot per triggered checkpoint
	all := peb.Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	wg.Add(1)
	go func() { // querier
		defer wg.Done()
		for !done.Load() {
			start := time.Now()
			if _, e := db.RangeQuery(1, all, 30); e != nil {
				qErr = e
				return
			}
			if len(qLat) < 1<<20 { // bound memory on long runs
				qLat = append(qLat, time.Since(start))
			}
		}
	}()

	commitLat = make([]time.Duration, 0, commits)
	trigger := map[int]bool{commits / 4: true, commits / 2: true, 3 * commits / 4: true}
	for i := 1; i <= commits; i++ {
		if mode != "auto" && trigger[i] {
			// Fire the checkpoint alongside the load.
			ckptWG.Add(1)
			go func() {
				defer ckptWG.Done()
				if e := db.Checkpoint(); e != nil {
					select {
					case ckptErrs <- e:
					default:
					}
				}
			}()
		}
		start := time.Now()
		e := db.Upsert(obj(i%preload+1, i))
		commitLat = append(commitLat, time.Since(start))
		if e != nil {
			done.Store(true)
			wg.Wait()
			return nil, nil, st, e
		}
	}
	ckptWG.Wait()
	done.Store(true)
	wg.Wait()
	if qErr != nil {
		return nil, nil, st, qErr
	}
	select {
	case e := <-ckptErrs:
		return nil, nil, st, e
	default:
	}
	return commitLat, qLat, db.CheckpointStats(), nil
}

var expCheckpoint = Experiment{
	ID:      checkpointID,
	Title:   checkpointTitle,
	XLabel:  checkpointXLabel,
	Columns: checkpointColumns,
	Run: func(o Options) (*Table, error) {
		o.normalize()
		commits := int(2000 * o.Scale)
		if commits < 200 {
			commits = 200
		}
		preload := int(4000 * o.Scale)
		if preload < 300 {
			preload = 300
		}
		dir, err := os.MkdirTemp("", "pebbench-checkpoint-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)

		modes := []string{"phased", "auto"}
		rows := make([]Row, 0, len(modes))
		for i, mode := range modes {
			cLat, qLat, st, err := checkpointBench(dir, mode, commits, preload)
			if err != nil {
				return nil, fmt.Errorf("checkpoint mode %s: %w", mode, err)
			}
			// The write-lock stall the checkpoints imposed.
			stall := st.TotalCut + st.TotalPublish
			o.logf("checkpoint %s: %d ckpts (%d auto, %d coalesced), commit p99 %v max %v, query p99 %v, stall %v (cut %v build %v publish %v), %d pages flushed, %d reclaimed, %d wal bytes truncated",
				mode, st.Checkpoints, st.AutoTriggered, st.Coalesced,
				pctl(cLat, 99), pctl(cLat, 100), pctl(qLat, 99),
				stall, st.TotalCut, st.TotalBuild, st.TotalPublish,
				st.PagesFlushed, st.PagesReclaimed, st.WALBytesTruncated)
			rows = append(rows, Row{X: float64(i + 1), Vals: []float64{
				float64(pctl(cLat, 50).Microseconds()),
				float64(pctl(cLat, 99).Microseconds()),
				float64(pctl(cLat, 100).Microseconds()),
				float64(pctl(qLat, 99).Microseconds()),
				float64(stall.Milliseconds()) + float64(stall.Microseconds()%1000)/1000,
				float64(st.Checkpoints),
			}})
		}
		return &Table{ID: checkpointID, Title: checkpointTitle, XLabel: checkpointXLabel,
			Columns: checkpointColumns, Rows: rows}, nil
	},
}
