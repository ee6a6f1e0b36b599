package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/peb"
	pebobs "repro/peb/obs"
	"repro/peb/sharded"
)

// The resharding experiment measures what load-driven topology change buys
// a skewed commit stream. The space is provisioned as 8 uniform Hilbert
// ranges — the right layout for uniform load — but the workload is
// rush-hour: a fixed committer pool sends 70% of its updates into one
// small hot rectangle that routes to a single shard, while the rest
// trickles uniformly across all eight. Row x=0 keeps the static topology:
// one shard absorbs the burst while seven idle shards each keep their own
// WAL, group-commit pipeline, and fsync stream alive for a few commits per
// second. Row x=1 turns the AutoReshard maintainer on: the hot shard's
// EWMA commit rate trips the split threshold and its range splits at the
// observed population median while serving; the cold shards' rates sit
// under the merge threshold and their ranges coalesce. The topology
// converges to load-proportional shards — two hot halves plus one or two
// merged cold ranges — and the measured phase runs on that settled layout.
//
// Reported per row: aggregate commit throughput, the p99 latency of the
// hot-rectangle commits, the final shard count, and the automatic splits
// and merges that fired. The split/merge thresholds are derived from the
// static row's measured throughput (60% and 15% of it), so the trigger
// tracks the machine instead of hard-coding a rate.
//
// What to expect: the fitted topology beats the static one on both
// columns — the hot range's commits spread over two pipelines while the
// cold ranges stop fragmenting the group-commit batches eight ways. The
// stable facts (a split and a merge fire, no object is lost) are gated in
// peb/sharded by TestAutoReshardSplitsHotShard; the columns here are
// machine-dependent. This is not a paper figure; it validates the dynamic
// resharding engine (ROADMAP).
const (
	reshardingID     = "resharding"
	reshardingTitle  = "Skewed commits: static 8-shard layout vs load-driven resharding (x = 1)"
	reshardingXLabel = "auto_reshard"
)

// reshardStaticShards is the provisioned-for-uniform-load topology both
// variants start from.
const reshardStaticShards = 8

var reshardingColumns = []string{
	"commits_per_sec", "hot_commit_p99_us", "shards_final", "splits", "merges",
}

// reshardObj derives commit salt's position for user uid. Users with
// uid%10 < 7 live inside the hot rectangle [50,200)² — entirely within the
// curve's first 1/16th, so the 8-shard uniform layout routes all of them
// to shard 0 — and the rest roam the whole space. A hot user's position is
// a function of uid alone (its updates advance only T), so a split never
// turns the hot stream into cross-shard rehomes: the measurement isolates
// the topology effect.
func reshardObj(uid, salt int) peb.Object {
	if uid%10 < 7 {
		return peb.Object{
			UID: peb.UserID(uid),
			X:   float64(50 + (uid*13)%150),
			Y:   float64(50 + (uid*29)%150),
			T:   float64(salt % 50),
		}
	}
	return peb.Object{
		UID: peb.UserID(uid),
		X:   float64((uid*37 + salt*131) % 1000),
		Y:   float64((uid*59 + salt*17) % 1000),
		T:   float64(salt % 50),
	}
}

// reshardDrive runs the committer pool for one phase, collecting the
// latency of every hot-rectangle commit.
func reshardDrive(commits, committers, users, saltBase int,
	upsert func(peb.Object) error) (hotLat []time.Duration, ops int, elapsed time.Duration, err error) {

	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	errCh := make(chan error, committers)
	per := commits / committers
	start := time.Now()
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]time.Duration, 0, per)
			for i := 0; i < per; i++ {
				uid := w*users/committers + i%(users/committers) + 1
				o := reshardObj(uid, saltBase+i)
				s := time.Now()
				e := upsert(o)
				d := time.Since(s)
				if e != nil {
					select {
					case errCh <- e:
					default:
					}
					return
				}
				if uid%10 < 7 {
					local = append(local, d)
				}
			}
			mu.Lock()
			hotLat = append(hotLat, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed = time.Since(start)
	select {
	case err = <-errCh:
	default:
	}
	return hotLat, committers * per, elapsed, err
}

// reshardUsers sizes the population: a multiple of the committer count, so
// the pool's uid arithmetic covers every user exactly.
func reshardUsers(commits, committers int) int {
	users := commits / 4
	users -= users % committers
	if users < 4*committers {
		users = 4 * committers
	}
	return users
}

// reshardResult is one variant's measured phase.
type reshardResult struct {
	opsPerSec float64
	hotP99    time.Duration
	shards    int
	splits    uint64
	merges    uint64
}

// reshardQuiet summarizes one Stats() poll for the convergence wait: the
// topology is settled when this is unchanged across consecutive polls and
// no migration is in flight.
type reshardQuiet struct {
	shards, splits, merges uint64
	inFlight               bool
}

func reshardObserve(st sharded.Stats) reshardQuiet {
	q := reshardQuiet{shards: uint64(len(st.Shards)), splits: st.Splits, merges: st.Merges}
	for _, ss := range st.Shards {
		if ss.NoRoute || ss.Cover != ss.Route {
			q.inFlight = true // a merge is draining or a split's covers have not contracted
		}
	}
	return q
}

// reshardRun opens one sharded DB on the 8-uniform layout and measures one
// phase of the skewed workload against it. splitRate > 0 turns the
// AutoReshard maintainer on with the given thresholds; the run then keeps
// driving load until the topology has converged — the split fired, no
// migration is in flight, and nothing changed across three consecutive
// polls — so the measured phase sees the settled layout.
func reshardRun(dir string, commits, committers, users int, splitRate, mergeRate float64, mon string) (reshardResult, error) {
	opts := sharded.Options{
		Shards: reshardStaticShards,
		Dir:    dir,
		DB:     peb.Options{Durability: peb.DurabilityGrouped},
	}
	dynamic := splitRate > 0
	if dynamic {
		opts.LoadRateHalfLife = 100 * time.Millisecond
		opts.AutoReshard = sharded.AutoReshardPolicy{
			Interval:        10 * time.Millisecond,
			SplitCommitRate: splitRate,
			MergeCommitRate: mergeRate,
			// One split beyond the provisioned count is enough for the hot
			// range; merges then reclaim the cold shards.
			MaxShards: reshardStaticShards + 1,
		}
	}
	db, err := sharded.Open(opts)
	if err != nil {
		return reshardResult{}, err
	}
	defer db.Close()
	if mon != "" {
		srv, err := pebobs.Serve(mon, pebobs.ForSharded(db))
		if err != nil {
			return reshardResult{}, fmt.Errorf("resharding: monitor endpoint: %w", err)
		}
		defer srv.Close()
	}

	// Warm phase: both variants drive the same unmeasured volume, so the
	// measured phases start from comparable WAL and page state; the dynamic
	// variant then keeps bursting until the maintainer has reshaped the
	// topology and the layout has settled.
	salt := 1
	if _, _, _, err := reshardDrive(commits, committers, users, salt, db.Upsert); err != nil {
		return reshardResult{}, err
	}
	salt += commits
	if dynamic {
		deadline := time.Now().Add(20 * time.Second)
		stable, last := 0, reshardQuiet{}
		for {
			q := reshardObserve(db.Stats())
			if q.splits >= 1 && !q.inFlight && q == last {
				stable++
				if stable >= 3 {
					break
				}
			} else {
				stable = 0
			}
			last = q
			if time.Now().After(deadline) {
				if q.splits == 0 {
					return reshardResult{}, fmt.Errorf("resharding: no automatic split after 20s of hot load")
				}
				break // split fired; settle for a still-moving tail
			}
			if _, _, _, err := reshardDrive(400, committers, users, salt, db.Upsert); err != nil {
				return reshardResult{}, err
			}
			salt += 400
		}
	}

	hotLat, ops, elapsed, err := reshardDrive(commits, committers, users, salt, db.Upsert)
	if err != nil {
		return reshardResult{}, err
	}
	st := db.Stats()
	return reshardResult{
		opsPerSec: float64(ops) / elapsed.Seconds(),
		hotP99:    pctl(hotLat, 99),
		shards:    len(st.Shards),
		splits:    st.Splits,
		merges:    st.Merges,
	}, db.Close()
}

// reshardThresholds derives the maintainer's trigger rates from the static
// run's measured throughput: the hot shard carries ~70% of it (the halves
// ~35% each), the cold shards ~3.75% each, so 60%/15% split the hot range
// once and coalesce the cold ranges — and then hold still. The split
// margin is deliberately wide at the top: the fitted topology commits
// ~20-30% faster than the static one, which lifts every shard's rate by
// the same factor, and the halves must stay under the threshold even so.
func reshardThresholds(staticOpsPerSec float64) (split, merge float64) {
	return 0.60 * staticOpsPerSec, 0.15 * staticOpsPerSec
}

var expResharding = Experiment{
	ID:      reshardingID,
	Title:   reshardingTitle,
	XLabel:  reshardingXLabel,
	Columns: reshardingColumns,
	Run: func(o Options) (*Table, error) {
		o.normalize()
		commits := int(6000 * o.Scale)
		if commits < 400 {
			commits = 400
		}
		const committers = 16
		users := reshardUsers(commits, committers)
		dir, err := os.MkdirTemp("", "pebbench-resharding-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)

		static, err := reshardRun(filepath.Join(dir, "static"), commits, committers, users, 0, 0, o.MonitorAddr)
		if err != nil {
			return nil, fmt.Errorf("resharding static: %w", err)
		}
		splitRate, mergeRate := reshardThresholds(static.opsPerSec)
		dyn, err := reshardRun(filepath.Join(dir, "dynamic"), commits, committers, users, splitRate, mergeRate, o.MonitorAddr)
		if err != nil {
			return nil, fmt.Errorf("resharding dynamic: %w", err)
		}

		rows := make([]Row, 0, 2)
		for _, r := range []struct {
			x   float64
			res reshardResult
		}{{0, static}, {1, dyn}} {
			o.logf("resharding x=%g: %.0f commits/s, hot p99 %v, %d shards, %d splits, %d merges",
				r.x, r.res.opsPerSec, r.res.hotP99, r.res.shards, r.res.splits, r.res.merges)
			rows = append(rows, Row{X: r.x, Vals: []float64{
				r.res.opsPerSec,
				float64(r.res.hotP99.Microseconds()),
				float64(r.res.shards),
				float64(r.res.splits),
				float64(r.res.merges),
			}})
		}
		return &Table{ID: reshardingID, Title: reshardingTitle, XLabel: reshardingXLabel,
			Columns: reshardingColumns, Rows: rows}, nil
	},
}
