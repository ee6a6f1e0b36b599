package exp

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/peb"
	"repro/peb/sharded"
)

// The replication experiment measures what follower reads buy the query
// path: a fixed reader pool runs policy-constrained range queries flat
// out against a 2-shard durable router while one writer keeps committing
// movement updates, with (x=0) reads served by the shard primaries and
// (x=1,2,4) reads served round-robin by that many tailing replicas per
// shard under a zero staleness bound. Reported per row: read throughput,
// read latency percentiles, the fraction of reads a follower actually
// served, and the replicas' apply lag (in WAL records) sampled after
// every commit.
//
// What to expect: with a zero staleness bound every follower read pays a
// horizon check against the shard's latest routed commit, so the offload
// fraction is the honest number — a read that catches a replica mid-drain
// falls back to the primary rather than serve stale data. Apply lag stays
// small (the tailer wakes on every commit) but nonzero under load; the
// p99 is the interesting number. On a single-CPU runner the throughput
// ratio stays ~1× by construction, so CI asserts the experiment runs, not
// its ratios. This is not a paper figure; it validates the replication
// layer (ROADMAP).
const (
	replicationID     = "replication"
	replicationTitle  = "Follower-read offload (x = replicas per shard; 0 = primary reads)"
	replicationXLabel = "replicas"
)

var replicationColumns = []string{
	"reads_per_sec", "read_p50_us", "read_p99_us", "follower_share", "lag_p50_recs", "lag_p99_recs",
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

// pctlU64 returns the p-th percentile of unsorted uint64 samples.
func pctlU64(samples []uint64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]uint64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	return float64(sorted[idx])
}

// replicationSetup builds the social graph the readers query through:
// every user considers u1 a friend and grants friends full visibility, so
// u1's range queries assemble real result sets.
func replicationSetup(db *sharded.DB, users int) error {
	space := sharded.Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	day := sharded.TimeInterval{Start: 0, End: 1440}
	for i := 2; i <= users; i++ {
		if err := db.DefineRelation(sharded.UserID(i), 1, "f"); err != nil {
			return err
		}
		if err := db.Grant(sharded.UserID(i), "f", space, day); err != nil {
			return err
		}
	}
	if err := db.EncodePolicies(); err != nil {
		return err
	}
	for i := 1; i <= users; i++ {
		if err := db.Upsert(shardingObj(i, 0)); err != nil {
			return err
		}
	}
	return nil
}

var expReplication = Experiment{
	ID:      replicationID,
	Title:   replicationTitle,
	XLabel:  replicationXLabel,
	Columns: replicationColumns,
	Run: func(o Options) (*Table, error) {
		o.normalize()
		reads := int(4000 * o.Scale)
		if reads < 400 {
			reads = 400
		}
		const readers = 4
		users := reads / 8
		if users < 64 {
			users = 64
		}
		dir, err := os.MkdirTemp("", "pebbench-replication-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)

		window := sharded.Region{MinX: 100, MinY: 100, MaxX: 900, MaxY: 900}
		variants := []int{0, 1, 2, 4}
		rows := make([]Row, 0, len(variants))
		for _, replicas := range variants {
			db, err := sharded.Open(sharded.Options{
				Shards:           2,
				Dir:              fmt.Sprintf("%s/rep-%d", dir, replicas),
				DB:               peb.Options{Durability: peb.DurabilityGrouped},
				ReplicasPerShard: replicas,
			})
			if err != nil {
				return nil, err
			}
			if err := replicationSetup(db, users); err != nil {
				db.Close()
				return nil, fmt.Errorf("replication x=%d: setup: %w", replicas, err)
			}

			// One writer commits continuously (sampling apply lag after
			// every commit) while the reader pool drains its query budget.
			var (
				wg, wwg sync.WaitGroup
				mu      sync.Mutex
				lat     = make([]time.Duration, 0, reads)
				lags    []uint64
				runErr  error
			)
			fail := func(e error) {
				mu.Lock()
				if runErr == nil {
					runErr = e
				}
				mu.Unlock()
			}
			done := make(chan struct{})
			wwg.Add(1)
			go func() {
				defer wwg.Done()
				for salt := 1; ; salt++ {
					select {
					case <-done:
						return
					default:
					}
					uid := salt%users + 1
					if err := db.Upsert(shardingObj(uid, salt)); err != nil {
						fail(fmt.Errorf("writer: %w", err))
						return
					}
					for _, pool := range db.FollowerLagReadings() {
						mu.Lock()
						for _, lr := range pool {
							lags = append(lags, lr.Lag)
						}
						mu.Unlock()
					}
				}
			}()
			start := time.Now()
			per := reads / readers
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					local := make([]time.Duration, 0, per)
					for i := 0; i < per; i++ {
						s := time.Now()
						if _, err := db.RangeQuery(1, window, float64(i%50)); err != nil {
							fail(fmt.Errorf("reader %d: %w", w, err))
							return
						}
						local = append(local, time.Since(s))
					}
					mu.Lock()
					lat = append(lat, local...)
					mu.Unlock()
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(start)
			close(done)
			wwg.Wait()
			st := db.Stats()
			if err := db.Close(); err != nil && runErr == nil {
				runErr = err
			}
			if runErr != nil {
				return nil, fmt.Errorf("replication x=%d: %w", replicas, runErr)
			}

			share := 0.0
			if total := st.FollowerReads + st.PrimaryFallbacks; replicas > 0 && total > 0 {
				share = float64(st.FollowerReads) / float64(total)
			}
			throughput := float64(len(lat)) / elapsed.Seconds()
			o.logf("replication x=%d: %d reads in %v (%.0f/s), p50 %v p99 %v, follower share %.2f, lag p50/p99 %.0f/%.0f recs",
				replicas, len(lat), elapsed.Round(time.Millisecond), throughput,
				pctl(lat, 50), pctl(lat, 99), share, pctlU64(lags, 50), pctlU64(lags, 99))
			rows = append(rows, Row{X: float64(replicas), Vals: []float64{
				throughput,
				float64(pctl(lat, 50).Microseconds()),
				float64(pctl(lat, 99).Microseconds()),
				share,
				pctlU64(lags, 50),
				pctlU64(lags, 99),
			}})
		}
		return &Table{ID: replicationID, Title: replicationTitle, XLabel: replicationXLabel,
			Columns: replicationColumns, Rows: rows}, nil
	},
}
