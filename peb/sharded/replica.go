package sharded

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
	"repro/peb"
)

// Follower reads. With Options.ReplicasPerShard > 0 the router attaches
// that many peb.Replica followers to every shard and serves RangeQuery
// and NearestNeighbors from them round-robin, keeping the shard primaries
// free for commits. Correctness is preserved by a read-your-writes check:
// the router remembers, per shard, the WAL sequence of the last commit it
// routed there (written), and a follower serves a read only when its
// applied horizon has reached that sequence — minus the configured
// StalenessBound. A lagging follower gets one synchronous CatchUp; if it
// still cannot reach the horizon (a tail fault, or an undecided
// cross-shard transaction stalling its apply queue), the read falls back
// to the primary, so follower reads are never wrong — at worst they are
// not offloaded. The pool lives in the shard's record (shardMeta), so it
// moves with the shard through splits and merges.

// followers is one shard's follower pool and its read state: the
// round-robin cursor, the read-your-writes watermark (written), and
// whether the last read fell back to the primary (stalled, so stall and
// recovery are logged once per transition, not once per read).
type followers struct {
	pool    []*peb.Replica
	rr      atomic.Uint64
	written atomic.Uint64
	stalled atomic.Bool
}

// attachFollowers creates shard s's pool of n followers, or returns nil
// for n == 0. The watermark starts at the shard's committed sequence:
// reads routed before the first write must still honor the history
// (recovery, a split's encoding) the bootstrap copied.
func attachFollowers(s *peb.DB, id, n int) (*followers, error) {
	if n == 0 {
		return nil, nil
	}
	f := &followers{}
	for k := 0; k < n; k++ {
		r, err := peb.NewReplica(s)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("sharded: attach replica %d to shard %d: %w", k, id, err)
		}
		f.pool = append(f.pool, r)
	}
	f.written.Store(s.CommitSeq())
	return f, nil
}

// replicas returns the pool; nil-safe.
func (f *followers) replicas() []*peb.Replica {
	if f == nil {
		return nil
	}
	return f.pool
}

// close detaches every follower (releasing their WAL retention floors);
// nil-safe. Best effort: a replica's close error does not mask another's.
func (f *followers) close() error {
	var firstErr error
	for _, r := range f.replicas() {
		if err := r.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// noteWrite records that the router just committed on shard i: it feeds
// the shard's load meter (the hot-shard detector's signal) and, with
// replicas attached, raises the horizon follower reads on that shard
// must reach. The sequence is read back from the shard (commits from
// concurrent routed writes may have interleaved; observing a later one
// only strengthens the check), and the watermark only ever ratchets up.
func (db *DB) noteWrite(i int) {
	sm := &db.metas[i]
	sm.load.noteCommit()
	if sm.followers == nil {
		return
	}
	seq := db.shards[i].CommitSeq()
	for {
		cur := sm.followers.written.Load()
		if seq <= cur || sm.followers.written.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// reader picks the query target for shard i: the next follower in
// round-robin order when one is fresh enough, the primary otherwise.
// Either way the shard's load meter records the consultation.
func (db *DB) reader(i int) querier {
	sm := &db.metas[i]
	sm.load.noteQuery()
	f := sm.followers
	if f == nil {
		return db.shards[i]
	}
	r := f.pool[f.rr.Add(1)%uint64(len(f.pool))]
	need := f.written.Load()
	bound := db.opts.StalenessBound
	if h := r.Horizon(); h+bound < need {
		// One synchronous catch-up: the follower drains everything the
		// primary had logged, so this fails only on a tail fault or an
		// undecided cross-shard transaction stalling the apply queue.
		if h, err := r.CatchUp(); err != nil || h+bound < need {
			db.primaryFallbacks.Add(1)
			if !f.stalled.Swap(true) {
				db.events.Record("replica.stall", "shard's followers cannot reach the read horizon",
					"shard", sm.id, "horizon", h, "need", need, "err", err)
			}
			return db.shards[i]
		}
	}
	if f.stalled.Swap(false) {
		db.events.Record("replica.catchup", "shard's followers serve reads again",
			"shard", sm.id, "need", need)
	}
	db.followerReads.Add(1)
	return r
}

// FollowerHorizons reports each shard's follower applied horizons, in
// shard order (empty inner slices without replicas) — the observability
// hook for replication lag.
func (db *DB) FollowerHorizons() [][]uint64 {
	db.smu.RLock()
	defer db.smu.RUnlock()
	out := make([][]uint64, len(db.metas))
	for i, sm := range db.metas {
		for _, r := range sm.followers.replicas() {
			out[i] = append(out[i], r.Horizon())
		}
	}
	return out
}

// collectFollowerLags emits one peb_follower_lag_records series per
// follower, labeled by stable shard id: the shard's committed sequence
// minus the follower's horizon, clamped at zero (the horizon is sampled
// after the sequence, so a fast follower can appear ahead). A closed
// router emits none, as Stats reports no shard.
func (db *DB) collectFollowerLags(e *obs.Emit) {
	db.smu.RLock()
	defer db.smu.RUnlock()
	if db.closed {
		return
	}
	for i, sm := range db.metas {
		seq := db.shards[i].CommitSeq()
		for k, r := range sm.followers.replicas() {
			var lag uint64
			if h := r.Horizon(); h < seq {
				lag = seq - h
			}
			e.Gauge("peb_follower_lag_records",
				"Follower apply lag in WAL records behind the shard's committed sequence.",
				float64(lag),
				obs.Label{Key: "shard", Value: shardLabel(sm.id)},
				obs.Label{Key: "replica", Value: fmt.Sprintf("%d", k)})
		}
	}
}
