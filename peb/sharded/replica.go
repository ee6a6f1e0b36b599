package sharded

import (
	"fmt"
	"sync/atomic"

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
// not offloaded.

// attachReplicas creates the per-shard follower pools. Called from Open
// after every shard has recovered.
func (db *DB) attachReplicas(n int) error {
	db.replicas = make([][]*peb.Replica, len(db.shards))
	db.rr = make([]atomic.Uint64, len(db.shards))
	db.written = make([]atomic.Uint64, len(db.shards))
	db.stalled = make([]atomic.Bool, len(db.shards))
	for i, s := range db.shards {
		pool := make([]*peb.Replica, 0, n)
		for k := 0; k < n; k++ {
			r, err := peb.NewReplica(s)
			if err != nil {
				db.closeReplicas()
				return fmt.Errorf("sharded: attach replica %d to shard %d: %w", k, i, err)
			}
			pool = append(pool, r)
		}
		db.replicas[i] = pool
		// Recovery replayed history the bootstrap copied; reads routed
		// before the first write must still honor it.
		db.written[i].Store(s.CommitSeq())
	}
	return nil
}

// closeReplicas detaches every follower (releasing their WAL retention
// floors). Best effort: a replica's close error does not mask another's.
func (db *DB) closeReplicas() error {
	var firstErr error
	for _, pool := range db.replicas {
		for _, r := range pool {
			if err := r.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	db.replicas = nil
	return firstErr
}

// noteWrite records that the router just committed on shard i: it feeds
// the shard's load meter (the hot-shard detector's signal) and, with
// replicas attached, raises the horizon follower reads on that shard
// must reach. The sequence is read back from the shard (commits from
// concurrent routed writes may have interleaved; observing a later one
// only strengthens the check), and the per-shard watermark only ever
// ratchets up.
func (db *DB) noteWrite(i int) {
	db.metas[i].load.noteCommit()
	if len(db.replicas) == 0 {
		return
	}
	seq := db.shards[i].CommitSeq()
	for {
		cur := db.written[i].Load()
		if seq <= cur || db.written[i].CompareAndSwap(cur, seq) {
			return
		}
	}
}

// reader picks the query target for shard i: the next follower in
// round-robin order when one is fresh enough, the primary otherwise.
// Either way the shard's load meter records the consultation.
func (db *DB) reader(i int) querier {
	db.metas[i].load.noteQuery()
	if len(db.replicas) == 0 {
		return db.shards[i]
	}
	pool := db.replicas[i]
	if len(pool) == 0 {
		return db.shards[i]
	}
	r := pool[db.rr[i].Add(1)%uint64(len(pool))]
	need := db.written[i].Load()
	bound := db.opts.StalenessBound
	if h := r.Horizon(); h+bound < need {
		// One synchronous catch-up: the follower drains everything the
		// primary had logged, so this fails only on a tail fault or an
		// undecided cross-shard transaction stalling the apply queue.
		if h, err := r.CatchUp(); err != nil || h+bound < need {
			db.primaryFallbacks.Add(1)
			// Record the stall once per transition, not per fallback: the
			// event log is for decisions, not per-read noise.
			if !db.stalled[i].Swap(true) {
				db.events.Record("replica.stall", "shard's followers cannot reach the read horizon",
					"shard", db.metas[i].id, "horizon", h, "need", need, "err", err)
			}
			return db.shards[i]
		}
	}
	if db.stalled[i].Swap(false) {
		db.events.Record("replica.catchup", "shard's followers serve reads again",
			"shard", db.metas[i].id, "need", need)
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
	out := make([][]uint64, len(db.shards))
	for i, pool := range db.replicas {
		hs := make([]uint64, len(pool))
		for k, r := range pool {
			hs[k] = r.Horizon()
		}
		out[i] = hs
	}
	return out
}

// followerLagsByShard reports each follower's apply lag in WAL records —
// the shard's committed sequence minus the follower's horizon, clamped at
// zero (the horizon is sampled after the sequence, so a fast follower can
// appear ahead) — in shard-slot order (empty inner slices without
// replicas), plus the parallel stable shard ids, for labeling series by
// shard identity.
func (db *DB) followerLagsByShard() ([]int, [][]uint64) {
	db.smu.RLock()
	defer db.smu.RUnlock()
	ids := make([]int, len(db.shards))
	for i := range db.shards {
		ids[i] = db.metas[i].id
	}
	out := make([][]uint64, len(db.shards))
	for i, pool := range db.replicas {
		seq := db.shards[i].CommitSeq()
		lags := make([]uint64, len(pool))
		for k, r := range pool {
			if h := r.Horizon(); h < seq {
				lags[k] = seq - h
			}
		}
		out[i] = lags
	}
	return ids, out
}
