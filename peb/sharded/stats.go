package sharded

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
	"repro/internal/zcurve"
	"repro/peb"
)

// defaultLoadRateHalfLife is the EWMA horizon when Options leaves
// LoadRateHalfLife zero.
const defaultLoadRateHalfLife = 10 * time.Second

// loadMeter tracks one shard's router-side load: lifetime commit and
// query counters bumped lock-free on the hot paths, folded into
// exponentially-weighted per-second rates whenever someone asks. The
// EWMA over irregular sampling uses alpha = 1 − exp(−dt/tau): a burst's
// contribution halves every half-life regardless of how often the rates
// are read.
type loadMeter struct {
	commits atomic.Uint64
	queries atomic.Uint64

	mu        sync.Mutex
	sampledAt time.Time
	lastC     uint64
	lastQ     uint64
	commitEW  float64
	queryEW   float64
}

func newLoadMeter() *loadMeter { return &loadMeter{} }

func (m *loadMeter) noteCommit() { m.commits.Add(1) }
func (m *loadMeter) noteQuery()  { m.queries.Add(1) }

// rates folds the activity since the previous fold into the EWMA and
// returns the current per-second commit and query rates. The very first
// fold only anchors the clock (no interval to rate yet).
func (m *loadMeter) rates(now time.Time, halfLife time.Duration) (commit, query float64) {
	if halfLife <= 0 {
		halfLife = defaultLoadRateHalfLife
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, q := m.commits.Load(), m.queries.Load()
	if m.sampledAt.IsZero() {
		m.sampledAt, m.lastC, m.lastQ = now, c, q
		return 0, 0
	}
	dt := now.Sub(m.sampledAt).Seconds()
	if dt <= 0 {
		return m.commitEW, m.queryEW
	}
	tau := halfLife.Seconds() / math.Ln2
	alpha := 1 - math.Exp(-dt/tau)
	m.commitEW += alpha * (float64(c-m.lastC)/dt - m.commitEW)
	m.queryEW += alpha * (float64(q-m.lastQ)/dt - m.queryEW)
	m.sampledAt, m.lastC, m.lastQ = now, c, q
	return m.commitEW, m.queryEW
}

// ShardStats is one shard's contribution to the aggregate.
type ShardStats struct {
	// ID is the shard's stable identity (its shard-NNN directory); the
	// slice position in Stats.Shards is its current routing slot.
	ID int
	// Route is the Hilbert range whose writes this shard owns; NoRoute
	// marks a shard draining into a merge peer (Route is meaningless
	// then). Cover is the range the shard may still hold objects for —
	// wider than Route only while a split or merge migration is in
	// flight.
	Route   zcurve.Interval
	NoRoute bool
	Cover   zcurve.Interval
	// Size is the shard's indexed population.
	Size int
	// Commits and Queries are lifetime router-side counters: commits the
	// router routed to this shard and one-shot queries that consulted it.
	Commits uint64
	Queries uint64
	// CommitRate and QueryRate are the same signals as exponentially-
	// weighted per-second rates (horizon Options.LoadRateHalfLife) — the
	// hot-shard detector's input.
	CommitRate float64
	QueryRate  float64
	// WAL is the shard's write-ahead-log activity.
	WAL peb.WALStats
	// Checkpoints is the shard's checkpoint pipeline activity.
	Checkpoints peb.CheckpointStats
	// ViewSwaps counts the shard's query-view republishes.
	ViewSwaps uint64
	// Buffer is the shard's buffer-pool activity (Misses is the paper's
	// page-I/O count); a cold shard shows up as a skewed hit ratio.
	Buffer store.BufferStats
}

// Stats is the aggregated observability view over every shard: the summed
// counters the single-tree engine exposes one DB at a time, plus the
// per-shard breakdown (the interesting number for balance: a hot shard
// shows up as a skewed CommitRate, Size, or WAL.Appends).
type Stats struct {
	// Shards holds each shard's individual counters, in slot order.
	Shards []ShardStats
	// Epoch is the topology version; Splits and Merges count completed
	// online topology changes since Open.
	Epoch  uint64
	Splits uint64
	Merges uint64
	// WAL sums the per-shard log activity.
	WAL peb.WALStats
	// Checkpoints sums the per-shard pipeline counters and Total*
	// durations; the Last* durations are the maximum across shards (the
	// stall any single commit could have seen, since shards stall
	// independently).
	Checkpoints peb.CheckpointStats
	// ViewSwaps sums the per-shard view republishes.
	ViewSwaps uint64
	// FollowerReads counts shard queries served by a replica follower;
	// PrimaryFallbacks counts queries that wanted a follower but fell back
	// to the primary (the follower could not reach the required horizon).
	// Both are zero without Options.ReplicasPerShard.
	FollowerReads    uint64
	PrimaryFallbacks uint64
	// Buffer sums the per-shard buffer-pool counters.
	Buffer store.BufferStats
	// TxnDecisions counts 2PC verdicts in the router's decision log since
	// its last compaction; TxnLogBytes is that log's size on disk. Both are
	// zero without durability.
	TxnDecisions uint64
	TxnLogBytes  int64
}

// Stats returns the aggregated counters since Open.
func (db *DB) Stats() Stats {
	db.smu.RLock()
	defer db.smu.RUnlock()
	out := Stats{Shards: make([]ShardStats, len(db.shards))}
	if db.closed {
		return out
	}
	now := db.now()
	for i, s := range db.shards {
		sm := db.metas[i]
		cr, qr := sm.load.rates(now, db.opts.LoadRateHalfLife)
		ss := ShardStats{
			ID:          sm.id,
			Route:       sm.route,
			NoRoute:     sm.noRoute,
			Cover:       sm.cover,
			Size:        s.Size(),
			Commits:     sm.load.commits.Load(),
			Queries:     sm.load.queries.Load(),
			CommitRate:  cr,
			QueryRate:   qr,
			WAL:         s.WALStats(),
			Checkpoints: s.CheckpointStats(),
			ViewSwaps:   s.ViewSwaps(),
			Buffer:      s.IOStats(),
		}
		out.Shards[i] = ss

		out.Buffer.Hits += ss.Buffer.Hits
		out.Buffer.Misses += ss.Buffer.Misses
		out.Buffer.Evictions += ss.Buffer.Evictions
		out.Buffer.WriteBack += ss.Buffer.WriteBack

		out.WAL.Appends += ss.WAL.Appends
		out.WAL.Syncs += ss.WAL.Syncs
		out.WAL.BytesAppended += ss.WAL.BytesAppended
		out.WAL.SegmentsSealed += ss.WAL.SegmentsSealed
		out.WAL.SegmentsRemoved += ss.WAL.SegmentsRemoved
		out.ViewSwaps += ss.ViewSwaps

		c := &out.Checkpoints
		c.Checkpoints += ss.Checkpoints.Checkpoints
		c.Coalesced += ss.Checkpoints.Coalesced
		c.AutoTriggered += ss.Checkpoints.AutoTriggered
		c.TotalCut += ss.Checkpoints.TotalCut
		c.TotalBuild += ss.Checkpoints.TotalBuild
		c.TotalPublish += ss.Checkpoints.TotalPublish
		c.PagesFlushed += ss.Checkpoints.PagesFlushed
		c.PagesReclaimed += ss.Checkpoints.PagesReclaimed
		c.WALBytesTruncated += ss.Checkpoints.WALBytesTruncated
		c.WALSegmentsRemoved += ss.Checkpoints.WALSegmentsRemoved
		if ss.Checkpoints.LastCut > c.LastCut {
			c.LastCut = ss.Checkpoints.LastCut
		}
		if ss.Checkpoints.LastBuild > c.LastBuild {
			c.LastBuild = ss.Checkpoints.LastBuild
		}
		if ss.Checkpoints.LastPublish > c.LastPublish {
			c.LastPublish = ss.Checkpoints.LastPublish
		}
	}
	out.Epoch = db.epoch
	out.Splits = db.splits.Load()
	out.Merges = db.merges.Load()
	out.FollowerReads = db.followerReads.Load()
	out.PrimaryFallbacks = db.primaryFallbacks.Load()
	db.txnMu.Lock()
	out.TxnDecisions = db.txnDecisions
	if db.txnLog != nil {
		out.TxnLogBytes = db.txnLog.Size()
	}
	db.txnMu.Unlock()
	return out
}
