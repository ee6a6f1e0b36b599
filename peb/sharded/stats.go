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
	// Buffer is the buffer-pool activity of the shard and its followers
	// (Misses is the paper's page-I/O count); a cold shard shows up as a
	// skewed hit ratio.
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
	// WAL sums the log activity of every shard and of the policy engine
	// (a routed policy commit appends and syncs there).
	WAL peb.WALStats
	// Checkpoints sums the pipeline counters and Total* durations of every
	// shard and of the policy engine; the Last* durations are the maximum
	// across them (the stall any single commit could have seen, since
	// engines stall independently).
	Checkpoints peb.CheckpointStats
	// ViewSwaps sums the per-shard view republishes.
	ViewSwaps uint64
	// FollowerReads counts shard queries served by a replica follower;
	// PrimaryFallbacks counts queries that wanted a follower but fell back
	// to the primary (the follower could not reach the required horizon).
	// Both are zero without Options.ReplicasPerShard.
	FollowerReads    uint64
	PrimaryFallbacks uint64
	// Buffer sums the buffer-pool counters of every shard and of its
	// followers, so page reads a follower serves are counted too.
	Buffer store.BufferStats
	// TxnDecisions and TxnLogBytes always read 0: the router keeps no log
	// of its own — a cross-shard transaction's verdict lives in its
	// participants' logs. They remain for callers that still read them.
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
		for _, r := range sm.followers.replicas() {
			addBuffer(&ss.Buffer, r.IOStats())
		}
		out.Shards[i] = ss
		addBuffer(&out.Buffer, ss.Buffer)
		addLog(&out, ss.WAL, ss.Checkpoints)
		out.ViewSwaps += ss.ViewSwaps
	}
	addLog(&out, db.pe.WALStats(), db.pe.CheckpointStats())
	out.Epoch = db.epoch
	out.Splits = db.splits.Load()
	out.Merges = db.merges.Load()
	out.FollowerReads = db.followerReads.Load()
	out.PrimaryFallbacks = db.primaryFallbacks.Load()
	return out
}

// addLog adds one engine's log and checkpoint figures to the sums.
func addLog(out *Stats, w peb.WALStats, ck peb.CheckpointStats) {
	out.WAL.Appends += w.Appends
	out.WAL.Syncs += w.Syncs
	out.WAL.BytesAppended += w.BytesAppended
	out.WAL.SegmentsSealed += w.SegmentsSealed
	out.WAL.SegmentsRemoved += w.SegmentsRemoved

	c := &out.Checkpoints
	c.Checkpoints += ck.Checkpoints
	c.Coalesced += ck.Coalesced
	c.AutoTriggered += ck.AutoTriggered
	c.TotalCut += ck.TotalCut
	c.TotalBuild += ck.TotalBuild
	c.TotalPublish += ck.TotalPublish
	c.PagesFlushed += ck.PagesFlushed
	c.PagesReclaimed += ck.PagesReclaimed
	c.WALBytesTruncated += ck.WALBytesTruncated
	c.WALSegmentsRemoved += ck.WALSegmentsRemoved
	c.LastCut = max(c.LastCut, ck.LastCut)
	c.LastBuild = max(c.LastBuild, ck.LastBuild)
	c.LastPublish = max(c.LastPublish, ck.LastPublish)
}

// addBuffer adds b's counters to sum.
func addBuffer(sum *store.BufferStats, b store.BufferStats) {
	sum.Hits += b.Hits
	sum.Misses += b.Misses
	sum.Evictions += b.Evictions
	sum.WriteBack += b.WriteBack
}
