// Package sharded scales the PEB-tree engine horizontally: a sharded.DB
// partitions the service space into N shards by Hilbert-curve value range
// and runs one fully independent peb.DB per shard — N write locks, N
// write-ahead logs, N checkpoint pipelines where the single-tree engine
// has one of each. Commits to different shards proceed in parallel end to
// end; the router adds only a shared read lock and a map update.
//
// On top of the partition the router implements:
//
//   - scatter-gather RangeQuery: only the shards whose curve range
//     intersects the (motion-enlarged) query region are consulted, and
//     their results are merged;
//   - distributed NearestNeighbors: shards are ordered by their minimum
//     possible distance to the query point, the nearest is probed, and the
//     rest are queried concurrently unless they cannot beat the probe's
//     k-th candidate;
//   - cross-shard atomic Apply: a batch is split by owning shard and
//     committed through a prepare/commit protocol over the per-shard
//     write-ahead logs (peb.DB.PrepareApply), with the decision point in
//     the router's own log — all-or-nothing even across a crash;
//   - consistent Snapshot: one pinned peb.Snapshot per shard, taken under
//     a brief global barrier, so the set is a single consistent cut;
//   - per-shard durability: each shard owns a directory with its page
//     file, checkpoint side files, and log; recovery opens the shards in
//     parallel and reconciles the user→shard routing map.
//
// Placement follows each user's latest reported position: an update that
// moves a user across a shard boundary re-homes them (insert into the new
// shard, then delete from the old — a crash between the two is healed at
// the next open by keeping the newer state). Policies and relations are
// broadcast to every shard in its log, so any shard can evaluate the
// privacy predicate for its own objects, and held once in memory: every
// shard reads one shared store (peb.DB.SharePolicies), and re-applying a
// broadcast op to it is a no-op. This matches the paper's premise that
// policies change rarely while positions change constantly.
//
// Concurrency: all methods are safe for concurrent use. Routed operations
// (Upsert, Remove, queries) share a read lock and run concurrently;
// cross-shard operations (Apply with multiple owners, policy changes,
// EncodePolicies, Snapshot) take the write side and act as a brief global
// barrier. Concurrent updates to the same user from different goroutines
// have no defined order (issue each user's updates from one goroutine, as
// a location service naturally does).
package sharded

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/zcurve"
	"repro/peb"
)

// Re-exported domain types, so callers need only this package (they are
// identical to the peb types).
type (
	// UserID identifies a service user.
	UserID = peb.UserID
	// Object is a user's latest movement update.
	Object = peb.Object
	// Region is an axis-aligned rectangle.
	Region = peb.Region
	// TimeInterval is a daily time window.
	TimeInterval = peb.TimeInterval
	// Role names a relationship.
	Role = peb.Role
	// Neighbor is one nearest-neighbor result.
	Neighbor = peb.Neighbor
)

// ErrClosed is returned by every method called after Close.
var ErrClosed = peb.ErrClosed

// DefaultShards is the shard count used when Options.Shards is zero.
const DefaultShards = 4

// Options configures a sharded DB. The zero value runs DefaultShards
// memory-backed shards over the paper's default space.
type Options struct {
	// Shards is the number of space partitions to CREATE with (default
	// DefaultShards). The live topology is dynamic — Split and Merge (and
	// the AutoReshard maintainer) change it online and persist it in the
	// manifest — so on reopen the manifest's topology is adopted and this
	// field is ignored; only a genuinely corrupt or incompatible manifest
	// is an error.
	Shards int
	// Dir, when non-empty, is the root directory: each shard keeps its
	// page file, checkpoint side files, and write-ahead log under
	// <Dir>/shard-NNN/, next to the router's manifest and transaction
	// decision log. Empty means memory-backed shards (no durability).
	Dir string
	// DB is the per-shard engine configuration — space, durability level,
	// buffer size, auto-checkpointing, filesystem — applied identically to
	// every shard. Path must be empty (it is derived per shard) and
	// TxnResolve must be nil (the router installs its own resolver).
	DB peb.Options
	// ReplicasPerShard, when positive, attaches that many peb.Replica
	// followers to every shard and serves RangeQuery and NearestNeighbors
	// from them round-robin (see replica.go for the read-your-writes
	// freshness protocol). Requires durability: followers tail the
	// per-shard write-ahead logs.
	ReplicasPerShard int
	// StalenessBound relaxes follower freshness: a follower may serve a
	// read while lagging at most this many commits behind the last write
	// the router sent to that shard. Zero (the default) demands full
	// read-your-writes freshness; a follower that cannot reach the bound
	// even after a synchronous catch-up is skipped in favor of the
	// primary. Meaningful only with ReplicasPerShard > 0.
	StalenessBound uint64
	// LoadRateHalfLife sets the horizon of the per-shard EWMA commit and
	// query rates in ShardStats (and of the AutoReshard trigger): a burst's
	// contribution to the rate halves every such interval. Default 10s.
	LoadRateHalfLife time.Duration
	// AutoReshard, when its Interval is positive, runs a background
	// maintainer that splits hot shards and merges cold adjacent ones by
	// the observed EWMA commit rates (see AutoReshardPolicy). Incompatible
	// with ReplicasPerShard (splits are not yet coordinated with follower
	// pools).
	AutoReshard AutoReshardPolicy
}

// DB is a space-partitioned moving-object database over independent
// peb.DB shards.
type DB struct {
	opts   Options
	fs     store.VFS
	grid   zcurve.Grid
	shards []*peb.DB

	// Topology (topology.go). metas is parallel to shards (one entry per
	// live engine, in slot order); routes is the sorted write-routing
	// table and covers the per-slot query-pruning intervals, both derived
	// from metas by rebuildRoutes; epoch counts topology versions (bumped
	// on every route change); nextID allocates shard ids (never reused);
	// pending is the in-flight split or merge, if any. All guarded by smu:
	// readers hold the read side, topology changes the write side.
	metas  []shardMeta
	routes []routeEntry
	covers []zcurve.Interval
	epoch  uint64
	nextID int
	// pending, splits, merges are additionally guarded for Stats readers
	// holding only the read barrier — splits/merges are plain counters
	// written under the write barrier, read via atomic loads.
	pending *pendingOp
	splits  atomic.Uint64
	merges  atomic.Uint64

	// now is the load meters' clock, injectable in tests.
	now func() time.Time

	// Reshard maintainer lifecycle (reshard.go); nil without AutoReshard.
	reshardStop chan struct{}
	reshardDone chan struct{}
	reshardOnce sync.Once

	// cqMu guards cqs, the attached CQ routers (cq.go). Topology changes
	// notify them under the write barrier so subscription fan-out follows
	// the shard set without ever missing a commit.
	cqMu sync.Mutex
	cqs  map[*CQ]struct{}

	// smu is the router barrier: routed single-shard operations and
	// queries hold the read side (and so run concurrently, each
	// serializing only inside its own shard), while cross-shard atomic
	// operations — multi-shard Apply, policy broadcasts, EncodePolicies,
	// Snapshot, Close — hold the write side.
	smu    sync.RWMutex
	closed bool

	// ownMu guards owner, the routing map from user to the shard holding
	// their index entry. It is a leaf mutex: never held while calling into
	// a shard.
	ownMu sync.Mutex
	owner map[UserID]int
	// userMu serializes the one-shot writes of one user (striped by id). A
	// re-homing Upsert is an insert into the new shard plus a delete from
	// the old one; without it a concurrent Upsert of the same user back
	// into the old shard could land between the two and be deleted.
	userMu [64]sync.Mutex

	// Cross-shard transaction state: txnLog is the router's decision log
	// (non-nil only with durability) — an appended id IS the commit point
	// of that transaction; nextTxn allocates ids above every committed or
	// observed id so a recycled id can never match a stale prepared record.
	txnMu   sync.Mutex
	txnLog  *store.SegmentedWAL
	nextTxn uint64
	// txnDecisions counts verdicts appended since the last compaction —
	// zero means the log already holds nothing but its watermark.
	txnDecisions uint64

	// Follower-read state (replica.go). replicas holds each shard's
	// follower pool (nil without ReplicasPerShard); rr is the per-shard
	// round-robin cursor; written is the per-shard WAL sequence of the
	// last commit this router routed there — the horizon a follower must
	// reach to serve reads.
	replicas [][]*peb.Replica
	rr       []atomic.Uint64
	written  []atomic.Uint64
	// stalled tracks, per shard, whether the last follower read fell back
	// to the primary — so stall and recovery are logged as transitions,
	// one event each, not once per read.
	stalled []atomic.Bool

	followerReads    atomic.Uint64
	primaryFallbacks atomic.Uint64

	// Router observability (observe.go): topology-scoped metrics and the
	// maintainer event log. Per-shard series live on each engine's own
	// registry (const label shard="NNN").
	obsReg *obs.Registry
	events *obs.EventLog
}

func (o Options) validate() error {
	if o.Shards < 0 {
		return fmt.Errorf("%w: Shards %d < 0", peb.ErrBadOptions, o.Shards)
	}
	if o.DB.Path != "" {
		return fmt.Errorf("%w: per-shard paths are derived from Dir; Options.DB.Path must be empty", peb.ErrBadOptions)
	}
	if o.DB.TxnResolve != nil {
		return fmt.Errorf("%w: Options.DB.TxnResolve is owned by the router", peb.ErrBadOptions)
	}
	if o.DB.Durability != peb.DurabilityNone && o.Dir == "" {
		return fmt.Errorf("%w: Durability requires Dir", peb.ErrBadOptions)
	}
	if o.ReplicasPerShard < 0 {
		return fmt.Errorf("%w: ReplicasPerShard %d < 0", peb.ErrBadOptions, o.ReplicasPerShard)
	}
	if o.ReplicasPerShard > 0 && o.DB.Durability == peb.DurabilityNone {
		return fmt.Errorf("%w: ReplicasPerShard requires Durability (followers tail the per-shard logs)", peb.ErrBadOptions)
	}
	if o.LoadRateHalfLife < 0 {
		return fmt.Errorf("%w: LoadRateHalfLife %v < 0", peb.ErrBadOptions, o.LoadRateHalfLife)
	}
	if err := o.AutoReshard.validate(); err != nil {
		return err
	}
	if o.AutoReshard.Interval > 0 && o.ReplicasPerShard > 0 {
		return fmt.Errorf("%w: AutoReshard is not coordinated with ReplicasPerShard follower pools yet", peb.ErrBadOptions)
	}
	return nil
}

// shardDir returns shard i's directory under the root.
func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// Open creates a sharded DB, or — when Dir holds one — recovers it: the
// manifest's topology is adopted (Options.Shards counts only at
// creation), every listed shard recovers independently (checkpoint plus
// log replay, with cross-shard transactions resolved against the router's
// decision log), the routing map is rebuilt from the shards' contents —
// healing any duplicate a crash mid-re-homing left behind — and an
// in-flight split or merge the manifest records is rolled forward to
// completion before the first operation is served.
func Open(opts Options) (*DB, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Shards == 0 {
		opts.Shards = DefaultShards
	}
	fsys := opts.DB.FS
	if fsys == nil {
		fsys = store.OSFS{}
	}

	// Real-filesystem deployments need the root to exist before the
	// manifest is written; virtual filesystems (CrashFS in tests) treat
	// paths as opaque names.
	_, isOS := fsys.(store.OSFS)
	if opts.Dir != "" && isOS {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("sharded: create root dir: %w", err)
		}
	}
	ts, err := loadTopology(fsys, opts)
	if err != nil {
		return nil, err
	}
	n := len(ts.metas)
	if opts.Dir != "" && isOS {
		for _, sm := range ts.metas {
			if err := os.MkdirAll(shardDir(opts.Dir, sm.id), 0o755); err != nil {
				return nil, fmt.Errorf("sharded: create shard dir: %w", err)
			}
		}
	}

	// The decision log must be read before the shards open: each shard's
	// recovery resolves markerless prepared records against it.
	var (
		txnLog    *store.SegmentedWAL
		committed map[uint64]bool
		maxTxn    uint64
	)
	if opts.DB.Durability != peb.DurabilityNone {
		var err error
		txnLog, committed, maxTxn, err = openDecisionLog(fsys, filepath.Join(opts.Dir, "txn.log"))
		if err != nil {
			return nil, err
		}
	}

	// Open the shards in parallel: recovery cost is per shard, so a
	// multi-core restart recovers N shards in the time of the largest.
	shards := make([]*peb.DB, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		po := opts.DB
		po.FS = fsys
		if opts.Dir != "" {
			po.Path = filepath.Join(shardDir(opts.Dir, ts.metas[i].id), "peb.idx")
		}
		po.TxnResolve = func(id uint64) bool { return committed[id] }
		po.MetricsLabel = shardLabel(ts.metas[i].id)
		wg.Add(1)
		go func(i int, po peb.Options) {
			defer wg.Done()
			shards[i], errs[i] = peb.Open(po)
		}(i, po)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, s := range shards {
				if s != nil {
					s.Close()
				}
			}
			if txnLog != nil {
				txnLog.Close()
			}
			return nil, fmt.Errorf("sharded: open shard %d: %w", i, err)
		}
	}

	// Recovery is over: the resolver closures each shard retains are never
	// consulted again, so release the committed-id set (it is rebuilt from
	// the log on the next open) rather than pin one entry per transaction
	// ever committed for the DB's lifetime.
	committed = nil

	grid := zcurve.Grid{Side: shards[0].Bounds().MaxX, Order: shards[0].GridOrder()}
	db := &DB{
		opts:    opts,
		fs:      fsys,
		grid:    grid,
		shards:  shards,
		metas:   ts.metas,
		epoch:   ts.epoch,
		nextID:  ts.nextID,
		pending: ts.pending,
		now:     time.Now,
		cqs:     make(map[*CQ]struct{}),
		owner:   make(map[UserID]int),
		txnLog:  txnLog,
	}
	db.initObs()
	db.rebuildRoutes()
	if err := db.reconcile(); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.sharePolicies(); err != nil {
		db.Close()
		return nil, err
	}
	for _, s := range shards {
		if id := s.MaxTxnID(); id > maxTxn {
			maxTxn = id
		}
	}
	db.nextTxn = maxTxn + 1

	// A pending split or merge in the manifest already happened — its
	// route flip was durably committed — so recovery completes the
	// migration before the database serves anything.
	if db.pending != nil {
		if err := db.completePendingLocked(); err != nil {
			db.Close()
			return nil, fmt.Errorf("sharded: complete in-flight %s: %w", db.pending.Kind, err)
		}
	}

	if opts.ReplicasPerShard > 0 {
		if err := db.attachReplicas(opts.ReplicasPerShard); err != nil {
			db.Close()
			return nil, err
		}
	}
	db.startMaintainer()
	return db, nil
}

// reconcile rebuilds the user→shard map from the shards' contents. A crash
// between the two halves of a re-homing update (insert into the new shard,
// remove from the old) can leave one user in two shards; the newer state
// (larger update time; ties broken toward the shard owning the stored
// position, then the lower index) wins and the stale entry is removed.
func (db *DB) reconcile() error {
	for i, s := range db.shards {
		objs, err := s.Objects()
		if err != nil {
			return fmt.Errorf("sharded: enumerate shard %d: %w", i, err)
		}
		for _, o := range objs {
			prev, dup := db.owner[o.UID]
			if !dup {
				db.owner[o.UID] = i
				continue
			}
			po, ok, err := db.shards[prev].Lookup(o.UID)
			if err != nil {
				return err
			}
			keepNew := !ok || o.T > po.T ||
				(o.T == po.T && db.shardOf(o.X, o.Y) == i)
			if keepNew {
				if ok {
					if err := db.shards[prev].Remove(o.UID); err != nil {
						return fmt.Errorf("sharded: heal duplicate user %d: %w", o.UID, err)
					}
				}
				db.owner[o.UID] = i
			} else {
				if err := db.shards[i].Remove(o.UID); err != nil {
					return fmt.Errorf("sharded: heal duplicate user %d: %w", o.UID, err)
				}
			}
		}
	}
	return nil
}

// PolicyDivergenceError reports a shard whose recovered policy store is not
// Equal to the first shard's. Policies are broadcast, so every shard must
// hold the same ones; Open refuses a deployment where they differ rather
// than let a query's answer depend on which shard holds an object. It wraps
// peb.ErrPoliciesDiffer.
type PolicyDivergenceError struct {
	// Shard is the id of the diverging shard (its directory shard-NNN);
	// Base is the id of the shard it was compared with.
	Shard, Base int
}

// Error implements error.
func (e *PolicyDivergenceError) Error() string {
	return fmt.Sprintf("sharded: shard %d holds other policies than shard %d", e.Shard, e.Base)
}

// Unwrap makes errors.Is(err, peb.ErrPoliciesDiffer) succeed.
func (e *PolicyDivergenceError) Unwrap() error { return peb.ErrPoliciesDiffer }

// sharePolicies points every shard at the first shard's policy store: they
// hold the same policies, so the router keeps one copy in memory instead of
// one per shard. A shard whose store differs fails it with a
// *PolicyDivergenceError.
func (db *DB) sharePolicies() error {
	for i := 1; i < len(db.shards); i++ {
		err := db.shards[i].SharePolicies(db.shards[0])
		if errors.Is(err, peb.ErrPoliciesDiffer) {
			return &PolicyDivergenceError{Shard: db.metas[i].id, Base: db.metas[0].id}
		}
		if err != nil {
			return fmt.Errorf("sharded: share shard %d's policies: %w", db.metas[i].id, err)
		}
	}
	return nil
}

// shardOf maps a position to the slot of the shard whose route owns its
// Hilbert value — where a write of that position goes right now.
func (db *DB) shardOf(x, y float64) int {
	v := db.grid.HilbertValue(x, y)
	i := sort.Search(len(db.routes), func(i int) bool { return db.routes[i].iv.Hi >= v })
	if i >= len(db.routes) {
		i = len(db.routes) - 1
	}
	return db.routes[i].slot
}

// Shards returns the current number of shards (splits and merges change
// it online).
func (db *DB) Shards() int {
	db.smu.RLock()
	defer db.smu.RUnlock()
	return len(db.shards)
}

// Epoch returns the topology version: it advances on every routing
// change (twice per completed split or merge — once for the route flip,
// once when the migration finishes and covers contract).
func (db *DB) Epoch() uint64 {
	db.smu.RLock()
	defer db.smu.RUnlock()
	return db.epoch
}

// Close closes every shard and the router's decision log. Close drains
// cross-shard operations (it takes the barrier) and is idempotent.
func (db *DB) Close() error {
	// The maintainer takes the barrier itself; stop it before acquiring.
	db.stopMaintainer()
	db.smu.Lock()
	defer db.smu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	// Followers first: they tail the shard logs that are about to close.
	firstErr := db.closeReplicas()
	if db.txnLog != nil {
		if err := db.txnLog.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		db.txnLog = nil
	}
	for i, s := range db.shards {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sharded: close shard %d: %w", i, err)
		}
	}
	return firstErr
}

// Upsert stores or replaces a user's movement update in the shard owning
// the new position. A user whose update crosses a shard boundary is
// re-homed: inserted into the new shard first, then removed from the old,
// so concurrent queries see the user throughout (briefly possibly twice;
// query merging keeps the newer state).
func (db *DB) Upsert(o Object) error {
	db.smu.RLock()
	defer db.smu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	mu := &db.userMu[int(o.UID)%len(db.userMu)]
	mu.Lock()
	defer mu.Unlock()
	target := db.shardOf(o.X, o.Y)
	if err := db.shards[target].Upsert(o); err != nil {
		return err
	}
	db.noteWrite(target)
	db.ownMu.Lock()
	prev, had := db.owner[o.UID]
	db.owner[o.UID] = target
	db.ownMu.Unlock()
	if had && prev != target {
		if err := db.shards[prev].Remove(o.UID); err != nil {
			return fmt.Errorf("sharded: re-home user %d out of shard %d: %w", o.UID, prev, err)
		}
		db.noteWrite(prev)
	}
	return nil
}

// Remove deletes a user's index entry (their policies remain, in every
// shard). Removing a user with no index entry is an error, matching the
// single-tree engine.
func (db *DB) Remove(uid UserID) error {
	db.smu.RLock()
	defer db.smu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	mu := &db.userMu[int(uid)%len(db.userMu)]
	mu.Lock()
	defer mu.Unlock()
	db.ownMu.Lock()
	idx, ok := db.owner[uid]
	db.ownMu.Unlock()
	if !ok {
		return fmt.Errorf("sharded: remove: user %d is not indexed", uid)
	}
	if err := db.shards[idx].Remove(uid); err != nil {
		return err
	}
	db.noteWrite(idx)
	db.ownMu.Lock()
	delete(db.owner, uid)
	db.ownMu.Unlock()
	return nil
}

// DefineRelation records a role relation. Policy state is broadcast to
// every shard (any shard must be able to evaluate the privacy predicate
// for the objects it holds) through the atomic cross-shard batch path, so
// a failure on any shard rolls the others back — the shards never
// disagree on the predicate.
func (db *DB) DefineRelation(owner, peer UserID, role Role) error {
	b := db.NewBatch()
	b.DefineRelation(owner, peer, role)
	return db.Apply(b)
}

// Grant adds a location-privacy policy, broadcast to every shard
// atomically (see DefineRelation).
func (db *DB) Grant(owner UserID, role Role, locr Region, tint TimeInterval) error {
	if !locr.Valid() {
		return &peb.InvalidRegionError{Region: locr}
	}
	b := db.NewBatch()
	b.Grant(owner, role, locr, tint)
	return db.Apply(b)
}

// EncodePolicies runs the offline policy-encoding phase once for the
// whole deployment: the sequence-value assignment is computed a single
// time — policies are broadcast, so every shard would derive the same one
// — over the union of every shard's users, then broadcast, and each shard
// rebuilds its own index under the shared result in parallel. Shared
// values also keep keys consistent across re-homing: a user moves shards
// with the same sequence value. Like the single-tree form, queries work
// without it but cluster better after it.
func (db *DB) EncodePolicies() error {
	db.smu.Lock()
	defer db.smu.Unlock()
	if db.closed {
		return ErrClosed
	}
	// Shard 0 knows every policy-bearing user (broadcast), but users who
	// only ever reported positions live in their owning shard alone; the
	// routing map is exactly that set, so folding it in makes the
	// assignment cover every indexed user on every shard.
	db.ownMu.Lock()
	extra := make([]UserID, 0, len(db.owner))
	for u := range db.owner {
		extra = append(extra, u)
	}
	db.ownMu.Unlock()
	enc, err := db.shards[0].ComputeEncoding(extra)
	if err != nil {
		return fmt.Errorf("sharded: compute encoding: %w", err)
	}
	errs := make([]error, len(db.shards))
	var wg sync.WaitGroup
	for i, s := range db.shards {
		wg.Add(1)
		go func(i int, s *peb.DB) {
			defer wg.Done()
			errs[i] = s.InstallEncoding(enc)
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("sharded: install encoding on shard %d: %w", i, err)
		}
	}
	for i := range db.shards {
		db.noteWrite(i)
	}
	return nil
}

// Checkpoint runs every shard's checkpoint pipeline concurrently. Each
// pipeline stalls only its own shard's commits for its cut and publish
// moments; the other shards keep serving throughout — the per-shard
// version of the engine's non-blocking checkpoint. A fully successful
// pass also compacts the router's transaction decision log down to a
// single watermark record (every verdict it held has just become
// unreachable).
func (db *DB) Checkpoint() error {
	db.smu.RLock()
	defer db.smu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	errs := make([]error, len(db.shards))
	var wg sync.WaitGroup
	for i, s := range db.shards {
		wg.Add(1)
		go func(i int, s *peb.DB) {
			defer wg.Done()
			errs[i] = s.Checkpoint()
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("sharded: checkpoint shard %d: %w", i, err)
		}
	}
	// Every shard's log truncation has passed every decided transaction,
	// and the barrier we hold keeps new ones out: the decision log's
	// records are all unreachable now, so fold it down to its watermark.
	return db.compactDecisionLog()
}

// Lookup returns a user's stored movement state.
func (db *DB) Lookup(uid UserID) (Object, bool, error) {
	db.smu.RLock()
	defer db.smu.RUnlock()
	if db.closed {
		return Object{}, false, ErrClosed
	}
	db.ownMu.Lock()
	idx, ok := db.owner[uid]
	db.ownMu.Unlock()
	if !ok {
		return Object{}, false, nil
	}
	return db.shards[idx].Lookup(uid)
}

// Allows evaluates the raw policy predicate (policies are identical on
// every shard).
func (db *DB) Allows(owner, viewer UserID, x, y, t float64) bool {
	db.smu.RLock()
	defer db.smu.RUnlock()
	if db.closed {
		return false
	}
	return db.shards[0].Allows(owner, viewer, x, y, t)
}

// Size returns the number of indexed users.
func (db *DB) Size() int {
	db.smu.RLock()
	defer db.smu.RUnlock()
	if db.closed {
		return 0
	}
	db.ownMu.Lock()
	defer db.ownMu.Unlock()
	return len(db.owner)
}

// RangeQuery answers the privacy-aware range query by scatter-gather:
// shards whose Hilbert range cannot intersect the query region — enlarged
// by each shard's own motion slack, mirroring the enlargement the shard
// would apply internally — are pruned, the rest are queried concurrently,
// and the results are merged (sorted by user id; the single-tree engine
// returns scan order instead).
func (db *DB) RangeQuery(issuer UserID, r Region, t float64) ([]Object, error) {
	db.smu.RLock()
	defer db.smu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	if !r.Valid() {
		return nil, &peb.InvalidRegionError{Region: r}
	}
	return gatherRange(db.routeRegion(r, t, db.shardSlack), issuer, r, t,
		db.reader)
}

// NearestNeighbors answers the privacy-aware k-nearest-neighbor query by
// probe-then-wave: shards are ordered by the minimum distance any of their
// objects could have to the query point (their region's distance minus
// their motion slack), the nearest one is probed alone, and the others are
// queried concurrently except those whose bound exceeds the probe's k-th
// candidate — they cannot contribute. Each shard searches only for the
// issuer's grantors it holds (core.View's residency rule), so a shard's
// share of the query is bounded by what it stores.
func (db *DB) NearestNeighbors(issuer UserID, x, y float64, k int, t float64) ([]Neighbor, error) {
	db.smu.RLock()
	defer db.smu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	return gatherKNN(db.knnOrder(x, y, t, db.shardSlack), issuer, x, y, k, t,
		db.reader)
}

// shardSlack is DB.MotionSlack for the live shards (the routing functions
// also run against pinned snapshots).
func (db *DB) shardSlack(i int, t float64) float64 {
	return db.shards[i].MotionSlack(t)
}

// routeRegion returns the slots of the shards whose COVER interval can
// hold an object relevant to a range query over r at time t — pruning by
// cover, not route, so a query during a migration still consults both
// halves of a splitting range. Each shard's region is effectively
// enlarged by its own motion slack: an object is stored under the
// position of its last update, so it can qualify for r while being
// stored up to slack away.
func (db *DB) routeRegion(r Region, t float64, slack func(int, float64) float64) []int {
	return routeRegionOver(db.grid, db.covers, r, t, slack)
}

func routeRegionOver(grid zcurve.Grid, covers []zcurve.Interval, r Region, t float64, slack func(int, float64) float64) []int {
	var out []int
	for i := range covers {
		ew := enlarge(r, slack(i, t))
		rect, ok := grid.RectOf(ew.MinX, ew.MinY, ew.MaxX, ew.MaxY)
		if !ok {
			continue // the enlarged window misses the space entirely
		}
		if zcurve.HilbertRangeIntersectsRect(rect, covers[i], grid.Order) {
			out = append(out, i)
		}
	}
	return out
}

// knnOrder returns every shard with its candidate-distance lower bound
// (against its cover interval), sorted ascending — the order gatherKNN
// probes and prunes in.
func (db *DB) knnOrder(x, y, t float64, slack func(int, float64) float64) []knnShard {
	return knnOrderOver(db.grid, db.covers, x, y, t, slack)
}

func knnOrderOver(grid zcurve.Grid, covers []zcurve.Interval, x, y, t float64, slack func(int, float64) float64) []knnShard {
	out := make([]knnShard, 0, len(covers))
	for i := range covers {
		lb := grid.HilbertMinDist(x, y, covers[i]) - slack(i, t)
		if lb < 0 {
			lb = 0
		}
		out = append(out, knnShard{idx: i, lb: lb})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].lb != out[b].lb {
			return out[a].lb < out[b].lb
		}
		return out[a].idx < out[b].idx
	})
	return out
}

// enlarge grows a region by d on every side.
func enlarge(r Region, d float64) Region {
	return Region{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

// querier is the query surface shared by live shards and their pinned
// snapshots, letting DB and Snapshot reuse one gather implementation.
type querier interface {
	RangeQuery(issuer UserID, r Region, t float64) ([]Object, error)
	NearestNeighbors(issuer UserID, x, y float64, k int, t float64) ([]Neighbor, error)
}

// scatter runs fn(0) … fn(n-1) and waits for all of them: concurrently when
// there are several, on the caller's goroutine when there is one.
func scatter(n int, fn func(j int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			fn(j)
		}(j)
	}
	wg.Wait()
}

// gatherRange fans a range query out to the routed shards concurrently and
// merges the results: duplicates (a user caught mid-re-homing) keep the
// newer state, and the merged set is sorted by user id for determinism.
func gatherRange(idxs []int, issuer UserID, r Region, t float64, shard func(int) querier) ([]Object, error) {
	results := make([][]Object, len(idxs))
	errs := make([]error, len(idxs))
	scatter(len(idxs), func(j int) {
		results[j], errs[j] = shard(idxs[j]).RangeQuery(issuer, r, t)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := make(map[UserID]Object)
	for _, res := range results {
		for _, o := range res {
			if prev, ok := merged[o.UID]; !ok || o.T > prev.T {
				merged[o.UID] = o
			}
		}
	}
	if len(merged) == 0 {
		return nil, nil // match the single-tree engine's empty result
	}
	out := make([]Object, 0, len(merged))
	for _, o := range merged {
		out = append(out, o)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].UID < out[b].UID })
	return out, nil
}

// knnShard is one shard in gatherKNN's order: no object of shard idx can
// be closer to the query point than lb.
type knnShard struct {
	idx int
	lb  float64
}

// gatherKNN merges per-shard k-nearest results in two phases. The nearest
// shard is probed alone; then every remaining shard whose lower bound does
// not exceed the k-th candidate distance so far is queried in one
// concurrent wave — the rest, and every shard after them since the order is
// ascending, cannot contribute. While fewer than k candidates are known the
// k-th distance is unbounded and the wave covers every shard. Shards with a
// bound equal to the k-th distance are still visited (an equal-distance
// candidate with a smaller id would win the tie-break).
func gatherKNN(order []knnShard, issuer UserID, x, y float64, k int, t float64, shard func(int) querier) ([]Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	var best []Neighbor
	ask := func(shards []knnShard) error {
		results := make([][]Neighbor, len(shards))
		errs := make([]error, len(shards))
		scatter(len(shards), func(j int) {
			results[j], errs[j] = shard(shards[j].idx).NearestNeighbors(issuer, x, y, k, t)
		})
		for j, err := range errs {
			if err != nil {
				return err
			}
			for _, nb := range results[j] {
				best = mergeNeighbor(best, nb)
			}
		}
		return nil
	}
	if err := ask(order[:1]); err != nil {
		return nil, err
	}
	kth := math.Inf(1)
	if len(best) >= k {
		kth = best[k-1].Dist
	}
	rest := order[1:]
	wave := sort.Search(len(rest), func(j int) bool { return rest[j].lb > kth })
	if err := ask(rest[:wave]); err != nil {
		return nil, err
	}
	if len(best) > k {
		best = best[:k]
	}
	return best, nil // nil when empty, matching the single-tree engine
}

// mergeNeighbor adds nb to best, which is kept sorted by (distance, user id)
// with one entry per user: of two states of one user (caught mid-re-homing)
// the newer survives. Every candidate is kept, not only the nearest k, so a
// duplicate that resolves to a farther state cannot push out a candidate
// the final truncation still needs; gatherKNN's best holds at most k per
// shard, a standing query's (Subscription.mergeLocked) its whole result.
func mergeNeighbor(best []Neighbor, nb Neighbor) []Neighbor {
	for i := range best {
		if best[i].Object.UID == nb.Object.UID {
			if nb.Object.T <= best[i].Object.T {
				return best
			}
			best = append(best[:i], best[i+1:]...)
			break
		}
	}
	at := sort.Search(len(best), func(i int) bool {
		if best[i].Dist != nb.Dist {
			return best[i].Dist > nb.Dist
		}
		return best[i].Object.UID > nb.Object.UID
	})
	best = append(best, Neighbor{})
	copy(best[at+1:], best[at:])
	best[at] = nb
	return best
}
