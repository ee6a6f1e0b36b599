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
//   - distributed NearestNeighbors: every shard, concurrently, runs the
//     PkNN over the issuer's grantors it holds, and the answers are merged
//     and cut to k;
//   - cross-shard atomic Apply: a batch is split by owning shard, every
//     participant validates its part, and the lowest participating shard —
//     the coordinator — logs all of them as one record in its own
//     write-ahead log (peb.Prepared.Commit). The participants apply their
//     parts while the record is written, and hold them until its one
//     fsync commits the transaction; recovery redoes any part a
//     participant lacks from the coordinator's record. The router keeps
//     no log of its own, and the batch is all-or-nothing even across a
//     crash;
//   - consistent Snapshot: one pinned peb.Snapshot per shard, taken under
//     a brief global barrier, so the set is a single consistent cut;
//   - per-shard durability: each shard owns a directory with its page
//     file, checkpoint side files, and log; recovery opens the shards in
//     parallel and reconciles the user→shard routing map.
//
// Placement follows each user's latest reported position: an update that
// moves a user across a shard boundary re-homes them, inserting into the
// new shard and evicting from the old in one cross-shard commit, so every
// user is in exactly one shard. Policies and relations have one home: the
// policy engine, a peb.DB beside the shards that holds no objects and sits
// outside the routing table. It commits, logs and checkpoints every policy
// operation once, and every shard reads its store (peb.DB.BorrowPolicies),
// so any shard can evaluate the privacy predicate for its own objects. This matches the paper's premise
// that policies change rarely while positions change constantly: they are
// written once, not once per shard.
//
// Concurrency: all methods are safe for concurrent use. Routed operations
// (Upsert, Remove, queries) share the read side of the router barrier and
// run concurrently; Apply (policy changes among them), EncodePolicies,
// Snapshot, Split, Merge and Close take the write side and act as a brief
// global barrier. A write is visible once applied and acknowledged once
// durable, as in one engine with group commit: a routed Upsert or Remove
// holds the read side only while it applies, then waits for its fsync
// holding only its user's lock, so no barrier holder waits on it. Apply
// makes its batch visible under the write side; a single-participant
// batch — every Grant and DefineRelation — waits for its fsync after
// releasing it, while a cross-shard batch — a re-homing Upsert among
// them — keeps its coordinator's fsync, the commit point, inside. A batch waits for its own users' routed writes
// still in their fsync. Concurrent updates to the same user from different
// goroutines have no defined order (issue each user's updates from one
// goroutine, as a location service naturally does).
package sharded

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// ErrFailStop is returned by the cross-shard commit that stopped the
// router: after its coordinator record was appended, a participant could
// not apply or log its part, or the record could not be made durable. The
// engines are closed and every later call gets ErrClosed; reopening
// decides the transaction by the coordinator's log.
var ErrFailStop = errors.New("sharded: router fail-stopped on a cross-shard commit; reopen to resolve")

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
	// <Dir>/shard-NNN/, the policy engine keeps its own under
	// <Dir>/policies/, and the router's manifest, sharded.json, is the
	// only file in the root. Empty means memory-backed engines (no
	// durability).
	Dir string
	// DB is the per-engine configuration — space, durability level,
	// buffer size, auto-checkpointing, filesystem — applied identically to
	// every shard and to the policy engine. Path must be empty (it is
	// derived per engine).
	DB peb.Options
	// LoadRateHalfLife sets the horizon of the per-shard EWMA commit and
	// query rates in ShardStats (and of the AutoReshard trigger): a burst's
	// contribution to the rate halves every such interval. Default 10s.
	LoadRateHalfLife time.Duration
	// AutoReshard, when its Interval is positive, runs a background
	// maintainer that splits hot shards and merges cold adjacent ones by
	// the observed EWMA commit rates (see AutoReshardPolicy).
	AutoReshard AutoReshardPolicy
}

// userStripes is the number of user locks: one bit of a userSet each.
const userStripes = 64

// DB is a space-partitioned moving-object database over independent
// peb.DB shards.
type DB struct {
	opts   Options
	fs     store.VFS
	grid   zcurve.Grid
	shards []*peb.DB
	// pe is the policy engine: the one owner of the policy store every
	// shard borrows (see syncPolicies).
	pe *peb.DB

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
	// serializing only inside its own shard), while atomic operations —
	// Apply (a re-homing Upsert among them), policy commits,
	// EncodePolicies, Snapshot, topology changes, Close — hold the write
	// side. A routed write holds the read side only while it applies, a
	// single-participant Apply the write side only while it applies: their
	// fsync waits hold neither.
	smu    sync.RWMutex
	closed bool

	// ownMu guards owner, the routing map from user to the shard holding
	// their index entry. It is a leaf mutex: never held while calling into
	// a shard.
	ownMu sync.Mutex
	owner map[UserID]int
	// userMu serializes the writes of one user (striped by id, taken after
	// smu). A routed write holds it until it is durable, and a transaction
	// takes its users' locks before it prepares, so no part is validated
	// against a commit a power cut could still lose.
	userMu [userStripes]sync.Mutex

	// Cross-shard transaction state (batch.go): nextTxn allocates ids above
	// every engine's watermark; unsettled lists, coordinator first, the
	// part handles of every committed transaction whose other parts are
	// not all known durable yet — the coordinator's handle holds its log
	// until settle releases it.
	txnMu     sync.Mutex
	nextTxn   uint64
	unsettled [][]*peb.Prepared

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
	if o.DB.Durability != peb.DurabilityNone && o.Dir == "" {
		return fmt.Errorf("%w: Durability requires Dir", peb.ErrBadOptions)
	}
	if o.LoadRateHalfLife < 0 {
		return fmt.Errorf("%w: LoadRateHalfLife %v < 0", peb.ErrBadOptions, o.LoadRateHalfLife)
	}
	if err := o.AutoReshard.validate(); err != nil {
		return err
	}
	return nil
}

// shardDir returns shard i's directory under the root.
func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// policiesDir returns the policy engine's directory under the root.
func policiesDir(dir string) string { return filepath.Join(dir, "policies") }

// Open creates a sharded DB, or — when Dir holds one — recovers it: the
// manifest's topology is adopted (Options.Shards counts only at
// creation), every listed shard and the policy engine recover
// independently (checkpoint plus log replay), every part of a cross-shard
// transaction a participant lacks is redone from its coordinator's record
// (finishRecovered), the shards borrow the policy engine's store, the
// routing map is rebuilt from the shards' contents — a user found in two
// shards is refused as corruption — and an in-flight split or merge the
// manifest records is rolled forward to completion before the first
// operation is served.
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
	dirs := make([]string, n+1) // the shards' in slot order, then the policy engine's
	if opts.Dir != "" {
		for i, sm := range ts.metas {
			dirs[i] = shardDir(opts.Dir, sm.id)
		}
		dirs[n] = policiesDir(opts.Dir)
	}
	if opts.Dir != "" && isOS {
		for _, dir := range dirs {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("sharded: create engine dir: %w", err)
			}
		}
	}

	// Open the engines in parallel: recovery cost is per engine, so a
	// multi-core restart recovers N shards in the time of the largest.
	engines := make([]*peb.DB, n+1)
	errs := make([]error, n+1)
	scatter(n+1, func(i int) {
		po := opts.DB
		po.FS = fsys
		if opts.Dir != "" {
			po.Path = filepath.Join(dirs[i], "peb.idx")
		}
		po.MetricsLabel = policiesLabel
		if i < n {
			po.MetricsLabel = shardLabel(ts.metas[i].id)
		}
		engines[i], errs[i] = peb.Open(po)
	})
	for i, err := range errs {
		if err != nil {
			for _, e := range engines {
				if e != nil {
					e.Close()
				}
			}
			if i == n {
				return nil, fmt.Errorf("sharded: open policy engine: %w", err)
			}
			return nil, fmt.Errorf("sharded: open shard %d: %w", i, err)
		}
	}
	shards := engines[:n:n]

	grid := zcurve.Grid{Side: shards[0].Bounds().MaxX, Order: shards[0].GridOrder()}
	db := &DB{
		opts:    opts,
		fs:      fsys,
		grid:    grid,
		shards:  shards,
		pe:      engines[n],
		metas:   ts.metas,
		epoch:   ts.epoch,
		nextID:  ts.nextID,
		pending: ts.pending,
		now:     time.Now,
		cqs:     make(map[*CQ]struct{}),
		owner:   make(map[UserID]int),
	}
	db.initObs()
	db.rebuildRoutes()
	if err := db.finishRecovered(); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.reconcile(); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.syncPolicies(); err != nil {
		db.Close()
		return nil, err
	}
	for _, e := range engines {
		db.nextTxn = max(db.nextTxn, e.MaxTxnID())
	}
	db.nextTxn++

	// A pending split or merge in the manifest already happened — its
	// route flip was durably committed — so recovery completes the
	// migration before the database serves anything.
	if db.pending != nil {
		if err := db.completePendingLocked(); err != nil {
			db.Close()
			return nil, fmt.Errorf("sharded: complete in-flight %s: %w", db.pending.Kind, err)
		}
	}

	db.startMaintainer()
	return db, nil
}

// reconcile rebuilds the user→shard map from the shards' contents. Every
// move between shards is one cross-shard commit, so a user found in two
// shards is corruption, not a crash leftover, and the open refuses it.
func (db *DB) reconcile() error {
	for i, s := range db.shards {
		objs, err := s.Objects()
		if err != nil {
			return fmt.Errorf("sharded: enumerate shard %d: %w", i, err)
		}
		for _, o := range objs {
			if prev, dup := db.owner[o.UID]; dup {
				return fmt.Errorf("sharded: %w: user %d is in shard %d and shard %d",
					peb.ErrCorruptCheckpoint, o.UID, db.metas[prev].id, db.metas[i].id)
			}
			db.owner[o.UID] = i
		}
	}
	return nil
}

// syncPolicies points every shard at the policy engine's store — at open,
// and after every policy commit, which may have gone to a copy of the
// store while something pinned it — and so tells every shard's commit
// hooks, the standing queries among them, that policies changed.
// The caller holds the write barrier (or is still constructing the DB).
func (db *DB) syncPolicies() error {
	for i, s := range db.shards {
		if err := s.BorrowPolicies(db.pe); err != nil {
			return fmt.Errorf("sharded: shard %d: borrow policies: %w", db.metas[i].id, err)
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

// Close closes every shard and the policy engine. Close drains cross-shard
// operations (it takes the barrier) and is idempotent. Each engine syncs
// its log as it closes, so every committed transaction is settled after
// it.
func (db *DB) Close() error {
	// The maintainer takes the barrier itself; stop it before acquiring.
	db.stopMaintainer()
	db.smu.Lock()
	defer db.smu.Unlock()
	if db.closed {
		return nil
	}
	return db.closeLocked()
}

// closeLocked closes every engine and marks the router closed. The caller
// holds the write barrier.
func (db *DB) closeLocked() error {
	db.closed = true
	var firstErr error
	for i, s := range db.shards {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sharded: close shard %d: %w", i, err)
		}
	}
	if err := db.pe.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("sharded: close policy engine: %w", err)
	}
	db.unsettled = nil
	return firstErr
}

// Upsert stores or replaces a user's movement update in the shard owning
// the new position.
//
// The update is staged under the router's shared barrier and the user's
// lock: it is visible to every query and commit from then on. Upsert then
// releases the barrier and waits, holding only the user's lock, until the
// update is durable, and returns once it is: cross-shard batches, policy
// commits, snapshots and topology changes do not wait for its fsync.
//
// A user whose update crosses a shard boundary is re-homed by a one-op
// Apply instead: the insert into the new shard and the eviction from the
// old one are one cross-shard commit, so no query, snapshot or recovery
// ever sees the user in two shards.
func (db *DB) Upsert(o Object) error {
	rehome := false
	err := db.routedWrite(o.UID, func() (peb.Staged, error) {
		target := db.shardOf(o.X, o.Y)
		db.ownMu.Lock()
		prev, had := db.owner[o.UID]
		db.ownMu.Unlock()
		if had && prev != target {
			rehome = true
			return peb.Staged{}, nil
		}
		s, err := db.shards[target].StageUpsert(o)
		if err != nil {
			return s, err
		}
		db.noteWrite(target)
		db.ownMu.Lock()
		db.owner[o.UID] = target
		db.ownMu.Unlock()
		return s, nil
	})
	if err != nil || !rehome {
		return err
	}
	b := db.NewBatch()
	b.Upsert(o)
	return db.Apply(b)
}

// Remove deletes a user's index entry (their policies remain). Removing a
// user with no index entry is an error, matching the single-tree engine.
// Like Upsert, it waits for durability outside the barrier.
func (db *DB) Remove(uid UserID) error {
	return db.routedWrite(uid, func() (peb.Staged, error) {
		db.ownMu.Lock()
		idx, ok := db.owner[uid]
		db.ownMu.Unlock()
		if !ok {
			return peb.Staged{}, fmt.Errorf("sharded: remove: user %d is not indexed", uid)
		}
		s, err := db.shards[idx].StageRemove(uid)
		if err != nil {
			return s, err
		}
		db.noteWrite(idx)
		db.ownMu.Lock()
		delete(db.owner, uid)
		db.ownMu.Unlock()
		return s, nil
	})
}

// routedWrite runs a one-shot write of user uid: stage under the shared
// barrier and the user's lock, then wait for durability holding only the
// user's lock, so the user's next transaction reads only durable state of
// theirs (see Apply).
func (db *DB) routedWrite(uid UserID, stage func() (peb.Staged, error)) error {
	db.smu.RLock()
	if db.closed {
		db.smu.RUnlock()
		return ErrClosed
	}
	mu := &db.userMu[userStripe(uid)]
	mu.Lock()
	defer mu.Unlock()
	s, err := stage()
	db.smu.RUnlock()
	if err != nil {
		return err
	}
	return s.Wait()
}

// userStripe is the index of uid's lock in userMu.
func userStripe(uid UserID) int { return int(uid % userStripes) }

// userSet is a set of user-lock stripes, one bit each.
type userSet uint64

// add puts uid's stripe in the set.
func (u *userSet) add(uid UserID) { *u |= 1 << userStripe(uid) }

// lockUsers takes every user lock in set, in stripe order. The caller
// holds the write barrier, so no other holder of several is taking them.
func (db *DB) lockUsers(set userSet) {
	for i := range db.userMu {
		if set&(1<<i) != 0 {
			db.userMu[i].Lock()
		}
	}
}

// unlockUsers releases every user lock in set.
func (db *DB) unlockUsers(set userSet) {
	for i := range db.userMu {
		if set&(1<<i) != 0 {
			db.userMu[i].Unlock()
		}
	}
}

// DefineRelation records a role relation: one commit on the policy
// engine, whose store every shard reads.
func (db *DB) DefineRelation(owner, peer UserID, role Role) error {
	b := db.NewBatch()
	b.DefineRelation(owner, peer, role)
	return db.Apply(b)
}

// Grant adds a location-privacy policy: one commit on the policy engine
// (see DefineRelation).
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
// time, on the policy engine, over the union of every shard's users, then
// installed on every shard — sequence values live in shard keys — and
// each shard rebuilds its own index under the shared result in parallel. Shared
// values also keep keys consistent across re-homing: a user moves shards
// with the same sequence value. Like the single-tree form, queries work
// without it but cluster better after it.
func (db *DB) EncodePolicies() error {
	db.smu.Lock()
	defer db.smu.Unlock()
	if db.closed {
		return ErrClosed
	}
	// The policy engine knows every policy-bearing user, but users who
	// only ever reported positions live in their owning shard alone; the
	// routing map is exactly that set, so folding it in makes the
	// assignment cover every indexed user on every shard.
	db.ownMu.Lock()
	extra := make([]UserID, 0, len(db.owner))
	for u := range db.owner {
		extra = append(extra, u)
	}
	db.ownMu.Unlock()
	enc, err := db.pe.ComputeEncoding(extra)
	if err != nil {
		return fmt.Errorf("sharded: compute encoding: %w", err)
	}
	errs := make([]error, len(db.shards))
	scatter(len(db.shards), func(i int) { errs[i] = db.shards[i].InstallEncoding(enc) })
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

// Checkpoint runs every shard's checkpoint pipeline, and the policy
// engine's, concurrently. Each pipeline stalls only its own engine's
// commits for its cut and publish moments; the others keep serving
// throughout — the per-shard version of the engine's non-blocking
// checkpoint. The policy engine rewrites its policies file only when a
// policy operation has committed since its last checkpoint. It settles every
// committed transaction first — syncing the parts no later commit has — so
// each coordinator's log truncation passes their records, idle
// participants or not.
func (db *DB) Checkpoint() error {
	db.smu.RLock()
	defer db.smu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.settle(true); err != nil {
		return fmt.Errorf("sharded: checkpoint: settle: %w", err)
	}
	all := db.participants()
	errs := make([]error, len(all))
	scatter(len(all), func(j int) { errs[j] = all[j].eng.Checkpoint() })
	for j, err := range errs {
		if err != nil {
			return fmt.Errorf("sharded: checkpoint %s: %w", all[j], err)
		}
	}
	return nil
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

// Allows evaluates the raw policy predicate on the policy engine's store.
func (db *DB) Allows(owner, viewer UserID, x, y, t float64) bool {
	db.smu.RLock()
	defer db.smu.RUnlock()
	if db.closed {
		return false
	}
	return db.pe.Allows(owner, viewer, x, y, t)
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
// by each shard's own motion slack, how far its objects can be from where
// they reported — are pruned, the rest are queried concurrently,
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

// NearestNeighbors answers the privacy-aware k-nearest-neighbor query on
// every shard, concurrently — both halves of a split in flight among them —
// and merges the answers. Each shard searches only for the issuer's
// grantors it holds (core.View's residency rule), so a shard's share of the
// query is bounded by what it stores.
func (db *DB) NearestNeighbors(issuer UserID, x, y float64, k int, t float64) ([]Neighbor, error) {
	db.smu.RLock()
	defer db.smu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	return gatherKNN(len(db.shards), issuer, x, y, k, t, db.reader)
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
// concatenates the results, sorted by user id for determinism. Each user is
// in one shard, so nothing needs merging.
func gatherRange(idxs []int, issuer UserID, r Region, t float64, shard func(int) querier) ([]Object, error) {
	results := make([][]Object, len(idxs))
	errs := make([]error, len(idxs))
	scatter(len(idxs), func(j int) {
		results[j], errs[j] = shard(idxs[j]).RangeQuery(issuer, r, t)
	})
	var out []Object
	for j, err := range errs {
		if err != nil {
			return nil, err
		}
		out = append(out, results[j]...)
	}
	slices.SortFunc(out, func(a, b Object) int { return cmp.Compare(a.UID, b.UID) })
	return out, nil // nil when empty, matching the single-tree engine
}

// gatherKNN asks slots 0 … n-1 for their k nearest in one concurrent wave,
// concatenates the answers, sorts them by (distance, user id) and cuts the
// result to k.
func gatherKNN(n int, issuer UserID, x, y float64, k int, t float64, shard func(int) querier) ([]Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	results := make([][]Neighbor, n)
	errs := make([]error, n)
	scatter(n, func(i int) {
		results[i], errs[i] = shard(i).NearestNeighbors(issuer, x, y, k, t)
	})
	var best []Neighbor
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		best = append(best, results[i]...)
	}
	slices.SortFunc(best, byDistUID)
	if len(best) > k {
		best = best[:k]
	}
	return best, nil // nil when empty, matching the single-tree engine
}

// byDistUID orders neighbors by distance, then user id.
func byDistUID(a, b Neighbor) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.Object.UID, b.Object.UID)
}
