// Package peb is the public API of the PEB-tree library: a privacy-aware
// moving-object database that answers range and k-nearest-neighbor queries
// under peer-wise location-privacy policies (Lin et al., PVLDB 5(1), 2011).
//
// A DB combines the three pieces a service provider needs:
//
//   - a policy store holding every user's location-privacy policies
//     ⟨role, locr, tint⟩ ("my colleagues may see me downtown, 8am–5pm");
//   - the offline policy-encoding phase that turns policy compatibility
//     into sequence values; and
//   - the PEB-tree index over the users' moving positions, whose keys
//     embed both the sequence values and a Z-curve location code.
//
// # Handles
//
// The API is organized around three explicit handles:
//
//   - DB is the live database. Its one-shot methods (Upsert, RangeQuery,
//     ...) are convenience wrappers: each takes the appropriate lock for
//     the duration of that single call.
//   - Snapshot (DB.Snapshot) is a pinned, immutable read handle: a
//     consistent multi-query session that runs without holding any lock
//     across calls, with per-snapshot I/O statistics and streaming,
//     context-aware queries. Writers proceed concurrently; the snapshot
//     keeps answering from the state it pinned.
//   - Batch (DB.NewBatch) stages writes in memory; DB.Apply applies them
//     atomically — one lock acquisition, all-or-nothing semantics, and a
//     single republish of the query snapshot, where N separate Upserts
//     would republish N times.
//
// Basic use:
//
//	db, _ := peb.Open(peb.Options{})
//	db.DefineRelation(alice, bob, "friend")
//	db.Grant(alice, "friend", downtown, mornings)
//	db.EncodePolicies()                      // offline phase, run after policy changes
//
//	b := db.NewBatch()                       // bulk load
//	b.Upsert(peb.Object{UID: alice, X: 10, Y: 20, VX: 1, VY: 0, T: 0})
//	db.Apply(b)
//
//	snap, _ := db.Snapshot()                 // consistent read session
//	defer snap.Close()
//	visible, _ := snap.RangeQuery(bob, area, now)
//	nearest, _ := snap.NearestNeighbors(bob, x, y, 5, now)
//	for o, err := range snap.RangeQueryCtx(ctx, bob, area, now) { ... }
//
// All DB methods are safe for concurrent use. The DB follows a
// single-writer/multi-reader discipline: updates (Upsert, Remove, Apply,
// Grant, DefineRelation, EncodePolicies, LoadPolicies) serialize behind a
// write lock, while one-shot queries (RangeQuery, NearestNeighbors, Lookup,
// Allows) take the read side and execute in parallel against an immutable
// snapshot of the index that is refreshed on every update. Pinned Snapshots
// go further: after creation they take no DB lock at all — the index pages
// they reach are copy-on-write-protected until the snapshot is closed.
package peb

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"repro/internal/bxtree"
	"repro/internal/core"
	"repro/internal/motion"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/store"
)

// Re-exported domain types, so callers need only this package.
type (
	// UserID identifies a service user.
	UserID = motion.UserID
	// Object is a user's latest movement update: position (X, Y) and
	// velocity (VX, VY) as of time T.
	Object = motion.Object
	// Region is an axis-aligned rectangle (policy areas, query windows).
	Region = policy.Region
	// TimeInterval is a daily time window; Start may exceed End to wrap
	// midnight.
	TimeInterval = policy.TimeInterval
	// Role names a relationship ("friend", "colleague").
	Role = policy.Role
	// Neighbor is one nearest-neighbor result.
	Neighbor = bxtree.Neighbor
)

// Durability selects how much committed data a crash may cost on a
// file-backed DB. Anything stronger than DurabilityNone attaches a
// write-ahead log (<Path>.wal): every committed mutation is logged before
// the commit call returns, and Open/OpenExisting replay the log on top of
// the last checkpoint, so a crash — a power cut, a kill -9 — loses at most
// the commits the level lets it lose.
type Durability int

const (
	// DurabilityNone keeps no log. Data persists only via Checkpoint; a
	// crash loses everything after the last one. The default.
	DurabilityNone Durability = iota
	// DurabilitySync fsyncs the log before every commit returns: an
	// acknowledged commit is never lost. Concurrent commits share one
	// fsync opportunistically (group commit).
	DurabilitySync
	// DurabilityGrouped is DurabilitySync with a short gathering window
	// before each fsync, so even loosely overlapping commits amortize one
	// sync. Slightly higher commit latency, far fewer fsyncs under load;
	// the same no-lost-acknowledged-commit guarantee.
	DurabilityGrouped
	// DurabilityAsync appends to the log without waiting for fsync: a
	// crash may lose a suffix of recently acknowledged commits, but
	// recovery still restores an exact committed prefix. A clean Close
	// syncs, so only crashes lose anything.
	DurabilityAsync
)

// String implements fmt.Stringer.
func (d Durability) String() string {
	switch d {
	case DurabilityNone:
		return "none"
	case DurabilitySync:
		return "sync"
	case DurabilityGrouped:
		return "grouped"
	case DurabilityAsync:
		return "async"
	default:
		return fmt.Sprintf("Durability(%d)", int(d))
	}
}

// walPolicy maps the durability level to the WAL's sync policy.
func (d Durability) walPolicy() store.WALSyncPolicy {
	switch d {
	case DurabilityGrouped:
		return store.WALSyncGrouped
	case DurabilityAsync:
		return store.WALSyncNone
	default:
		return store.WALSyncAlways
	}
}

// Options configures a DB. The zero value selects the paper's defaults:
// a 1000 × 1000 space, 2^10 grid, 120-unit maximum update interval,
// 1440-unit day, and a 50-page buffer over an in-memory disk. Negative
// values are rejected by Open with an error wrapping ErrBadOptions.
type Options struct {
	// SpaceSide is the side length of the square service space.
	SpaceSide float64
	// DayLength is the period of policy time windows.
	DayLength float64
	// MaxSpeed bounds object speed; query windows are enlarged by it.
	MaxSpeed float64
	// MaxUpdateInterval is ∆tmu: every user must update at least this often.
	MaxUpdateInterval float64
	// BufferPages is the LRU buffer capacity.
	BufferPages int
	// Path, when non-empty, backs the index with a file instead of memory.
	// Checkpoint persists the index; with Durability enabled a write-ahead
	// log at <Path>.wal additionally makes every commit crash-safe.
	Path string
	// Durability selects the crash-safety level (see the constants).
	// Requires Path; with it, Open recovers existing on-disk state instead
	// of starting fresh.
	Durability Durability
	// FS substitutes the filesystem the data file, log, and checkpoint
	// side files are accessed through. Nil means the operating system's.
	// Tests inject store.CrashFS here to simulate torn writes and power
	// cuts.
	FS store.VFS
	// WALSegmentBytes is the write-ahead-log segment roll threshold: the
	// active segment is sealed (fsynced, never written again) and a new
	// one started once it grows past this many bytes. Sealed segments are
	// whole-file units — checkpoints delete the fully covered ones instead
	// of rewriting anything, and replicas fetch them without coordination.
	// Zero selects store.DefaultWALSegmentBytes.
	WALSegmentBytes int64
	// AutoCheckpoint, when any threshold is set, starts a background
	// maintainer that checkpoints automatically once the write-ahead log
	// exceeds the threshold, bounding recovery time without the
	// application ever calling Checkpoint by hand. Requires Durability
	// (the thresholds measure the log).
	AutoCheckpoint AutoCheckpointPolicy
	// TxnResolve, when non-nil, decides the fate of a prepared cross-shard
	// transaction whose outcome marker is missing from the write-ahead log
	// at recovery (the process died between this participant's prepare and
	// the coordinator's commit/abort marker, or before the marker's sync —
	// Commit and Abort do not wait for it). It is called with the
	// transaction id and must report whether the coordinator committed it —
	// typically by consulting the coordinator's decision log. Nil treats
	// every unresolved transaction as aborted, which is the correct default
	// for a standalone DB (it never prepares transactions).
	TxnResolve func(txnID uint64) bool
	// OnCommit, when non-nil, is registered as a commit hook before the
	// DB accepts its first post-open commit: it fires synchronously under
	// the write lock on every committed mutation, carrying the commit's
	// touched object set (see CommitHook and AddCommitHook for the full
	// contract). Recovery replay never fires it. Continuous-query engines
	// (peb/cq) are the intended consumer; most callers attach hooks later
	// via AddCommitHook instead.
	OnCommit CommitHook
	// Logger, when non-nil, receives every recorded maintainer event —
	// checkpoints, recovery summaries, transaction verdicts, slow queries
	// — as a structured log record, in addition to the bounded in-memory
	// event log every DB keeps (see Events).
	Logger *slog.Logger
	// SlowQueryThreshold, when positive, records an event (and bumps
	// peb_slow_queries_total) for every one-shot query slower than it.
	// Zero disables slow-query tracking.
	SlowQueryThreshold time.Duration
	// MetricsLabel, when non-empty, labels every metric series this DB
	// exports with shard="<MetricsLabel>". The sharded router sets it to
	// each engine's stable shard id so per-shard series stay attributable
	// across topology changes.
	MetricsLabel string
}

// AutoCheckpointPolicy sets the write-ahead-log thresholds that trigger an
// automatic background checkpoint. Zero values disable a threshold; the
// all-zero policy disables the maintainer entirely. When both are set,
// whichever trips first triggers. After each automatic checkpoint the
// maintainer waits as long as that checkpoint took before it checks the
// thresholds again.
type AutoCheckpointPolicy struct {
	// WALBytes triggers a checkpoint when the log exceeds this many bytes.
	WALBytes int64
	// WALRecords triggers a checkpoint after this many committed records
	// since the last checkpoint.
	WALRecords uint64
}

func (p AutoCheckpointPolicy) enabled() bool { return p.WALBytes > 0 || p.WALRecords > 0 }

func (o *Options) setDefaults() {
	if o.SpaceSide == 0 {
		o.SpaceSide = bxtree.DefaultSpaceSide
	}
	if o.DayLength == 0 {
		o.DayLength = 1440
	}
	if o.MaxSpeed == 0 {
		o.MaxSpeed = bxtree.DefaultMaxSpeed
	}
	if o.MaxUpdateInterval == 0 {
		o.MaxUpdateInterval = bxtree.DefaultDeltaTmu
	}
	if o.BufferPages == 0 {
		o.BufferPages = store.DefaultBufferPages
	}
	if o.FS == nil {
		o.FS = store.OSFS{}
	}
}

// gcBatch is a group of index pages superseded by copy-on-write at a given
// seal version, awaiting release until no snapshot pinned at or before that
// version remains.
type gcBatch struct {
	ver   uint64
	pages []store.PageID
}

// DB is a privacy-aware moving-object database.
type DB struct {
	// mu implements the single-writer/multi-reader discipline: every
	// update path holds the write lock; every query path holds the read
	// lock and runs against view, so queries from concurrent clients
	// proceed in parallel. Pinned Snapshots bypass mu entirely after
	// creation (copy-on-write keeps their pages stable).
	mu sync.RWMutex

	opts Options
	// pol holds the policy store and the pins on it; other DBs may share
	// it (SharePolicies). policies is the store this DB's tree and view
	// read: pol's current store, or one a sharer's clone has superseded
	// and nobody mutates any more until this DB's next policy commit
	// catches up.
	pol      *policyHandle
	policies *policy.Store
	tree     *core.Tree
	// view is the read-only snapshot one-shot queries execute on. It is
	// replaced (under the write lock) by every operation that mutates the
	// index, so a query sees the latest committed state for its whole
	// duration and never an in-progress update.
	view     *core.View
	disk     store.DiskManager
	fileDisk *store.FileDisk // non-nil when file-backed
	closed   bool

	// Durability state. wal is non-nil when Options.Durability is enabled;
	// walSeq numbers committed records (persisted in checkpoint meta, so
	// replay knows where the checkpoint's coverage ends). ckptSeq numbers
	// checkpoints: each writes its policies snapshot under a unique name,
	// of which prevPolicies is the live one (deleted when the next
	// checkpoint supersedes it). ckptSealed is true once a checkpoint
	// image exists for the current tree/disk incarnation: from then on
	// the tree stays permanently sealed (mutations copy-on-write) and
	// retired pages are quarantined rather than reused, so nothing ever
	// overwrites a page the checkpoint references — the invariant that
	// makes the image a valid recovery base under any crash. The next
	// Checkpoint reclaims the quarantined pages from ckptDead.
	wal          *store.SegmentedWAL
	walSeq       uint64
	ckptSeq      uint64
	prevPolicies string
	ckptSealed   bool

	// Replica retention floors (replica.go): each attached in-process
	// Replica pins the log at its tail cursor, so checkpoint publication
	// never deletes a sealed segment a replica has yet to read.
	repMu     sync.Mutex
	repFloors map[*Replica]store.SegPos

	// encBuf is the reusable WAL record encode buffer: walAppendTxn
	// encodes into it under the write lock and WAL.Append copies the
	// payload out before returning, so steady-state commits allocate
	// nothing for serialization.
	encBuf []byte

	// opScratch backs the resolved index group of a commit (commit.go): a
	// one-shot mutation resolves to at most two operations (a fresh user's
	// Upsert brings its core.OpSetSV), so its list lives here rather than
	// on the heap. Guarded by mu.
	opScratch [2]core.BatchOp

	// ckptDead is the dead-extent ledger (checkpoint.go), guarded by mu:
	// the allocated pages the tree does not reach and no open snapshot
	// pins (pinned ones wait in garbage). It is the next checkpoint's dead
	// set. Pages enter it as collectGarbage quarantines them, and where a
	// ledger starts it is seeded with what is already dead: by newTree
	// with the file's previous pages, by recovery with the checkpoint's
	// allocated pages its image does not reach, by an aborted pipeline
	// with the pages its build did not park.
	ckptDead []store.PageID

	// Cross-shard transaction state (prepared.go). prepared is the
	// transaction between PrepareApply and its Commit/Abort, nil when none:
	// its record is logged but nothing of it applied, and no other commit
	// lands until it is finished. maxTxn is the largest transaction id this
	// DB has logged or replayed — coordinators allocate ids above every
	// participant's watermark so a recycled id can never resurrect a stale
	// prepared record. Both guarded by mu.
	prepared *Prepared
	maxTxn   uint64

	// Checkpoint pipeline state (checkpoint.go). ckptMu serializes whole
	// checkpoint pipelines against each other, against index rebuilds
	// (EncodePolicies/LoadPolicies swap the tree and backing disk a build
	// phase would be reading), and against Close (which drains any
	// in-flight pipeline). Lock order: ckptMu strictly before mu; it is
	// held across the build phase precisely so that mu is NOT.
	// ckptBuilding (under mu) marks a build phase in flight: garbage
	// collection quarantines retired pages while set, protecting the cut
	// image (the cut pins the policy store itself). ckptWalSeq (under mu)
	// is the WAL horizon of the last committed checkpoint — what the
	// AutoCheckpoint record threshold measures against. ckptHook is a
	// test hook called at phase boundaries ("build", "publish"); nil
	// outside tests.
	ckptMu       sync.Mutex
	ckptBuilding bool
	ckptWalSeq   uint64
	ckptHook     func(phase string)

	// Checkpoint coalescing: Checkpoint calls that arrive while a
	// pipeline is in flight wait for that pipeline and share its result
	// instead of queueing a redundant one. ckptCoalMu guards ckptInflight.
	ckptCoalMu   sync.Mutex
	ckptInflight *ckptRun

	// statsMu guards ckptStats (updated by the pipeline, read by
	// CheckpointStats; a leaf mutex so readers never touch mu).
	statsMu   sync.Mutex
	ckptStats CheckpointStats

	// AutoCheckpoint maintainer. autoC is the (capacity-1) trigger
	// channel commits signal when the WAL crosses a threshold; stopC ends
	// the maintainer goroutine; stopOnce makes Close idempotent about it.
	autoC    chan struct{}
	stopC    chan struct{}
	stopOnce sync.Once
	maintWG  sync.WaitGroup

	// viewSwaps counts view republishes — the quantity Apply amortizes:
	// a batch of N mutations republishes once where N Upserts republish N
	// times.
	viewSwaps uint64

	// Commit hooks (commithook.go). hooks fire in registration order
	// inside every commit critical section, after the view swap; commitSeq
	// numbers the notifications. Replay never fires hooks: none can be
	// registered before Open returns. All guarded by mu.
	hooks      []commitHookEntry
	nextHookID uint64
	commitSeq  uint64

	// Snapshot bookkeeping. gen identifies the current tree incarnation
	// (EncodePolicies and LoadPolicies rebuild the tree, starting a new
	// generation); snaps holds every open snapshot; garbage holds retired
	// pages of the current generation awaiting release.
	gen     uint64
	snaps   map[*Snapshot]struct{}
	garbage []gcBatch

	// Observability (observe.go). met holds the registered hot-path
	// instruments; events is the bounded maintainer event log; qio
	// accumulates the pages visited by one-shot queries on the published
	// view (the view is created with it attached). All three are built by
	// initObs during construction and live for the DB's lifetime.
	met    dbMetrics
	events *obs.EventLog
	qio    *store.IOCounter

	// users is every id ever seen (policies or movement), the population
	// the encoding phase assigns sequence values over.
	users map[UserID]bool
	// assignment is the latest encoding result; nextSV hands out fresh
	// singleton-anchor values to users that appear after encoding.
	assignment policy.Assignment
	nextSV     float64
	encoded    bool
}

// Open creates a DB. Invalid options are rejected with an error wrapping
// ErrBadOptions.
//
// With Durability enabled, Open is open-or-recover: if the path already
// holds a checkpoint or a write-ahead log — say, from a process that
// crashed — Open behaves as OpenExisting, replaying the log on top of the
// last checkpoint, so "crash, restart, Open" resumes exactly the committed
// state. A fresh path starts a fresh DB. Without durability Open starts
// fresh, but refuses a path holding a write-ahead log: the log's commits
// were acknowledged as durable, so discarding them must be explicit
// (recover via OpenExisting, or delete the log).
func Open(opts Options) (*DB, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	if opts.Path != "" {
		hasMeta, err := opts.FS.Exists(opts.Path + ".meta")
		if err != nil {
			return nil, fmt.Errorf("peb: probe checkpoint: %w", err)
		}
		hasWAL, err := store.SegmentedWALExists(opts.FS, opts.Path+".wal")
		if err != nil {
			return nil, fmt.Errorf("peb: probe wal: %w", err)
		}
		if opts.Durability != DurabilityNone && (hasMeta || hasWAL) {
			return OpenExisting(opts)
		}
		if opts.Durability == DurabilityNone && hasWAL {
			// The log holds commits that were acknowledged as durable;
			// starting a fresh unlogged history here would silently
			// destroy them. Make the data loss opt-in.
			return nil, fmt.Errorf(
				"peb: %s.wal holds logged commits; Open with Durability set (or OpenExisting) to recover them, or delete the log to discard them",
				opts.Path)
		}
	}
	db, err := openFresh(opts)
	if err != nil {
		return nil, err
	}
	if opts.OnCommit != nil {
		db.AddCommitHook(opts.OnCommit)
	}
	db.startAutoCheckpoint()
	return db, nil
}

// openFresh builds an empty DB (and, when durable, an empty log).
func openFresh(opts Options) (*DB, error) {
	space := Region{MinX: 0, MinY: 0, MaxX: opts.SpaceSide, MaxY: opts.SpaceSide}
	policies, err := policy.NewStore(space, opts.DayLength)
	if err != nil {
		return nil, err
	}
	db := &DB{
		opts:     opts,
		pol:      newPolicyHandle(policies),
		policies: policies,
		users:    make(map[UserID]bool),
		snaps:    make(map[*Snapshot]struct{}),
	}
	db.initObs()
	if err := db.newTree(policy.Assignment{}); err != nil {
		return nil, err
	}
	if opts.Durability != DurabilityNone {
		wal, records, err := store.OpenSegmentedWAL(opts.FS, opts.Path+".wal",
			opts.Durability.walPolicy(), opts.WALSegmentBytes)
		if err != nil {
			db.fileDisk.Close()
			return nil, err
		}
		if len(records) > 0 {
			// Unreachable from Open (it routes existing logs to recovery),
			// but guard against a caller constructing this state by hand.
			wal.Close()
			db.fileDisk.Close()
			return nil, fmt.Errorf("peb: refusing to start fresh over a non-empty wal")
		}
		db.wal = wal
		db.observeWAL()
	}
	return db, nil
}

// newTree replaces the index with a fresh one under the given assignment,
// starting a new snapshot generation: snapshots taken against the previous
// tree keep reading it (their pool is unreachable from the new tree), and
// the previous generation's garbage is dropped with the old disk.
func (db *DB) newTree(assignment policy.Assignment) error {
	var disk store.DiskManager
	var fd *store.FileDisk
	var dead []store.PageID
	if db.opts.Path != "" {
		var err error
		fd, err = store.OpenFileDiskOn(db.opts.FS, db.opts.Path)
		if err != nil {
			return err
		}
		disk = fd
		// Every page already in the file belongs to an earlier incarnation,
		// which the new tree never reaches: the new ledger starts with them.
		dead = fd.AliveList()
	} else {
		disk = store.NewMemDisk()
	}

	tree, err := core.New(db.opts.coreConfig(), store.NewBufferPool(disk, db.opts.BufferPages), db.policies, assignment)
	if err != nil {
		if fd != nil {
			fd.Close()
		}
		return err
	}
	if db.fileDisk != nil {
		db.fileDisk.Close()
	}
	db.tree = tree
	db.disk = disk
	db.fileDisk = fd
	db.assignment = assignment
	db.gen++
	db.garbage = nil
	// The fresh tree starts a new incarnation with no checkpoint image of
	// its own. Any *previous* checkpoint on the same file stays recoverable
	// regardless: the fresh FileDisk marks every existing page allocated
	// and its free list starts empty, so nothing the old meta references
	// can be overwritten before the next Checkpoint supersedes it.
	db.ckptSealed = false
	db.ckptDead = dead
	db.refreshView()
	db.nextSV = assignment.MaxSV
	if db.nextSV < 2 {
		db.nextSV = 2
	}
	return nil
}

// refreshView republishes the query snapshot after an index mutation. The
// caller holds the write lock, so no query observes the swap mid-flight.
func (db *DB) refreshView() {
	// The view carries the query I/O counter, so one-shot query page
	// visits are attributable separately from write-path I/O.
	db.view = db.tree.ViewIO(db.qio)
	db.viewSwaps++
}

// ViewSwaps returns the number of view republishes since Open — an
// observability hook for verifying write batching: Apply republishes once
// per batch, per-call Upserts once per call.
func (db *DB) ViewSwaps() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.viewSwaps
}

// collectGarbage moves freshly retired pages into the garbage list, then
// disposes of every batch no live snapshot of the current generation can
// reach. With no snapshots left at all — and unless a checkpoint image
// must stay intact — it returns the tree to cheap in-place mutation.
// Caller holds the write lock.
//
// Disposal depends on whether a checkpoint image must stay intact: without
// one, unpinned pages go straight back to the allocator. With a committed
// checkpoint (ckptSealed) — or with a checkpoint build phase in flight
// (ckptBuilding), whose cut image is not yet durable — a retired page may
// be part of that on-disk image, so reusing it would corrupt the recovery
// base; unpinned batches are instead quarantined — the pages stay
// allocated and join the dead-extent ledger (ckptDead), which the next
// checkpoint frees.
func (db *DB) collectGarbage() {
	if pages := db.tree.TakeRetired(); len(pages) > 0 {
		db.garbage = append(db.garbage, gcBatch{ver: db.tree.Version(), pages: pages})
	}
	minVer, live := db.minLiveVersion()
	kept := db.garbage[:0]
	for _, b := range db.garbage {
		switch {
		case live && b.ver >= minVer:
			kept = append(kept, b)
		case db.ckptSealed || db.ckptBuilding:
			// Quarantined: the pages stay allocated until the next
			// checkpoint frees them.
			db.ckptDead = append(db.ckptDead, b.pages...)
		default:
			for _, pid := range b.pages {
				// A failed release leaks one disk page; correctness is
				// unaffected, so the mutation that triggered collection
				// still reports success.
				_ = db.tree.Pool().Release(pid)
			}
		}
	}
	db.garbage = kept
	if !live && !db.ckptSealed && !db.ckptBuilding {
		db.tree.Unseal()
	}
}

// minLiveVersion returns the smallest pinned version among open snapshots
// of the current generation.
func (db *DB) minLiveVersion() (uint64, bool) {
	var min uint64
	live := false
	for s := range db.snaps {
		if s.gen != db.gen {
			continue
		}
		if !live || s.version < min {
			min = s.version
			live = true
		}
	}
	return min, live
}

// Close releases the DB's resources (the backing file and write-ahead
// log, if any). The log is synced before closing, so a clean Close loses
// nothing even under DurabilityAsync. All subsequent method calls — and
// queries on any still-open Snapshot of a file-backed DB — return
// ErrClosed or a disk error. Close is idempotent.
//
// Close drains checkpoints: it stops the AutoCheckpoint maintainer and
// waits for any in-flight checkpoint pipeline to finish (commit or fail)
// before tearing anything down, so a checkpoint never races a vanishing
// disk.
func (db *DB) Close() error {
	db.stopAutoCheckpoint()
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	var firstErr error
	if db.wal != nil {
		firstErr = db.wal.Close()
		db.wal = nil
	}
	if db.fileDisk != nil {
		if err := db.fileDisk.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		db.fileDisk = nil
	}
	return firstErr
}

// DefineRelation records that owner considers peer to hold role. Policies
// owner has granted to that role then apply to peer.
func (db *DB) DefineRelation(owner, peer UserID, role Role) error {
	return db.commit(opList{Pol: []polOp{{Kind: polOpRelation, Own: owner, Peer: peer, Role: role}}})
}

// Grant adds a location-privacy policy for owner: users related to owner
// by role may see owner's location while owner is inside locr during tint.
func (db *DB) Grant(owner UserID, role Role, locr Region, tint TimeInterval) error {
	return db.commit(opList{Pol: []polOp{{Kind: polOpGrant, Own: owner, Role: role, Locr: locr, Tint: tint}}})
}

// Allows reports whether viewer may currently see owner located at (x, y)
// at time t — the raw policy predicate, evaluated without the index. On a
// closed DB it reports false.
func (db *DB) Allows(owner, viewer UserID, x, y, t float64) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return false
	}
	return db.policies.Allows(policy.UserID(owner), policy.UserID(viewer), x, y, t)
}

// EncodePolicies runs the offline policy-encoding phase (Sec. 5.1 of the
// paper): pairwise compatibility scores become sequence values, and the
// index is rebuilt so every stored user adopts its new key. Weighted label
// propagation over the compatibility graph finds its communities; each
// community gets one contiguous band of sequence values, and inside a band
// the users follow Fig. 5's order (policy.AssignCommunities). An encoding
// whose values do not fit the key's sequence-value field is refused before
// the rebuild starts. Call it after batches of policy changes; queries work
// without it, but clustering — and therefore query I/O — is only as good as
// the latest encoding.
//
// Open snapshots keep reading the pre-encoding index (memory-backed DBs;
// on a file-backed DB the rebuild reuses the backing file, so snapshots
// from before the rebuild return errors).
func (db *DB) EncodePolicies() error {
	// A polOpEncode without an assignment: commit computes it under the
	// lock and logs the result, so replay never re-runs the algorithm.
	return db.commit(opList{Pol: []polOp{{Kind: polOpEncode}}})
}

// Upsert stores or replaces a user's movement update. Users that appeared
// after the last EncodePolicies call receive a fresh singleton sequence
// value immediately; run EncodePolicies to integrate them properly. The
// sequence value is committed only if the insert succeeds — a failed
// insert leaves no orphan value behind.
//
// Bulk loads should stage updates in a Batch and call Apply: one lock
// acquisition and one view republish for the whole batch.
func (db *DB) Upsert(o Object) error {
	return db.commit(opList{Idx: []core.BatchOp{{Kind: core.OpUpsert, Obj: o}}})
}

// Remove deletes a user's index entry (the user's policies remain).
func (db *DB) Remove(uid UserID) error {
	return db.commit(opList{Idx: []core.BatchOp{{Kind: core.OpRemove, UID: uid}}})
}

// Lookup returns a user's stored movement state.
func (db *DB) Lookup(uid UserID) (Object, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return Object{}, false, ErrClosed
	}
	return db.view.Get(uid)
}

// CommitSeq returns the WAL sequence number of the latest commit — the
// horizon a fully caught-up Replica of this DB reports. Routers use the
// pair for read-your-writes: a follower whose Horizon has reached the
// CommitSeq observed after a write serves reads that include it.
func (db *DB) CommitSeq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.walSeq
}

// Size returns the number of indexed users (0 on a closed DB).
func (db *DB) Size() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return 0
	}
	return db.view.Size()
}

// RangeQuery returns the users inside r at time t whose policies let
// issuer see them there and then (the paper's PRQ, Definition 2).
//
// RangeQuery is a convenience wrapper: it is equivalent to taking a
// Snapshot, running the same query, and closing it, without the pinning
// cost. For multi-query consistency or streaming, use a Snapshot.
func (db *DB) RangeQuery(issuer UserID, r Region, t float64) ([]Object, error) {
	if !r.Valid() {
		return nil, &InvalidRegionError{Region: r}
	}
	start := time.Now()
	out, err := db.rangeQueryLocked(issuer, r, t)
	d := time.Since(start)
	db.met.prq.ObserveDuration(d)
	db.noteSlowQuery("prq", d, err)
	return out, err
}

func (db *DB) rangeQueryLocked(issuer UserID, r Region, t float64) ([]Object, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	w := bxtree.Window{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
	return db.view.PRQ(issuer, w, t)
}

// NearestNeighbors returns the k users nearest to (x, y) at time t whose
// policies let issuer see them (the paper's PkNN, Definition 3), sorted by
// ascending distance. Like RangeQuery, it is a per-call-snapshot wrapper.
func (db *DB) NearestNeighbors(issuer UserID, x, y float64, k int, t float64) ([]Neighbor, error) {
	start := time.Now()
	out, err := db.nearestNeighborsLocked(issuer, x, y, k, t)
	d := time.Since(start)
	db.met.pknn.ObserveDuration(d)
	db.noteSlowQuery("pknn", d, err)
	return out, err
}

func (db *DB) nearestNeighborsLocked(issuer UserID, x, y float64, k int, t float64) ([]Neighbor, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	return db.view.PKNN(issuer, x, y, k, t)
}

// WALStats reports write-ahead-log activity: records appended and fsyncs
// performed. Under group commit, syncs < appends shows how many commits
// shared a sync. Zero-valued on a DB without durability.
type WALStats struct {
	Appends uint64
	Syncs   uint64
	// BytesAppended is the framed log volume written since open (headers +
	// payloads; segment removal does not reset it).
	BytesAppended uint64
	// SegmentsSealed counts active segments rolled into sealed (immutable,
	// fully fsynced) ones; SegmentsRemoved counts sealed segments deleted
	// by checkpoints whose cut covered them entirely.
	SegmentsSealed  uint64
	SegmentsRemoved uint64
}

// WALStats returns the log's activity counters since open.
func (db *DB) WALStats() WALStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return WALStats{}
	}
	appends, syncs := db.wal.Stats()
	sealed, removed := db.wal.SegmentStats()
	return WALStats{
		Appends: appends, Syncs: syncs, BytesAppended: db.wal.BytesAppended(),
		SegmentsSealed: sealed, SegmentsRemoved: removed,
	}
}

// IOStats reports the index's buffer statistics since the last ResetStats.
// For the I/O of one query session, use Snapshot.IOStats instead.
func (db *DB) IOStats() store.BufferStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return store.BufferStats{}
	}
	return db.tree.Pool().Stats()
}

// ResetStats zeroes the I/O counters.
func (db *DB) ResetStats() {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return
	}
	db.tree.Pool().ResetStats()
}

// DropCaches flushes and empties the page buffer and zeroes the I/O
// counters, producing a cold cache for reproducible I/O measurements
// (every index has its own buffer, so comparisons must cold-start both
// sides identically). It fails if any query holds a page pinned at this
// instant — avoid calling it while snapshot queries are in flight.
func (db *DB) DropCaches() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.tree.Pool().DropAll(); err != nil {
		return err
	}
	db.tree.Pool().ResetStats()
	return nil
}

// noteUser registers a user id in the population (caller holds the lock).
func (db *DB) noteUser(uid UserID) {
	db.users[uid] = true
}

// SavePolicies writes a snapshot of all relations and policies to w.
// Policies change rarely (the paper's premise), so snapshotting them and
// rebuilding indexes from live movement data is the natural recovery path.
func (db *DB) SavePolicies(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	return db.policies.Save(w)
}

// LoadPolicies replaces the DB's entire policy state with a snapshot
// written by SavePolicies, then re-runs policy encoding and rebuilds the
// index so stored users adopt keys under the restored policies.
func (db *DB) LoadPolicies(r io.Reader) error {
	blob, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("peb: read policies: %w", err)
	}
	// One commit carries the whole state swap — the policy snapshot plus
	// the assignment the index is rebuilt under — so no query ever sees the
	// new policies paired with the old sequence-value encoding, and replay
	// is a wholesale, idempotent replacement.
	return db.commit(opList{Pol: []polOp{{Kind: polOpLoadPolicies, Blob: blob}, {Kind: polOpEncode}}})
}
