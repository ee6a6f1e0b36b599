package peb

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/store"
)

// Replica is a read-only follower of a durable DB. It bootstraps a copy
// of the primary's state, then tails the primary's segmented write-ahead
// log — sealed segments plus the active one, through the shared VFS — and
// applies each record through the same replay path recovery uses, so the
// replica's state at horizon H is byte-for-byte the state a primary
// recovery of the log prefix through H would produce.
//
// Reads (RangeQuery, NearestNeighbors, Snapshot) are served from the
// replica's own in-memory index under its own lock, so follower reads
// scale out without touching the primary's read lock at all. Every read
// is snapshot-consistent at a known WAL horizon: Horizon reports the
// sequence number of the last applied commit, and Snapshot returns a
// pinned handle tagged with the horizon it was cut at.
//
// # Consistency
//
// The replica is asynchronous: a commit acknowledged by the primary
// becomes visible here only after the tailer has read and applied its
// record. Callers needing read-your-writes compare Horizon against the
// sequence a write returned (peb/sharded does exactly this and falls
// back to the primary when the replica lags). CatchUp synchronously
// drains everything the primary had appended when it was called.
//
// Cross-shard transactions replicate exactly: a prepared record's fate
// is unknowable until its commit/abort marker, so the tailer stalls
// application at an undecided prepared record — buffering the records
// behind it — and resumes when the marker arrives, applying or skipping
// the prepared operations just as recovery would. The horizon therefore
// lags during a two-phase-commit window; it never exposes an undecided
// transaction.
//
// # Retention
//
// An attached replica pins the primary's log: checkpoint publication
// drops sealed segments only below every replica's cursor (the retention
// floor), so the tailer never finds a segment deleted out from under it.
// Close detaches the replica and releases the pin.
type Replica struct {
	primary *DB
	fs      store.VFS
	path    string // the primary's log base path (<Path>.wal)

	// db holds the replica's applied state: an in-memory DB (no path, no
	// log of its own) whose walSeq is the replication horizon. Queries
	// delegate to it; the tailer mutates it under its write lock.
	db *DB

	// mu serializes the tailer with CatchUp and Snapshot: it guards the
	// read cursor, the stalled-record buffer, and the applied/err state
	// transitions. Lock order: mu before db.mu.
	mu     sync.Mutex
	cursor store.SegPos // next log byte to read
	log    txnReplay    // decoded records not yet applied: those behind an undecided prepared record
	err    error

	// horizon is the advertised applied horizon. It is published only
	// AFTER a drain has refreshed db's query view: db.walSeq advances
	// record by record mid-drain, ahead of the view freshness a reader
	// checking Horizon actually cares about — advertising walSeq directly
	// would let a router serve a stale view it believes is fresh.
	horizon atomic.Uint64

	wake       chan struct{}
	stop       chan struct{}
	done       chan struct{}
	removeHook func()
	closeOnce  sync.Once
	closeErr   error
}

// replicaPollInterval is the tailer's fallback poll period. Commit hooks
// wake it immediately on every primary commit; the ticker only covers the
// window between a hook registered mid-bootstrap and records appended
// just before it, and wakes lost while a poll was already running.
const replicaPollInterval = 5 * time.Millisecond

// NewReplica attaches a follower to a durable, file-backed primary. The
// snapshot transfer runs under the primary's read lock (commits wait,
// queries proceed); tailing starts immediately after.
func NewReplica(primary *DB) (*Replica, error) {
	r := &Replica{
		primary: primary,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := r.bootstrap(); err != nil {
		return nil, err
	}
	// Register the wake-up hook after bootstrap (AddCommitHook needs the
	// write lock the bootstrap's read lock excludes). Commits landing in
	// between are caught by the run loop's initial poll.
	r.removeHook = primary.AddCommitHook(func(CommitInfo, *CommitView) {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	})
	go r.run()
	return r, nil
}

// bootstrap copies the primary's state and registers the retention floor.
//
// The read lock makes the capture consistent: every commit applies state
// and appends its record under the write lock, so tree content and the log
// agree at appliedHorizon — the log's end, or just below a pending prepared
// record, whose operations a prepare does not apply. The tailer starts
// there, so it reads that record next and stalls on it until its marker
// arrives, exactly as for a record prepared after the bootstrap.
func (r *Replica) bootstrap() error {
	p := r.primary
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	if p.wal == nil {
		return fmt.Errorf("peb: replication requires a durable primary (Options.Durability)")
	}

	// The store may be shared with other DBs, whose policy commits the
	// read lock does not hold off: pin it while it is copied.
	p.pol.pin(p.policies)
	var polBuf bytes.Buffer
	err := p.policies.Save(&polBuf)
	p.pol.unpin(p.policies)
	if err != nil {
		return fmt.Errorf("peb: replica bootstrap policies: %w", err)
	}
	loaded, err := policy.Load(bytes.NewReader(polBuf.Bytes()))
	if err != nil {
		return fmt.Errorf("peb: replica bootstrap policies: %w", err)
	}

	asg := policy.Assignment{
		SV:     make(map[policy.UserID]float64, len(p.assignment.SV)),
		MaxSV:  p.assignment.MaxSV,
		Groups: p.assignment.Groups,
	}
	for uid, sv := range p.assignment.SV {
		asg.SV[uid] = sv
	}

	opts := Options{
		SpaceSide:         p.opts.SpaceSide,
		DayLength:         p.opts.DayLength,
		MaxSpeed:          p.opts.MaxSpeed,
		MaxUpdateInterval: p.opts.MaxUpdateInterval,
		BufferPages:       p.opts.BufferPages,
	}
	opts.setDefaults()
	rdb := &DB{
		opts:     opts,
		pol:      newPolicyHandle(loaded),
		policies: loaded,
		users:    make(map[UserID]bool, len(p.users)),
		snaps:    make(map[*Snapshot]struct{}),
	}
	if err := rdb.newTree(asg); err != nil {
		return fmt.Errorf("peb: replica bootstrap tree: %w", err)
	}
	// Sequence values must transfer in their encoded form: the floats they
	// were computed from are gone, and the index keys about to be rebuilt
	// embed the encoding verbatim.
	for uid, enc := range p.tree.Snapshot().SVs {
		if err := rdb.tree.SetSVEnc(uid, enc); err != nil {
			return fmt.Errorf("peb: replica bootstrap sv: %w", err)
		}
	}
	for _, uid := range p.view.UserIDs() {
		o, ok, err := p.view.Get(uid)
		if err != nil {
			return fmt.Errorf("peb: replica bootstrap read u%d: %w", uid, err)
		}
		if !ok {
			continue
		}
		if err := rdb.tree.Insert(o); err != nil {
			return fmt.Errorf("peb: replica bootstrap insert u%d: %w", uid, err)
		}
	}
	for uid := range p.users {
		rdb.users[uid] = true
	}
	rdb.nextSV = p.nextSV
	if rdb.nextSV < 2 {
		rdb.nextSV = 2
	}
	rdb.encoded = p.encoded
	rdb.maxTxn = p.maxTxn
	rdb.walSeq, r.cursor = p.appliedHorizon()
	rdb.refreshView()

	r.db = rdb
	r.fs = p.opts.FS
	r.path = p.opts.Path + ".wal"
	r.horizon.Store(rdb.walSeq)

	// Register the retention floor while still holding the read lock:
	// checkpoint publication needs the write lock, so no segment at or past
	// the cursor can be dropped before the floor is visible.
	p.repMu.Lock()
	if p.repFloors == nil {
		p.repFloors = make(map[*Replica]store.SegPos)
	}
	p.repFloors[r] = r.cursor
	p.repMu.Unlock()
	return nil
}

// run is the tailer goroutine: poll on every primary commit (hook wake),
// with a slow ticker as a safety net.
func (r *Replica) run() {
	defer close(r.done)
	tick := time.NewTicker(replicaPollInterval)
	defer tick.Stop()
	r.poll()
	for {
		select {
		case <-r.stop:
			return
		case <-r.wake:
		case <-tick.C:
		}
		r.poll()
	}
}

// poll drains everything currently readable from the log. A tail error is
// sticky: the replica stops advancing and reports it from Err/CatchUp.
func (r *Replica) poll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	for {
		progress, err := r.pollOnceLocked()
		if err != nil {
			r.err = err
			return
		}
		if !progress {
			return
		}
	}
}

// pollOnceLocked reads the cursor's segment once and applies what it
// finds. Caller holds r.mu.
//
// Segment-advance protocol: the existence of the NEXT segment is probed
// BEFORE reading the current one. Rolling seals (fsyncs) a segment before
// creating its successor, so if the successor existed before our read,
// the bytes we read are the segment's final content — trailing garbage is
// real corruption, and an end-of-data cursor may safely advance. If the
// successor did not exist, any trailing partial frame is just an append
// in flight; we re-read next poll.
func (r *Replica) pollOnceLocked() (progress bool, err error) {
	seg := r.cursor.Seg
	name := store.SegmentWALName(r.path, seg)
	nextExists, err := r.fs.Exists(store.SegmentWALName(r.path, seg+1))
	if err != nil {
		return false, fmt.Errorf("peb: replica probe segment: %w", err)
	}
	data, err := r.fs.ReadFile(name)
	if err != nil {
		return false, fmt.Errorf("peb: replica read segment %06d: %w", seg, err)
	}
	if int64(len(data)) > r.cursor.Off {
		frames, n := store.ScanWALFrames(data[r.cursor.Off:])
		if len(frames) > 0 {
			if err := r.ingestLocked(frames); err != nil {
				return false, err
			}
			r.cursor.Off += int64(n)
			r.updateFloorLocked()
			progress = true
		}
		if int64(len(data)) > r.cursor.Off {
			if nextExists {
				return progress, fmt.Errorf("peb: replica: invalid tail in sealed wal segment %06d", seg)
			}
			return progress, nil // in-flight append; retry on next wake
		}
	}
	if nextExists {
		r.cursor = store.SegPos{Seg: seg + 1, Off: 0}
		r.updateFloorLocked()
		return true, nil
	}
	return progress, nil
}

// updateFloorLocked publishes the cursor as this replica's retention
// floor, releasing segments the tailer has fully consumed.
func (r *Replica) updateFloorLocked() {
	p := r.primary
	p.repMu.Lock()
	if _, ok := p.repFloors[r]; ok {
		p.repFloors[r] = r.cursor
	}
	p.repMu.Unlock()
}

// ingestLocked queues newly read frames and applies every record whose
// fate is decided, in log order — recovery's semantics, incrementally: the
// drain stops at the first prepared record whose outcome marker has not
// arrived in the tail yet.
func (r *Replica) ingestLocked(frames [][]byte) error {
	if err := r.log.add(frames); err != nil {
		return fmt.Errorf("peb: replica decode %w", err)
	}
	applied, err := r.log.drain(r.db, nil)
	if err != nil {
		return fmt.Errorf("peb: replica apply %w", err)
	}
	r.db.mu.Lock()
	if applied > 0 {
		r.db.refreshView()
	}
	// Publish the horizon only now — with the view refreshed — so a reader
	// that observes it is guaranteed a query view of at least that
	// freshness. (Aborted-only drains advance it without a refresh: the
	// view was never behind.)
	r.horizon.Store(r.db.walSeq)
	r.db.mu.Unlock()
	return nil
}

// Horizon returns the WAL sequence number of the last commit applied to
// the replica: every read served here reflects exactly the primary's
// history through this sequence.
func (r *Replica) Horizon() uint64 {
	return r.horizon.Load()
}

// Position returns the replica's log read cursor (segment, offset) — the
// retention floor it holds on the primary's log.
func (r *Replica) Position() store.SegPos {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cursor
}

// Err returns the sticky tail error, if the replica has stopped applying
// (segment corruption, an apply failure). A healthy replica returns nil.
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// CatchUp synchronously consumes everything the primary had appended at
// the moment of the call, returning the horizon afterwards. Records whose
// transaction outcome is still undecided remain stalled (the horizon
// stops just short of them) — they apply when the coordinator's marker
// lands.
func (r *Replica) CatchUp() (uint64, error) {
	r.primary.mu.RLock()
	var target store.SegPos
	if r.primary.wal != nil {
		target = r.primary.wal.Mark()
	}
	r.primary.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	for r.err == nil && r.cursor.Less(target) {
		progress, err := r.pollOnceLocked()
		if err != nil {
			r.err = err
			break
		}
		if !progress {
			// The target bytes exist (Mark precedes this call), so a
			// no-progress poll can only be a torn frame mid-write whose
			// completion is imminent; yield and retry.
			r.mu.Unlock()
			time.Sleep(50 * time.Microsecond)
			r.mu.Lock()
		}
	}
	if r.err != nil {
		return 0, r.err
	}
	return r.horizon.Load(), nil
}

// Snapshot returns a pinned, immutable read handle on the replica's
// state together with the WAL horizon it was cut at: the snapshot is the
// primary's exact committed state at that sequence number. The caller
// must Close the snapshot.
func (r *Replica) Snapshot() (*Snapshot, uint64, error) {
	// Hold r.mu so the tailer cannot advance the horizon between pinning
	// the view and reading the sequence.
	r.mu.Lock()
	defer r.mu.Unlock()
	snap, err := r.db.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	return snap, r.horizon.Load(), nil
}

// RangeQuery answers the paper's PRQ against the replica's current state
// (see DB.RangeQuery). The result reflects the primary's history through
// Horizon().
func (r *Replica) RangeQuery(issuer UserID, reg Region, t float64) ([]Object, error) {
	return r.db.RangeQuery(issuer, reg, t)
}

// NearestNeighbors answers the paper's PkNN against the replica's current
// state (see DB.NearestNeighbors).
func (r *Replica) NearestNeighbors(issuer UserID, x, y float64, k int, t float64) ([]Neighbor, error) {
	return r.db.NearestNeighbors(issuer, x, y, k, t)
}

// Close stops the tailer, releases the retention floor on the primary's
// log, and tears down the replica's state. Idempotent.
func (r *Replica) Close() error {
	r.closeOnce.Do(func() {
		close(r.stop)
		<-r.done
		if r.removeHook != nil {
			r.removeHook()
		}
		p := r.primary
		p.repMu.Lock()
		delete(p.repFloors, r)
		p.repMu.Unlock()
		r.closeErr = r.db.Close()
	})
	return r.closeErr
}
