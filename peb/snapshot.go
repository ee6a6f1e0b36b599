package peb

import (
	"context"
	"iter"
	"sync"

	"repro/internal/bxtree"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/store"
)

// Snapshot is a pinned, immutable read handle over the database: every
// query it answers sees exactly the state that was committed when
// DB.Snapshot returned, no matter how many writes happen meanwhile. A
// client can therefore run a consistent multi-query session — page through
// a region, cross-reference a range query with kNN results, stream a long
// scan — without holding any lock across calls and without blocking
// writers for even a moment.
//
// Mechanics: creation seals the index (subsequent mutations copy-on-write
// instead of rewriting pages the snapshot can reach), deep-copies the
// in-memory key tables, and pins the policy store (policy mutations swap
// in a copy). Creation is O(population) for the table copy; each query
// afterwards is lock-free. Close releases the pin so superseded pages can
// be reclaimed — keep snapshots short-lived on write-heavy workloads, as
// every open snapshot retains the pages it can reach.
//
// A Snapshot is safe for concurrent use by multiple goroutines. Queries
// started after Close return ErrClosed; queries in flight when Close is
// called run to completion against intact pages (the page pin is released
// by the last of them to finish). Snapshots survive DB.Close only for
// memory-backed DBs; EncodePolicies/LoadPolicies rebuild the index, after
// which snapshots of file-backed DBs return disk errors (memory-backed
// snapshots keep working against the superseded tree).
type Snapshot struct {
	db       *DB
	gen      uint64
	version  uint64
	view     *core.View
	pol      *policyHandle // the handle policies was pinned on
	policies *policy.Store
	io       *store.IOCounter

	// mu guards the close/in-flight lifecycle: queries acquire a
	// reference, Close marks the snapshot closed, and whichever of them
	// is last — Close with no queries in flight, or the final query to
	// finish — releases the pin on superseded pages. Close therefore
	// never blocks, new queries after Close get ErrClosed, and in-flight
	// queries always complete against intact pages.
	mu       sync.Mutex
	active   int
	closed   bool
	released bool
}

// acquire registers an in-flight query; false means the snapshot closed.
func (s *Snapshot) acquire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.active++
	return true
}

// release ends an in-flight query, dropping the page pin if this was the
// last query on an already-closed snapshot.
func (s *Snapshot) release() {
	s.mu.Lock()
	s.active--
	last := s.closed && s.active == 0 && !s.released
	if last {
		s.released = true
	}
	s.mu.Unlock()
	if last {
		s.releasePin()
	}
}

// releasePin deregisters the snapshot so the DB can reclaim the pages it
// was holding alive.
func (s *Snapshot) releasePin() {
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	delete(s.db.snaps, s)
	s.pol.unpin(s.policies)
	if !s.db.closed {
		s.db.collectGarbage()
	}
}

// isClosed reports the close flag (for the cheap, page-free accessors).
func (s *Snapshot) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Snapshot returns a pinned, immutable read handle on the current state.
// The caller must Close it; an unclosed snapshot pins superseded index
// pages for the life of the DB.
func (db *DB) Snapshot() (*Snapshot, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	io := &store.IOCounter{}
	s := &Snapshot{
		db:       db,
		gen:      db.gen,
		version:  db.tree.Seal(),
		io:       io,
		pol:      db.pol,
		policies: db.policies,
	}
	s.view = db.tree.PinnedView(io)
	db.pol.pin(db.policies)
	db.snaps[s] = struct{}{}
	return s, nil
}

// Close releases the snapshot's pin on superseded pages. Close is
// idempotent and never blocks: queries started after Close return
// ErrClosed, while queries already in flight on other goroutines run to
// completion against intact pages — the pin is released by the last of
// them to finish.
func (s *Snapshot) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	last := s.active == 0 && !s.released
	if last {
		s.released = true
	}
	s.mu.Unlock()
	if last {
		s.releasePin()
	}
	return nil
}

// Size returns the number of indexed users at snapshot time.
func (s *Snapshot) Size() int {
	if s.isClosed() {
		return 0
	}
	return s.view.Size()
}

// LeafCount returns the number of B+-tree leaf pages at snapshot time (the
// cost model's Nl, Sec. 6).
func (s *Snapshot) LeafCount() int {
	if s.isClosed() {
		return 0
	}
	return s.view.LeafCount()
}

// IOStats returns the buffer statistics of this snapshot's queries alone:
// page requests issued through this handle, split into buffer hits and
// misses (the paper's I/O metric). Unlike DB.IOStats it is unaffected by
// concurrent sessions sharing the buffer pool.
func (s *Snapshot) IOStats() store.BufferStats { return s.io.Stats() }

// Lookup returns a user's movement state as of snapshot time.
func (s *Snapshot) Lookup(uid UserID) (Object, bool, error) {
	if !s.acquire() {
		return Object{}, false, ErrClosed
	}
	defer s.release()
	return s.view.Get(uid)
}

// Allows evaluates the policy predicate against the snapshot's pinned
// policies: whether viewer may see owner at (x, y) at time t under the
// policies in force at snapshot time.
func (s *Snapshot) Allows(owner, viewer UserID, x, y, t float64) bool {
	if s.isClosed() {
		return false
	}
	return s.policies.Allows(policy.UserID(owner), policy.UserID(viewer), x, y, t)
}

// RangeQuery returns the users inside r at time t whose policies (as of
// snapshot time) let issuer see them there and then.
func (s *Snapshot) RangeQuery(issuer UserID, r Region, t float64) ([]Object, error) {
	if !r.Valid() {
		return nil, &InvalidRegionError{Region: r}
	}
	if !s.acquire() {
		return nil, ErrClosed
	}
	defer s.release()
	w := bxtree.Window{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
	return s.view.PRQ(issuer, w, t)
}

// RangeQueryCtx streams the privacy-aware range query: qualified users are
// yielded as the index scan discovers them (scan order, not sorted), so a
// consumer can process, rate-limit, or abandon a large result without the
// DB materializing it. ctx is checked between index pages — canceling it
// ends the sequence within one page with ctx.Err() as the final element's
// error. Breaking out of the loop simply stops the scan.
//
//	for o, err := range snap.RangeQueryCtx(ctx, issuer, region, now) {
//	    if err != nil { ... }
//	    handle(o)
//	}
//
// Only Snapshot carries the streaming form: a DB-level stream would have
// to hold the read lock for as long as the consumer kept iterating,
// letting a slow consumer block every writer. A pinned snapshot takes no
// locks, so the consumer can take all day.
func (s *Snapshot) RangeQueryCtx(ctx context.Context, issuer UserID, r Region, t float64) iter.Seq2[Object, error] {
	return func(yield func(Object, error) bool) {
		if !r.Valid() {
			yield(Object{}, &InvalidRegionError{Region: r})
			return
		}
		if !s.acquire() {
			yield(Object{}, ErrClosed)
			return
		}
		defer s.release()
		w := bxtree.Window{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
		stopped := false
		err := s.view.PRQStream(ctx, issuer, w, t, func(o Object) bool {
			if !yield(o, nil) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil && !stopped {
			yield(Object{}, err)
		}
	}
}

// NearestNeighbors returns the k users nearest to (x, y) at time t visible
// to issuer under the snapshot's pinned policies, sorted by ascending
// distance.
func (s *Snapshot) NearestNeighbors(issuer UserID, x, y float64, k int, t float64) ([]Neighbor, error) {
	return s.NearestNeighborsCtx(context.Background(), issuer, x, y, k, t)
}

// NearestNeighborsCtx is NearestNeighbors with cancellation: ctx is checked
// between index pages, so an expensive search (large k, sparse friends)
// stops within one page of cancellation and returns ctx.Err(). A kNN
// result is a ranking, so there is no streaming form — a prefix would not
// be the k nearest.
func (s *Snapshot) NearestNeighborsCtx(ctx context.Context, issuer UserID, x, y float64, k int, t float64) ([]Neighbor, error) {
	if !s.acquire() {
		return nil, ErrClosed
	}
	defer s.release()
	return s.view.PKNNCtx(ctx, issuer, x, y, k, t)
}
