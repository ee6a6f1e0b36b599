package peb

import (
	"repro/internal/bxtree"
	"repro/internal/store"
)

// Defaults a router needs before any DB exists (matching what Open's
// zero-value defaults produce).
const (
	// DefaultSpaceSide is the side length of the default service space.
	DefaultSpaceSide = bxtree.DefaultSpaceSide
	// DefaultGridOrder is the space-filling-curve grid order every DB
	// currently indexes on (see DB.GridOrder).
	DefaultGridOrder = bxtree.DefaultGridOrder
)

// Hooks for shard routers (peb/sharded). A space-partitioned deployment
// runs one DB per shard and routes queries by space-filling-curve range;
// the router needs a few read-only facts about each shard — its configured
// space, the curve order its keys are computed on, how stale a stored
// position can be, and (during recovery) which users it holds. These
// accessors expose exactly that, so the router never reaches into
// internals.

// Bounds returns the square service space the DB indexes — [0, SpaceSide]
// on both axes. The zero Region is returned on a closed DB.
func (db *DB) Bounds() Region {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return Region{}
	}
	return db.policies.Space()
}

// GridOrder returns the order of the space-filling-curve grid the index
// linearizes locations on (the grid is 2^order cells per axis). A router
// partitioning by curve-value range must compute shard ranges on the same
// grid. Zero on a closed DB.
func (db *DB) GridOrder() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return 0
	}
	return db.tree.Config().Base.Grid.Order
}

// MotionSlack returns, in distance units, how far an object's true
// position at time t can be from the position it last reported: MaxSpeed
// times the largest |t − T| an update time T of a stored object can have,
// bounded through the labels of the partitions holding objects. A router
// that places each object by its reported position and prunes shards by
// geometry must enlarge every shard's region by its slack. The gap to the
// label times, by which the index enlarges its own windows, bounds the
// distance from the position a key is built from instead, and is not this
// bound. Zero on an empty or closed DB.
func (db *DB) MotionSlack(t float64) float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return 0
	}
	return db.view.UpdateGap(t) * db.opts.MaxSpeed
}

// MaxSpeed returns the configured object speed bound (Options.MaxSpeed
// after defaulting). Zero on a closed DB.
func (db *DB) MaxSpeed() float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return 0
	}
	return db.opts.MaxSpeed
}

// MaxUpdateInterval returns the configured ∆tmu — the longest a stored
// position may go without a refresh (Options.MaxUpdateInterval after
// defaulting). Zero on a closed DB.
func (db *DB) MaxUpdateInterval() float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return 0
	}
	return db.opts.MaxUpdateInterval
}

// MotionSlack is the Snapshot form of DB.MotionSlack, evaluated against the
// pinned partition picture.
func (s *Snapshot) MotionSlack(t float64) float64 {
	if !s.acquire() {
		return 0
	}
	defer s.release(store.BufferStats{})
	return s.view.UpdateGap(t) * s.db.opts.MaxSpeed
}

// Objects returns every indexed object, sorted by user id — the full
// movement state of this DB. Shard recovery enumerates each shard with it
// to rebuild routing state; it is O(population) and takes the read lock
// for the duration, so it is not a serving-path call.
func (db *DB) Objects() ([]Object, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	uids := db.view.UserIDs()
	out := make([]Object, 0, len(uids))
	for _, uid := range uids {
		o, ok, _, err := db.view.Get(uid)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, o)
		}
	}
	return out, nil
}
