package sharded

import (
	"repro/internal/zcurve"
	"repro/peb"
)

// Snapshot is a consistent cut of the whole sharded database: one pinned
// peb.Snapshot per shard, all taken inside a single barrier section, so
// the set reflects one moment of the global history — no cross-shard batch
// is ever half-visible. Queries scatter-gather over the pinned shards
// exactly like the live DB's, without taking any lock; writers proceed
// concurrently the moment Snapshot returns.
//
// The topology is captured with the cut: a split or merge that lands after
// the pin changes the live DB's routing but not the snapshot's, whose
// pinned shards still hold every object exactly where the cut saw it.
type Snapshot struct {
	grid   zcurve.Grid
	covers []zcurve.Interval
	snaps  []*peb.Snapshot
}

// Snapshot pins a consistent cut. The barrier it takes is brief — one
// in-memory pin per shard, no I/O — but it does drain in-flight routed
// writes, the cost of cross-shard consistency. The caller must Close the
// snapshot; an unclosed snapshot pins superseded pages in every shard.
func (db *DB) Snapshot() (*Snapshot, error) {
	db.smu.Lock()
	defer db.smu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	s := &Snapshot{
		grid:   db.grid,
		covers: append([]zcurve.Interval(nil), db.covers...),
		snaps:  make([]*peb.Snapshot, len(db.shards)),
	}
	for i, shard := range db.shards {
		snap, err := shard.Snapshot()
		if err != nil {
			for _, taken := range s.snaps[:i] {
				taken.Close()
			}
			return nil, err
		}
		s.snaps[i] = snap
	}
	return s, nil
}

// Close releases every shard's pin. Idempotent.
func (s *Snapshot) Close() error {
	var firstErr error
	for _, snap := range s.snaps {
		if err := snap.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Size returns the number of indexed users at snapshot time (the cut is
// consistent, so no user is counted in two shards).
func (s *Snapshot) Size() int {
	total := 0
	for _, snap := range s.snaps {
		total += snap.Size()
	}
	return total
}

// Lookup returns a user's movement state as of snapshot time.
func (s *Snapshot) Lookup(uid UserID) (Object, bool, error) {
	for _, snap := range s.snaps {
		o, ok, err := snap.Lookup(uid)
		if err != nil {
			return Object{}, false, err
		}
		if ok {
			return o, true, nil
		}
	}
	return Object{}, false, nil
}

// Allows evaluates the policy predicate against the snapshot's pinned
// policies.
func (s *Snapshot) Allows(owner, viewer UserID, x, y, t float64) bool {
	return s.snaps[0].Allows(owner, viewer, x, y, t)
}

// RangeQuery answers the privacy-aware range query against the cut,
// scatter-gathering over the pinned shards with the same routing as the
// live DB (results sorted by user id).
func (s *Snapshot) RangeQuery(issuer UserID, r Region, t float64) ([]Object, error) {
	if !r.Valid() {
		return nil, &peb.InvalidRegionError{Region: r}
	}
	idxs := routeRegionOver(s.grid, s.covers, r, t, s.slack)
	return gatherRange(idxs, issuer, r, t, func(i int) querier { return s.snaps[i] })
}

// NearestNeighbors answers the privacy-aware k-nearest-neighbor query
// against the cut via the same probe-then-wave gather as the live DB.
func (s *Snapshot) NearestNeighbors(issuer UserID, x, y float64, k int, t float64) ([]Neighbor, error) {
	return gatherKNN(knnOrderOver(s.grid, s.covers, x, y, t, s.slack), issuer, x, y, k, t,
		func(i int) querier { return s.snaps[i] })
}

// slack is the per-shard motion slack evaluated against the pinned
// partition pictures.
func (s *Snapshot) slack(i int, t float64) float64 {
	return s.snaps[i].MotionSlack(t)
}
