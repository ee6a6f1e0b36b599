package cq

import (
	"time"

	"repro/peb"
)

// onCommit is the engine's commit hook: it runs inside the DB's commit
// critical section, so everything here is bounded work over the touched
// set — no index scans on the steady path, no blocking sends, no locks
// beyond e.mu (which no query path takes).
func (e *Engine) onCommit(info peb.CommitInfo, cv *peb.CommitView) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || len(e.subs) == 0 {
		return
	}
	start := time.Now()
	defer func() { e.delta.ObserveDuration(time.Since(start)) }()
	e.stats.Commits++
	e.stats.Naive += uint64(e.grantorLinks)
	if info.PolicyChange || info.Rebuild {
		// Grants and relation changes flip visibility for objects the
		// commit never touched; incremental evaluation over the touched
		// set is unsound, so every subscription rescans. Rebuilds rescan
		// too — their diff is empty (encoding changes clustering, not
		// results) but the rescan revalidates grantor sets for free.
		for _, s := range e.subs {
			if s.canceled {
				continue
			}
			e.rescanLocked(s, cv, info.Seq)
		}
		e.reapLocked()
		return
	}
	for i := range info.Touched {
		tc := &info.Touched[i]
		for _, s := range e.byGrantor[tc.UID] {
			if s.canceled {
				continue
			}
			if s.K > 0 {
				e.evalKNNTouchLocked(s, cv, tc, info.Seq)
			} else {
				e.evalRangeTouchLocked(s, cv, tc, info.Seq)
			}
		}
	}
	e.reapLocked()
}

// outside reports whether state o provably lies outside the
// subscription's enlarged region: its stored position's Hilbert cell is
// covered by none of the precomputed intervals, and the state honors the
// speed and freshness bounds the enlargement slack assumes. A nil state
// (absent from the index) is trivially outside.
func (e *Engine) outside(s *sub, o *peb.Object) bool {
	if o == nil {
		return true
	}
	if !s.prunable {
		return false
	}
	if o.Speed() > e.maxSpeed {
		return false
	}
	gap := s.T - o.T
	if gap < 0 {
		gap = -gap
	}
	if gap > e.maxUI {
		return false
	}
	return !s.ivs.Contains(e.grid.HilbertValue(o.X, o.Y))
}

// evalRangeTouchLocked re-evaluates one range subscription against one
// touched object: prune by curve intervals, then the exact membership
// predicate on the post-commit state, then a delta iff the result set
// changed. Caller holds e.mu inside a commit notification.
func (e *Engine) evalRangeTouchLocked(s *sub, cv *peb.CommitView, tc *peb.CommitTouch, seq uint64) {
	if e.outside(s, tc.Prev) && e.outside(s, tc.Cur) {
		// Not a member before, not a member after: no delta, no exact
		// check. The invariant that s.cur never holds a pruned object
		// makes the skip sound.
		e.stats.Pruned++
		return
	}
	e.stats.Evaluated++
	var nb peb.Neighbor
	is := false
	if tc.Cur != nil {
		nb.Object = *tc.Cur
		is = cv.Member(s.Issuer, s.Region, nb.Object, s.T)
	}
	s.cur.Set(tc.UID, nb, is, seq, s.emit)
}

// kthDist returns the current k'th neighbor distance, or +inf while the
// result holds fewer than k objects (anything could enter).
func (s *sub) kthDist() (float64, bool) {
	if len(s.cur) < s.K {
		return 0, false
	}
	max := 0.0
	for _, nb := range s.cur {
		if nb.Dist > max {
			max = nb.Dist
		}
	}
	return max, true
}

// evalKNNTouchLocked decides whether one touched object can change a PkNN
// subscription's result — it is in the result now, or its new state could
// place at or before the current k'th distance — and if so re-runs the
// query once through the index and emits the diff. Caller holds e.mu.
func (e *Engine) evalKNNTouchLocked(s *sub, cv *peb.CommitView, tc *peb.CommitTouch, seq uint64) {
	_, in := s.cur[tc.UID]
	affected := in
	if !affected && tc.Cur != nil {
		kth, full := s.kthDist()
		// <= not <: at equal distance the (Dist, UID) order can still
		// admit the touched object; the re-run decides exactly.
		affected = !full || tc.Cur.DistanceAt(s.T, s.X, s.Y) <= kth
	}
	e.stats.Evaluated++ // the affected-check itself
	if !affected {
		return
	}
	e.rerunLocked(s, cv, seq)
}

// run evaluates the subscription's query against the commit view. A range
// result carries zero distances.
func (s *sub) run(cv *peb.CommitView) ([]peb.Neighbor, error) {
	if s.K > 0 {
		return cv.NearestNeighbors(s.Issuer, s.X, s.Y, s.K, s.T)
	}
	objs, err := cv.RangeQuery(s.Issuer, s.Region, s.T)
	res := make([]peb.Neighbor, len(objs))
	for i, o := range objs {
		res[i].Object = o
	}
	return res, err
}

// rerunLocked re-runs a subscription through the index and emits the diff
// against its tracked result. Caller holds e.mu.
func (e *Engine) rerunLocked(s *sub, cv *peb.CommitView, seq uint64) {
	res, err := s.run(cv)
	if err != nil {
		e.cancelLocked(s, err)
		return
	}
	e.stats.Evaluated += uint64(len(s.grantors))
	s.cur.Replace(res, seq, s.emit)
}

// rescanLocked is the policy-change fallback: recompute the grantor set,
// re-run the full query once, emit the diff. Caller holds e.mu.
func (e *Engine) rescanLocked(s *sub, cv *peb.CommitView, seq uint64) {
	e.stats.Rescans++
	e.setGrantorsLocked(s, cv.Grantors(s.Issuer))
	e.rerunLocked(s, cv, seq)
}

// cancelLocked ends a subscription from inside a notification or a
// registration: on a false verdict from its deliver (err nil), or on an
// evaluation error, which end reports. Map removal is deferred to
// reapLocked so the caller may still be iterating byGrantor. Caller holds
// e.mu.
func (e *Engine) cancelLocked(s *sub, err error) {
	if s.canceled {
		return
	}
	s.canceled = true
	if err != nil {
		s.end(err)
	}
	e.reap = append(e.reap, s)
}

// reapLocked unregisters subscriptions canceled during the current
// notification. Caller holds e.mu.
func (e *Engine) reapLocked() {
	if len(e.reap) == 0 {
		return
	}
	for _, s := range e.reap {
		e.removeLocked(s)
	}
	e.reap = e.reap[:0]
}
