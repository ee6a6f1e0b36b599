package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/bxtree"
	"repro/internal/motion"
	"repro/internal/store"
	"repro/internal/zcurve"
)

// Neighbor is one PkNN result; it reuses the Bx-tree's result shape.
type Neighbor = bxtree.Neighbor

// pknnSearch carries the state of one PkNN execution over the search matrix
// of Fig. 8: rows are the issuer's friends in ascending SV order, columns
// are window enlargement rounds, and each cell is the key range
// [TID ⊕ SV ⊕ ZVs, TID ⊕ SV ⊕ ZVe] for that friend and round.
type pknnSearch struct {
	v          *View
	ctx        context.Context
	issuer     motion.UserID
	qx, qy, tq float64
	rq         float64 // per-round radius increment (Dk/k)

	// friends is the issuer's resident grantors; its rows are the matrix
	// rows, and claiming a scanned entry in it is what "decoded and
	// policy-checked once" means.
	friends friendTable
	// parts is the active-partition list at tq, taken once per query: every
	// matrix cell visits the same partitions.
	parts []bxtree.PartitionRef
	// scanned[row·len(parts) + p] is the single, monotonically growing
	// key-range chain already scanned for that friend row and the p'th
	// active partition. Windows are all centered at the query point, so
	// their Z intervals form a chain and one interval per (row, partition)
	// suffices.
	scanned []scanChain
	// rowDone[row] is set once every friend in the row has been located
	// (the scans are leaf-opportunistic, so this usually happens on the
	// row's first visit); done rows are skipped thereafter — the paper's
	// skip rule, and the mechanism that bounds query cost by the number of
	// users related to the issuer (Sec. 6).
	rowDone []bool

	found map[motion.UserID]Neighbor // qualified candidates

	ds []float64 // kthDist scratch
}

// scanChain is the key-range chain one (row, partition) has scanned, if
// any.
type scanChain struct {
	iv  zcurve.Interval
	has bool
}

// pknnPool recycles search state across queries: the friend table, the
// per-cell interval chains, the candidate set, and the kthDist scratch are
// the query path's dominant allocations, and a steady query workload
// reuses them warm instead of re-growing them from empty every call.
// States are returned cleared (release does the clearing, so the
// GC-visible pool holds no found positions past the query; the friend
// table's cursor keeps the image of the last leaf it read, as the btree's
// pooled cursors do).
var pknnPool = sync.Pool{New: func() any { return &pknnSearch{} }}

// sizeRows readies the per-row state for the m rows of s.friends and the
// partitions of s.parts.
func (s *pknnSearch) sizeRows(m int) {
	n := m * len(s.parts)
	s.scanned = slices.Grow(s.scanned[:0], n)[:n]
	clear(s.scanned)
	if cap(s.rowDone) < m {
		s.rowDone = make([]bool, m)
	}
	s.rowDone = s.rowDone[:m]
	for i := range s.rowDone {
		s.rowDone[i] = false
	}
	if s.found == nil {
		s.found = make(map[motion.UserID]Neighbor, len(s.friends.friends))
	}
}

// release clears the search state and returns it to the pool. The cleared
// map keeps its buckets and the slices their arrays, which is the point:
// the next query on this state allocates nothing for them.
func (s *pknnSearch) release() {
	clear(s.found)
	s.ds = s.ds[:0]
	s.v = nil
	s.ctx = nil
	s.parts = nil
	pknnPool.Put(s)
}

// allRowsDone reports whether every friend row has been resolved.
func (s *pknnSearch) allRowsDone() bool {
	for _, d := range s.rowDone {
		if !d {
			return false
		}
	}
	return true
}

// refreshRow retires row r if the scans so far have met all its friends.
// It runs when a cell of the row has been scanned, not when a friend is
// met: a row emptied by another row's pages is retired at its own next
// visit, as the search order of Fig. 9 has it.
func (s *pknnSearch) refreshRow(r int) {
	if s.friends.rows[r].unseen == 0 {
		s.rowDone[r] = true
	}
}

// PKNN answers the privacy-aware k-nearest-neighbor query on the tree's
// current state. It is shorthand for t.View().PKNN(...); concurrent
// callers should take a View under their read lock instead.
func (t *Tree) PKNN(issuer motion.UserID, qx, qy float64, k int, tq float64) ([]Neighbor, error) {
	out, _, err := t.View().PKNN(issuer, qx, qy, k, tq)
	return out, err
}

// PKNN answers the privacy-aware k-nearest-neighbor query (Definition 3):
// the k users nearest to (qx, qy) at tq among those whose policies let
// issuer see them there and then, sorted by ascending distance, with the
// query's cost record.
func (v *View) PKNN(issuer motion.UserID, qx, qy float64, k int, tq float64) ([]Neighbor, store.BufferStats, error) {
	return v.PKNNCtx(context.Background(), issuer, qx, qy, k, tq)
}

// PKNNCtx is PKNN with cancellation: ctx is checked between leaf pages of
// every index scan the search issues, so a canceled context stops the query
// within one page and returns ctx.Err(). A kNN result is a ranking, so
// unlike PRQStream there is no incremental form — a partial result would
// not be the k nearest.
//
// Following Sec. 5.4, the search space is a matrix of friend SVs × window
// enlargement rounds, visited in triangular (anti-diagonal) order so cells
// that are close in either policy compatibility or space are checked early
// (Fig. 9). Each cell scans only the key ranges not already covered by
// earlier rounds for that friend. Once k qualified candidates are known, a
// final vertical pass re-checks every friend within the window clamped to
// twice the k'th candidate distance (Sec. 5.4's last step), which
// guarantees no closer qualified user was missed.
func (v *View) PKNNCtx(ctx context.Context, issuer motion.UserID, qx, qy float64, k int, tq float64) ([]Neighbor, store.BufferStats, error) {
	if k <= 0 {
		return nil, store.BufferStats{}, nil
	}
	if v.cfg.Layout == ZVFirst {
		ft := friendTablePool.Get().(*friendTable)
		defer friendTablePool.Put(ft)
		out, err := v.pknnZVFirst(ctx, ft, issuer, qx, qy, k, tq)
		return out, ft.cur.TakeCost(), err
	}
	s := pknnPool.Get().(*pknnSearch)
	defer s.release()
	out, err := s.run(ctx, v, issuer, qx, qy, k, tq)
	return out, s.friends.cur.TakeCost(), err
}

// run is PKNNCtx's search on the SV-first layout, with s as its state.
func (s *pknnSearch) run(ctx context.Context, v *View, issuer motion.UserID, qx, qy float64, k int, tq float64) ([]Neighbor, error) {
	v.friendGroups(issuer, &s.friends)
	m := len(s.friends.rows)
	if m == 0 {
		return nil, nil
	}
	s.parts = v.parts.Active(tq)
	s.sizeRows(m)
	s.v = v
	s.ctx = ctx
	s.issuer = issuer
	s.qx, s.qy, s.tq = qx, qy, tq
	s.rq = v.roundRadius(k)

	// The last useful column: once the (unenlarged) window covers the whole
	// space, later columns add nothing.
	coverCol := s.coverColumn()

	done := false
	visit := func(r, c int) (bool, error) {
		if err := s.scanCell(r, c); err != nil {
			return false, err
		}
		if len(s.found) >= k {
			if err := s.finalScan(k); err != nil {
				return false, err
			}
			return true, nil
		}
		// All friends located but fewer than k qualified: nothing left to
		// search — every possible result is already in hand.
		return s.allRowsDone(), nil
	}
	switch v.cfg.PKNNOrder {
	case ColumnMajor:
		// Ablation order: exhaust every friend per round before enlarging.
		for c := 0; c <= coverCol && !done; c++ {
			for r := 0; r < m; r++ {
				var err error
				if done, err = visit(r, c); err != nil {
					return nil, err
				}
				if done {
					break
				}
			}
		}
	default:
		// Triangular search order (Fig. 9): anti-diagonals, row 0 first.
		maxDiag := m - 1 + coverCol
		for d := 0; d <= maxDiag && !done; d++ {
			for r := 0; r <= d && r < m; r++ {
				c := d - r
				if c > coverCol {
					continue
				}
				var err error
				if done, err = visit(r, c); err != nil {
					return nil, err
				}
				if done {
					break
				}
			}
		}
	}

	out := make([]Neighbor, 0, len(s.found))
	for _, nb := range s.found {
		out = append(out, nb)
	}
	sortNeighbors(out)
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// roundRadius returns the per-round window radius increment rq = Dk/k
// (Sec. 5.4), with a floor that keeps degenerate estimates from stalling
// the search.
func (v *View) roundRadius(k int) float64 {
	L := v.cfg.Base.Grid.Side
	rq := bxtree.EstimateDk(k, v.Size(), L) / float64(k)
	if rq <= 0 || math.IsNaN(rq) || math.IsInf(rq, 0) {
		rq = L / 64
	}
	return rq
}

// coverColumn returns the smallest column index whose window covers the
// entire space from the query point.
func (s *pknnSearch) coverColumn() int {
	L := s.v.cfg.Base.Grid.Side
	r := math.Max(math.Max(s.qx, L-s.qx), math.Max(s.qy, L-s.qy))
	if r <= 0 {
		return 0
	}
	return int(math.Ceil(r/s.rq)) - 1
}

// cellInterval returns the single Z interval of the round-c window for
// partition pr — "the one interval formed by the minimum and maximum
// 1-dimensional values of the query range" (Sec. 5.4) — and whether the
// window intersects the space at all. Component-wise monotonicity of the
// Z-curve makes Encode(MinX, MinY) and Encode(MaxX, MaxY) the exact
// extremes over the rectangle.
func (s *pknnSearch) cellInterval(c int, pr bxtree.PartitionRef) (zcurve.Interval, bool) {
	radius := s.rq * float64(c+1)
	w := bxtree.Square(s.qx, s.qy, radius).Enlarge(s.v.cfg.Base.MaxSpeed * pr.Gap)
	rect, ok := s.v.cfg.Base.Grid.RectOf(w.MinX, w.MinY, w.MaxX, w.MaxY)
	if !ok {
		return zcurve.Interval{}, false
	}
	iv, err := s.v.cfg.Base.CoverInterval(rect)
	if err != nil {
		return zcurve.Interval{}, false
	}
	return iv, true
}

// scanCell scans matrix cell (row r, column c): friend group r's key range
// for the round-c window, minus ranges covered by earlier columns. Rows
// whose friends have all been located are skipped.
func (s *pknnSearch) scanCell(r, c int) error {
	if s.rowDone[r] {
		return nil
	}
	sv := s.friends.rows[r].sv
	for p, pr := range s.parts {
		iv, ok := s.cellInterval(c, pr)
		if !ok {
			continue
		}
		if err := s.scanDelta(r, p, sv, pr.TID, iv); err != nil {
			return err
		}
	}
	s.refreshRow(r)
	return nil
}

// scanDelta scans the parts of iv not yet covered for row r and the p'th
// partition, tid, and extends the covered chain. Intervals for a given row
// and partition are nested across columns, so the uncovered parts are at
// most two ranges.
func (s *pknnSearch) scanDelta(r, p int, sv, tid uint64, iv zcurve.Interval) error {
	chain := &s.scanned[r*len(s.parts)+p]
	prev := chain.iv
	var todo [2]zcurve.Interval
	n := 0
	switch {
	case !chain.has:
		todo[0], n = iv, 1
	default:
		if iv.Lo < prev.Lo {
			todo[n] = zcurve.Interval{Lo: iv.Lo, Hi: prev.Lo - 1}
			n++
		}
		if iv.Hi > prev.Hi {
			todo[n] = zcurve.Interval{Lo: prev.Hi + 1, Hi: iv.Hi}
			n++
		}
		// Keep the widest extent seen (the chain property guarantees
		// iv ⊇ prev or iv ⊆ prev; union handles both).
		if prev.Lo < iv.Lo {
			iv.Lo = prev.Lo
		}
		if prev.Hi > iv.Hi {
			iv.Hi = prev.Hi
		}
	}
	*chain = scanChain{iv: iv, has: true}
	for _, d := range todo[:n] {
		loK, hiK := s.v.cfg.SVRange(tid, sv, d.Lo, d.Hi)
		// Leaf-opportunistic: every entry on the fetched pages is
		// considered, so the row's friend is located the first time any
		// page of its SV band is read.
		if err := s.v.scanLeafRange(s.ctx, loK, hiK, &s.friends, s.consider); err != nil {
			return err
		}
	}
	return nil
}

// consider policy-checks a friend the scan has just met — each is met once
// — and records them if they qualify (the Add_to_result verification of
// Fig. 10). It never stops a scan.
func (s *pknnSearch) consider(o motion.Object) bool {
	if s.v.qualifies(o, s.issuer, s.tq) {
		s.found[o.UID] = Neighbor{Object: o, Dist: o.DistanceAt(s.tq, s.qx, s.qy)}
	}
	return true
}

// kthDist returns the distance of the k'th nearest qualified candidate.
func (s *pknnSearch) kthDist(k int) float64 {
	ds := slices.Grow(s.ds[:0], len(s.found))
	for _, nb := range s.found {
		ds = append(ds, nb.Dist)
	}
	s.ds = ds
	slices.Sort(ds)
	return ds[k-1]
}

// finalScan is the vertical pass of Sec. 5.4: with k candidates in hand,
// every friend's remaining range inside the window of radius d_k (the
// query square "with twice the distance to the k'th nearest candidate as
// its side length") is checked, so any unexamined closer user is found.
func (s *pknnSearch) finalScan(k int) error {
	dk := s.kthDist(k)
	for r, row := range s.friends.rows {
		if s.rowDone[r] {
			continue // the row's friends are all located and verified
		}
		for p, pr := range s.parts {
			w := bxtree.Square(s.qx, s.qy, dk).Enlarge(s.v.cfg.Base.MaxSpeed * pr.Gap)
			rect, ok := s.v.cfg.Base.Grid.RectOf(w.MinX, w.MinY, w.MaxX, w.MaxY)
			if !ok {
				continue
			}
			iv, err := s.v.cfg.Base.CoverInterval(rect)
			if err != nil {
				return err
			}
			if err := s.scanDelta(r, p, row.sv, pr.TID, iv); err != nil {
				return err
			}
		}
	}
	return nil
}

// pknnZVFirst answers PkNN on the ablation layout: the friend dimension
// cannot prune the scan, so windows are enlarged round by round scanning
// the full SV span, exactly like a privacy-unaware kNN with post-filtering.
func (v *View) pknnZVFirst(ctx context.Context, ft *friendTable, issuer motion.UserID, qx, qy float64, k int, tq float64) ([]Neighbor, error) {
	v.friendGroups(issuer, ft)
	if len(ft.rows) == 0 {
		return nil, nil
	}
	rq := v.roundRadius(k)
	L := v.cfg.Base.Grid.Side
	scanned := make(map[uint64]zcurve.Interval)
	found := make(map[motion.UserID]Neighbor)

	for round := 1; ; round++ {
		radius := rq * float64(round)
		w := bxtree.Square(qx, qy, radius)
		for _, pr := range v.parts.Active(tq) {
			ew := w.Enlarge(v.cfg.Base.MaxSpeed * pr.Gap)
			rect, ok := v.cfg.Base.Grid.RectOf(ew.MinX, ew.MinY, ew.MaxX, ew.MaxY)
			if !ok {
				continue
			}
			iv, err := v.cfg.Base.CoverInterval(rect)
			if err != nil {
				return nil, err
			}
			prev, has := scanned[pr.TID]
			var todo []zcurve.Interval
			if !has {
				todo = []zcurve.Interval{iv}
			} else {
				if iv.Lo < prev.Lo {
					todo = append(todo, zcurve.Interval{Lo: iv.Lo, Hi: prev.Lo - 1})
				}
				if iv.Hi > prev.Hi {
					todo = append(todo, zcurve.Interval{Lo: prev.Hi + 1, Hi: iv.Hi})
				}
				if prev.Lo < iv.Lo {
					iv.Lo = prev.Lo
				}
				if prev.Hi > iv.Hi {
					iv.Hi = prev.Hi
				}
			}
			scanned[pr.TID] = iv
			for _, d := range todo {
				loK, hiK := v.cfg.ZVRange(pr.TID, d.Lo, d.Hi)
				err := v.scanRange(ctx, loK, hiK, ft, func(o motion.Object) bool {
					if v.qualifies(o, issuer, tq) {
						found[o.UID] = Neighbor{Object: o, Dist: o.DistanceAt(tq, qx, qy)}
					}
					return true
				})
				if err != nil {
					return nil, err
				}
			}
		}
		within := 0
		for _, nb := range found {
			if nb.Dist <= radius {
				within++
			}
		}
		covered := w.MinX <= 0 && w.MinY <= 0 && w.MaxX >= L && w.MaxY >= L
		if within >= k || covered {
			break
		}
	}

	out := make([]Neighbor, 0, len(found))
	for _, nb := range found {
		out = append(out, nb)
	}
	sortNeighbors(out)
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// sortNeighbors orders by ascending distance, ties by user id.
func sortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.Object.UID, b.Object.UID)
	})
}
