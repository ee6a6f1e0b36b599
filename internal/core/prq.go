package core

import (
	"context"
	"fmt"

	"repro/internal/bxtree"
	"repro/internal/motion"
	"repro/internal/store"
)

// PRQ answers the privacy-aware range query on the tree's current state.
// It is shorthand for t.View().PRQ(...); concurrent callers should take a
// View under their read lock instead.
func (t *Tree) PRQ(issuer motion.UserID, w bxtree.Window, tq float64) ([]motion.Object, error) {
	out, _, err := t.View().PRQ(issuer, w, tq)
	return out, err
}

// PRQ answers the privacy-aware range query (Definition 2): all users whose
// position at tq lies inside w and whose privacy policy lets issuer see
// them there and then, with the query's cost record. It materializes the
// full result; use PRQStream for incremental delivery and cancellation.
func (v *View) PRQ(issuer motion.UserID, w bxtree.Window, tq float64) ([]motion.Object, store.BufferStats, error) {
	var out []motion.Object
	cost, err := v.PRQStream(context.Background(), issuer, w, tq, func(o motion.Object) bool {
		out = append(out, o)
		return true
	})
	return out, cost, err
}

// PRQStream is the streaming form of PRQ: qualified users are delivered to
// yield as the index scan discovers them, in scan order (not sorted), and
// ctx is checked between leaf pages, so a canceled context stops the query
// within one page and surfaces ctx.Err(). yield returning false ends the
// query early with a nil error. It returns the query's cost record: the
// page requests its scans made, however the query ended.
//
// Following Sec. 5.3, the search combines the location constraint (the
// enlarged window's Z-value intervals) with the policy constraint (the
// issuer's friend-list sequence values): for every friend SV and every Z
// interval, the key range [TID ⊕ SV ⊕ ZVs, TID ⊕ SV ⊕ ZVe] is scanned.
// Once a friend has been located, the remaining intervals formed by that
// friend's SV are skipped — a user has only one location.
func (v *View) PRQStream(ctx context.Context, issuer motion.UserID, w bxtree.Window, tq float64, yield func(motion.Object) bool) (store.BufferStats, error) {
	if !w.Valid() {
		return store.BufferStats{}, fmt.Errorf("core: invalid query window %v", w)
	}
	ft := friendTablePool.Get().(*friendTable)
	defer friendTablePool.Put(ft)
	err := v.prq(ctx, ft, issuer, w, tq, yield)
	return ft.cur.TakeCost(), err
}

// prq runs PRQStream's search with ft as its friend table and cursor.
func (v *View) prq(ctx context.Context, ft *friendTable, issuer motion.UserID, w bxtree.Window, tq float64, yield func(motion.Object) bool) error {
	v.friendGroups(issuer, ft)
	if len(ft.rows) == 0 {
		return nil
	}
	// Every friend the scans deliver is met exactly once: a user has only
	// one location, so the window and the policy are checked then or never.
	stopped := false
	visit := func(o motion.Object) bool {
		if x, y := o.PositionAt(tq); w.Contains(x, y) && v.qualifies(o, issuer, tq) {
			if !yield(o) {
				stopped = true
				return false
			}
		}
		return true
	}

	for _, pr := range v.parts.Active(tq) {
		ew := w.Enlarge(v.cfg.Base.MaxSpeed * pr.Gap)
		rect, ok := v.cfg.Base.Grid.RectOf(ew.MinX, ew.MinY, ew.MaxX, ew.MaxY)
		if !ok {
			continue
		}
		ivs, err := v.cfg.Base.DecomposeRect(rect)
		if err != nil {
			return err
		}
		if v.cfg.Layout == ZVFirst {
			// The ablation layout: with ZV above SV in the key, friend SVs
			// cannot prune the scan, so the whole window is scanned — the
			// full SV span per Z interval — and candidates are filtered
			// afterwards, which is exactly the weakness the paper's
			// SV-first ordering avoids.
			for _, iv := range ivs {
				loK, hiK := v.cfg.ZVRange(pr.TID, iv.Lo, iv.Hi)
				if err := v.scanRange(ctx, loK, hiK, ft, visit); err != nil || stopped {
					return err
				}
			}
			continue
		}
		for r := range ft.rows {
			// Skip rule: once every friend at this SV has been found, the
			// remaining intervals formed by it are skipped. The count is
			// read again after each scan, which may have emptied it.
			row := &ft.rows[r]
			for i := 0; i < len(ivs) && row.unseen > 0; i++ {
				loK, hiK := v.cfg.SVRange(pr.TID, row.sv, ivs[i].Lo, ivs[i].Hi)
				// Opportunistic leaf scan: every entry on a fetched page is
				// examined, so a friend stored on the page — even outside
				// this Z interval or SV band — is located at no extra I/O.
				if err := v.scanLeafRange(ctx, loK, hiK, ft, visit); err != nil || stopped {
					return err
				}
			}
		}
	}
	return nil
}
