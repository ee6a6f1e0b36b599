package cq

import (
	"fmt"
	"sort"

	"repro/peb"
)

// Kind classifies a delta.
type Kind uint8

const (
	// Enter: the object joined the result set.
	Enter Kind = iota + 1
	// Leave: the object left the result set; Delta.Object is its last
	// known state.
	Leave
	// Update: the object remains in the result set with new state (a
	// movement update, or for PkNN a changed distance/rank).
	Update
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Enter:
		return "enter"
	case Leave:
		return "leave"
	case Update:
		return "update"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Delta is one change to a subscription's result set.
type Delta struct {
	Kind   Kind
	Object peb.Object
	// Dist is the neighbor distance at the subscription's evaluation time
	// (PkNN subscriptions only; zero for range subscriptions).
	Dist float64
	// Seq is the commit notification sequence that produced this delta.
	// All deltas of one commit share one Seq, so a consumer can group
	// them into atomic result transitions.
	Seq uint64
	// Dropped counts deltas the engine discarded (DropOldest overflow)
	// between the previously delivered delta and this one. A non-zero
	// value means the consumer's view has a gap: the stream is still
	// self-consistent from the engine's side, but the consumer should
	// resynchronize if it mirrors the full result set.
	Dropped int
}

// Result is a tracked result set: each member's state and, for PkNN, its
// distance (zero for range queries) — what a consumer that applied every
// delta emitted so far holds. Set and Replace are the one place that
// decides which deltas a result transition amounts to; the engine's
// per-object checks and re-runs and the sharded router's merge all track
// their results through them.
type Result map[peb.UserID]peb.Neighbor

// Set records that uid is now a member with state nb (in) or absent (!in)
// and emits the Enter, Leave or Update that makes of the tracked state —
// nothing when nothing changed.
func (r Result) Set(uid peb.UserID, nb peb.Neighbor, in bool, seq uint64, emit func(Delta)) {
	old, was := r[uid]
	switch {
	case in && !was:
		r[uid] = nb
		emit(Delta{Kind: Enter, Object: nb.Object, Dist: nb.Dist, Seq: seq})
	case !in && was:
		delete(r, uid)
		emit(Delta{Kind: Leave, Object: old.Object, Dist: old.Dist, Seq: seq})
	case in && nb != old:
		r[uid] = nb
		emit(Delta{Kind: Update, Object: nb.Object, Dist: nb.Dist, Seq: seq})
	}
}

// Replace makes res the tracked result and emits the difference: leaves
// first, sorted by user id, then enters and updates in res order, all
// tagged seq.
func (r Result) Replace(res []peb.Neighbor, seq uint64, emit func(Delta)) {
	stays := make(map[peb.UserID]struct{}, len(res))
	for _, nb := range res {
		stays[nb.Object.UID] = struct{}{}
	}
	var gone []peb.UserID
	for uid := range r {
		if _, ok := stays[uid]; !ok {
			gone = append(gone, uid)
		}
	}
	sort.Slice(gone, func(i, j int) bool { return gone[i] < gone[j] })
	for _, uid := range gone {
		r.Set(uid, peb.Neighbor{}, false, seq, emit)
	}
	for _, nb := range res {
		r.Set(nb.Object.UID, nb, true, seq, emit)
	}
}
