package core

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"sync"

	"repro/internal/btree"
	"repro/internal/bxtree"
	"repro/internal/motion"
	"repro/internal/policy"
	"repro/internal/store"
)

// View is a read-only snapshot of a PEB-tree used to execute queries. The
// query executors (PRQ, Sec. 5.3; PkNN, Sec. 5.4) live on View, not on
// Tree, so the read path is structurally incapable of mutating index state:
// a View has no insert/delete/encode methods, its B+-tree access goes
// through a btree.Reader whose root linkage was copied out at view time,
// and everything it touches during a query is either immutable (the
// configuration), private to the query (result accumulators), or
// synchronized (buffer-pool bookkeeping).
//
// Lifetime: a View is coherent from the moment Tree.View() returns until
// the next mutation of that tree (Insert, Delete, SetSV) begins. The
// sequence-value, current-key, and partition tables are shared with the
// owning Tree rather than copied — copying them would make every write
// O(population) — so the caller must fence views from writers externally.
// peb.DB does exactly that: it refreshes its cached View while holding the
// write lock and queries the View under the read lock, giving every query
// a consistent snapshot of the latest committed state. Any number of
// goroutines may query one View (or many Views over one tree)
// concurrently.
type View struct {
	cfg      Config
	tree     *btree.Reader
	policies *policy.Store

	svEnc map[motion.UserID]uint64
	cur   map[motion.UserID]btree.KV
	parts *bxtree.PartitionTracker
}

// View returns a read-only snapshot of the tree's current state. The
// returned View is valid until the tree's next mutation.
func (t *Tree) View() *View {
	return t.ViewIO(nil)
}

// ViewIO is View with per-handle I/O attribution: page requests made
// through the returned view are additionally recorded into io (when
// non-nil), on top of the pool's global counters. peb.DB publishes its
// query view through this so query page visits are separable from
// write-path I/O.
func (t *Tree) ViewIO(io *store.IOCounter) *View {
	return &View{
		cfg:      t.cfg,
		tree:     t.tree.ReaderIO(io),
		policies: t.policies,
		svEnc:    t.svEnc,
		cur:      t.cur,
		parts:    t.parts,
	}
}

// PinnedView returns a View that stays coherent across later mutations
// without any external fencing: the in-memory tables are deep-copied
// (O(population)), the B+-tree linkage is pinned at the current version —
// the caller must Seal() the tree first so mutations copy-on-write rather
// than rewriting reachable pages — and every page request is additionally
// recorded into io (when non-nil) for per-handle I/O statistics.
//
// The policy store is shared by reference, not copied: the owner must treat
// it as immutable while pinned views exist (peb.DB does copy-on-write
// policy mutations). The view stays valid until the owner frees the pages
// retired after the pinning seal.
func (t *Tree) PinnedView(io *store.IOCounter) *View {
	svEnc := make(map[motion.UserID]uint64, len(t.svEnc))
	for uid, sv := range t.svEnc {
		svEnc[uid] = sv
	}
	cur := make(map[motion.UserID]btree.KV, len(t.cur))
	for uid, kv := range t.cur {
		cur[uid] = kv
	}
	return &View{
		cfg:      t.cfg,
		tree:     t.tree.Reader().WithIO(io),
		policies: t.policies,
		svEnc:    svEnc,
		cur:      cur,
		parts:    t.parts.Clone(),
	}
}

// Policies returns the policy store the view evaluates queries against.
func (v *View) Policies() *policy.Store { return v.policies }

// Config returns the tree configuration the view was taken under.
func (v *View) Config() Config { return v.cfg }

// Size returns the number of indexed objects at view time.
func (v *View) Size() int { return len(v.cur) }

// LeafCount returns the number of B+-tree leaf pages at view time (the
// cost model's Nl).
func (v *View) LeafCount() int { return v.tree.LeafCount() }

// UserIDs returns the id of every indexed object at view time, sorted
// ascending. Shard recovery uses it to rebuild the user→shard map.
func (v *View) UserIDs() []motion.UserID {
	out := make([]motion.UserID, 0, len(v.cur))
	for uid := range v.cur {
		out = append(out, uid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SV returns uid's registered fixed-point sequence value.
func (v *View) SV(uid motion.UserID) (uint64, bool) {
	sv, ok := v.svEnc[uid]
	return sv, ok
}

// Get returns uid's current object state.
func (v *View) Get(uid motion.UserID) (motion.Object, bool, error) {
	kv, ok := v.cur[uid]
	if !ok {
		return motion.Object{}, false, nil
	}
	payload, found, err := v.tree.Get(kv)
	if err != nil || !found {
		return motion.Object{}, found, err
	}
	return motion.DecodePayload(uid, payload), true, nil
}

// MaxGap returns the largest window-enlargement time gap |tq − tlab| over
// the partitions currently holding objects — the worst-case staleness of
// any stored position relative to tq. A shard router multiplies it by the
// maximum speed to bound how far an object can sit from the cell its index
// key (and therefore its shard assignment) was computed from. Zero when the
// view holds no objects.
func (v *View) MaxGap(tq float64) float64 {
	var max float64
	for _, pr := range v.parts.Active(tq) {
		if pr.Gap > max {
			max = pr.Gap
		}
	}
	return max
}

// friendTable is one query's working set: the issuer's grantors that this
// view's index holds. It answers the two questions a query asks of every
// entry on every page it fetches — is this user one the issuer may see at
// all, and has the scan met them before — before the payload is decoded or
// the policy store consulted: one bit test dismisses nearly every stranger,
// one binary search over a few dozen uids settles the rest. And it keeps,
// per search row, how many of the row's friends are still to be found, which
// is what the skip rule reads.
//
// Filtering on the table is exact, not a heuristic. policy.Store's grantor
// index holds every owner o with a relation o→issuer that some policy of o
// covers, and Store.Allows is false without one, so an entry outside the
// table could never have qualified. Grantors left out as non-resident have
// no entry in this index to be filtered.
type friendTable struct {
	friends []friend    // ascending uid
	rows    []friendRow // ascending sv: the rows of the search matrix
	bySV    []svAt      // build scratch
	// sig has bit uid&255 set for every friend: a clear bit proves a
	// stranger, a set one (some 8 % of strangers at 20 friends) proves
	// nothing.
	sig [4]uint64
	// cur is the cursor every leaf scan of the query runs on: a query
	// scans once per row and partition, and one row per friend is common.
	cur btree.Cursor
}

// friend is one resident grantor.
type friend struct {
	uid  motion.UserID
	row  int32 // index into rows
	seen bool  // the scan has delivered this user's entry
}

// friendRow is one distinct encoded sequence value among the friends
// (distinct users can quantize to the same value) and the number of its
// friends the scan has not met yet.
type friendRow struct {
	sv     uint64
	unseen int
}

// svAt is a friend's sequence value and index in friends.
type svAt struct {
	sv uint64
	at int32
}

// friendTablePool recycles tables for the queries that keep no other
// pooled state (PkNN's table lives in its pknnSearch).
var friendTablePool = sync.Pool{New: func() any { return new(friendTable) }}

// friendGroups fills ft with the issuer's grantors — "the set of users who
// may allow the query issuer to see their locations" (Upol, Sec. 5.3 step
// 2) — grouped into rows by encoded sequence value, ascending. Only
// grantors resident in this view's index become search rows: a grantor
// without a registered sequence value cannot appear in the index, and one
// without a current-key entry (v.cur, kept in lockstep with the B+-tree's
// entries) is not in it — never inserted, removed, or held by another
// shard. Such a row could never be located, so the skip rule would never
// retire it and both queries would search it to the edge of the space;
// dropping it bounds a query by the grantors this index holds. Only
// presence is consulted: using the entry's TID or ZV bits to aim the search
// would replace the paper's SV × ZV search matrix with a point lookup per
// friend.
func (v *View) friendGroups(issuer motion.UserID, ft *friendTable) {
	grantors := v.policies.Grantors(policy.UserID(issuer))
	// Sized once for every grantor: a table fresh from the pool grows in
	// one step, not by doubling.
	ft.friends = slices.Grow(ft.friends[:0], len(grantors))
	ft.rows = slices.Grow(ft.rows[:0], len(grantors))
	ft.bySV = slices.Grow(ft.bySV[:0], len(grantors))
	ft.sig = [4]uint64{}
	// Grantors arrive in uid order, the order claim searches.
	for _, g := range grantors {
		uid := motion.UserID(g)
		if uid == issuer {
			continue
		}
		sv, ok := v.svEnc[uid]
		if !ok {
			continue
		}
		if _, resident := v.cur[uid]; !resident {
			continue
		}
		ft.bySV = append(ft.bySV, svAt{sv: sv, at: int32(len(ft.friends))})
		ft.friends = append(ft.friends, friend{uid: uid})
		word, bit := sigSlot(uid)
		ft.sig[word] |= bit
	}
	slices.SortFunc(ft.bySV, func(a, b svAt) int { return cmp.Compare(a.sv, b.sv) })
	for _, p := range ft.bySV {
		if len(ft.rows) == 0 || ft.rows[len(ft.rows)-1].sv != p.sv {
			ft.rows = append(ft.rows, friendRow{sv: p.sv})
		}
		r := len(ft.rows) - 1
		ft.rows[r].unseen++
		ft.friends[p.at].row = int32(r)
	}
}

// sigSlot returns the word and the bit of friendTable.sig that stand for
// uid: bit uid&255 of the 256.
func sigSlot(uid motion.UserID) (word int, bit uint64) {
	return int(uid >> 6 & 3), 1 << (uid & 63)
}

// claim reports whether uid is a friend the scan meets for the first time,
// and marks them met. Every entry of every fetched leaf goes through it, and
// all but a few stop here.
func (ft *friendTable) claim(uid motion.UserID) bool {
	if word, bit := sigSlot(uid); ft.sig[word]&bit == 0 {
		return false
	}
	lo, hi := 0, len(ft.friends)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ft.friends[mid].uid < uid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ft.friends) {
		return false
	}
	f := &ft.friends[lo]
	if f.uid != uid || f.seen {
		return false
	}
	f.seen = true
	ft.rows[f.row].unseen--
	return true
}

// qualifies applies the policy predicate of Definitions 2–3: the candidate's
// exact position at tq must fall inside a policy region open to the issuer
// during tq. The location predicate (range window or kNN distance) is the
// caller's concern.
func (v *View) qualifies(candidate motion.Object, issuer motion.UserID, tq float64) bool {
	x, y := candidate.PositionAt(tq)
	return v.policies.Allows(policy.UserID(candidate.UID), policy.UserID(issuer), x, y, tq)
}

// scanRange delivers, from the entries with key in [loK, hiK], every
// friend in ft the query has not met before. The scan honors ctx between
// leaf pages; emit returning false stops it early.
func (v *View) scanRange(ctx context.Context, loK, hiK uint64, ft *friendTable, emit func(motion.Object) bool) error {
	lo := btree.KV{Key: loK, UID: 0}
	hi := btree.KV{Key: hiK, UID: ^uint32(0)}
	return v.tree.RangeScanCtx(ctx, lo, hi, func(kv btree.KV, p btree.Payload) bool {
		uid := motion.UserID(kv.UID)
		return !ft.claim(uid) || emit(motion.DecodePayload(uid, p))
	})
}

// scanLeafRange is scanRange over every entry on the leaf pages covering
// [loK, hiK] — a superset of scanRange's candidates at identical page I/O.
func (v *View) scanLeafRange(ctx context.Context, loK, hiK uint64, ft *friendTable, emit func(motion.Object) bool) error {
	lo := btree.KV{Key: loK, UID: 0}
	hi := btree.KV{Key: hiK, UID: ^uint32(0)}
	return v.tree.ScanLeavesOn(ctx, &ft.cur, lo, hi, func(kv btree.KV, p btree.Payload) bool {
		uid := motion.UserID(kv.UID)
		return !ft.claim(uid) || emit(motion.DecodePayload(uid, p))
	})
}
