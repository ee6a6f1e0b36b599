package btree

import (
	"context"

	"repro/internal/store"
)

// Reader is a read-only view of a Tree, fixed at the moment Reader() was
// called: the root linkage and counters are copied out, so a Reader never
// observes a half-applied root split or a torn size update. All lookups and
// scans live on Reader; Tree's own read methods delegate to a fresh one.
//
// Any number of goroutines may use Readers (or one Reader) concurrently —
// page accesses go through the buffer pool, which synchronizes its own
// bookkeeping — PROVIDED the pages the Reader can reach are not mutated
// meanwhile. There are two ways to guarantee that:
//
//   - Fencing: hold a read lock across every Reader use and a write lock
//     across Insert/Delete (peb.DB's default query path). A Reader taken
//     before an unsealed mutation is invalid once the mutation starts.
//   - Sealing: take the Reader right after Tree.Seal(). Sealed pages are
//     never rewritten in place — mutations copy-on-write — so the Reader
//     stays valid across later mutations with no locking, until its pages
//     are freed (the owner must keep retired pages alive while the Reader
//     is in use). This is how pinned snapshots work.
type Reader struct {
	pool      *store.BufferPool
	root      store.PageID
	height    int
	size      int
	leafCount int
	io        *store.IOCounter // optional per-handle stats sink
}

// Reader returns a read-only view of the tree's current state.
func (t *Tree) Reader() *Reader {
	return &Reader{pool: t.pool, root: t.root, height: t.height, size: t.size, leafCount: t.leafCount}
}

// ReaderIO is Reader with the per-handle I/O sink attached at creation —
// one allocation instead of Reader().WithIO's two, for owners that build
// a counted reader on every view republish.
func (t *Tree) ReaderIO(c *store.IOCounter) *Reader {
	r := t.Reader()
	r.io = c
	return r
}

// WithIO returns a copy of the Reader that additionally records every page
// request's hit/miss outcome into c. The pool's global counters are
// unaffected. Used for per-snapshot I/O statistics.
func (r *Reader) WithIO(c *store.IOCounter) *Reader {
	nr := *r
	nr.io = c
	return &nr
}

// Size returns the number of entries at view time.
func (r *Reader) Size() int { return r.size }

// Height returns the number of levels at view time (1 = single leaf).
func (r *Reader) Height() int { return r.height }

// LeafCount returns the number of leaf pages at view time.
func (r *Reader) LeafCount() int { return r.leafCount }

// Pool exposes the underlying buffer pool (for I/O statistics).
func (r *Reader) Pool() *store.BufferPool { return r.pool }

// fetch pins a page, routing the access through the per-handle counter.
func (r *Reader) fetch(pid store.PageID) (*store.Page, error) {
	return r.pool.FetchCounted(pid, r.io)
}

// Get returns the payload stored under kv.
func (r *Reader) Get(kv KV) (Payload, bool, error) {
	c := r.acquireCursor()
	defer c.release()
	if err := c.descendFromRoot(kv); err != nil {
		return Payload{}, false, err
	}
	idx, ok := c.leaf.searchLeaf(kv)
	if !ok {
		return Payload{}, false, nil
	}
	return *c.leaf.leafPayload(idx), true, nil
}

// Seek positions a cursor at the first entry with composite key >= kv.
func (r *Reader) Seek(kv KV) (*Cursor, error) {
	c := &Cursor{r: r}
	if err := c.seek(kv); err != nil {
		return nil, err
	}
	return c, nil
}

// RangeScan calls fn for every entry with lo <= key <= hi, in order. fn
// returning false stops the scan early.
func (r *Reader) RangeScan(lo, hi KV, fn func(kv KV, payload Payload) bool) error {
	return r.RangeScanCtx(context.Background(), lo, hi, fn)
}

// RangeScanCtx is RangeScan with cancellation: ctx is checked every time
// the scan crosses onto a new leaf page, so a slow or unbounded scan stops
// within one page of ctx being canceled and returns ctx.Err().
func (r *Reader) RangeScanCtx(ctx context.Context, lo, hi KV, fn func(kv KV, payload Payload) bool) error {
	if hi.Less(lo) {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c := r.acquireCursor()
	defer c.release()
	if err := c.seek(lo); err != nil {
		return err
	}
	for c.Valid() {
		kv := c.Key()
		if hi.Less(kv) {
			return nil
		}
		if !fn(kv, c.Payload()) {
			return nil
		}
		if c.idx == c.n-1 { // about to cross onto the next leaf
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := c.Next(); err != nil {
			return err
		}
	}
	return nil
}

// ScanLeaves visits every leaf page holding keys in [lo, hi] and calls fn
// for EVERY entry on those leaves, including entries outside the range on
// the boundary leaves. The page fetches are identical to RangeScan's; the
// extra entries are free because their pages are already in memory.
//
// Query algorithms use this to examine candidates opportunistically: once
// a page holding a friend's key range has been paid for, every user stored
// on it can be checked at no additional I/O — the mechanism behind the
// paper's "once a candidate user is found, the remaining search intervals
// formed by this user's SV value are skipped" rule.
func (r *Reader) ScanLeaves(lo, hi KV, fn func(kv KV, payload Payload) bool) error {
	var c Cursor
	return r.ScanLeavesOn(context.Background(), &c, lo, hi, fn)
}

// ScanLeavesOn is ScanLeaves with cancellation, checked between leaf pages
// like RangeScanCtx, on a cursor the caller keeps — a zero Cursor will do —
// so that a query issuing many scans reuses one cursor. The cursor serves
// one scan at a time, and keeps no reference to r afterwards.
func (r *Reader) ScanLeavesOn(ctx context.Context, c *Cursor, lo, hi KV, fn func(kv KV, payload Payload) bool) error {
	if hi.Less(lo) {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.r = r
	defer func() { c.r = nil }()
	// Descend to the leaf covering lo (same page trajectory as Seek).
	if err := c.descendFromRoot(lo); err != nil {
		return err
	}
	for {
		covered := false // does this leaf hold any key > hi?
		for i := 0; i < c.n; i++ {
			kv := c.leaf.leafKey(i)
			if hi.Less(kv) {
				covered = true
			}
			if !fn(kv, *c.leaf.leafPayload(i)) {
				return nil
			}
		}
		if covered {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		ok, err := c.nextLeaf()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}
