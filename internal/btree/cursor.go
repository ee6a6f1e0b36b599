package btree

import (
	"sync"

	"repro/internal/store"
)

// pageImage is a query-private copy of one node page. The read path
// searches and iterates the stored bytes through the node codec instead of
// decoding them into slices first; the copy (one memmove) is what lets it
// drop the buffer-pool pin before anything else happens. Only the occupied
// prefix of the page — the header and count() entries — is copied (see
// load): the bytes past it belong to whatever the image held before.
type pageImage [store.PageSize]byte

// node returns the image as a node.
func (im *pageImage) node() node { return im[:] }

// load copies the header and entries of node page p into the image. A
// count beyond the node's capacity (a corrupt page) copies the whole page,
// no more.
func (im *pageImage) load(p *store.Page) {
	d := node(p.Data())
	copy(im[:], d[:min(headerSize+d.count()*d.entrySize(), len(d))])
}

// pathFrame is one level of a cursor's descent stack: the image of an
// internal page and the index of the child the descent took.
type pathFrame struct {
	image pageImage
	child int
}

// Cursor iterates tree entries in ascending key order. It holds the image
// of one leaf and the stack of internal page images on the path from the
// root, advancing to the next leaf by backtracking up the stack and
// descending the leftmost path of the next subtree — leaves carry no
// sibling pointers (they could not survive copy-on-write). Each internal
// page is fetched once per subtree traversal, so a full scan still costs
// one fetch per leaf plus a lower-order number of internal fetches.
//
// A page is pinned only while its bytes are copied into the cursor: at most
// one pin at a time, and none while the caller holds the cursor or runs a
// scan callback — a callback may block, or scan the same small pool itself.
//
// A cursor also keeps the cost record of the scans it runs: every page it
// is served counts as a buffer hit or a miss, as the pool counted it, and
// TakeCost hands the record to the query that owns the cursor.
//
// Cursors are created by Reader.Seek (or Tree.Seek, which takes a fresh
// Reader) and are only coherent while the pages they walk are stable: under
// the caller's read lock, or over sealed pages (see Reader). Using one
// across an unfenced mutation gives unspecified (but memory-safe) results.
type Cursor struct {
	r     *Reader
	stack []pathFrame
	leaf  pageImage
	n     int // entries on the leaf
	idx   int
	valid bool
	cost  store.BufferStats // Hits and Misses only
}

// cursorPool recycles cursors — some 4 KB per tree level — across the
// lookups and scans that do not hand theirs to the caller.
var cursorPool = sync.Pool{New: func() any { return new(Cursor) }}

func (r *Reader) acquireCursor() *Cursor {
	c := cursorPool.Get().(*Cursor)
	c.r = r
	return c
}

func (c *Cursor) release() {
	c.r = nil
	c.cost = store.BufferStats{}
	cursorPool.Put(c)
}

// TakeCost returns the page requests the cursor has been served since the
// last TakeCost, split into buffer hits and misses, and starts a new
// record.
func (c *Cursor) TakeCost() store.BufferStats {
	cost := c.cost
	c.cost = store.BufferStats{}
	return cost
}

// fetch pins a page and counts it on the cursor's record. A request that
// fails fails the query, and is not recorded.
func (c *Cursor) fetch(pid store.PageID) (*store.Page, error) {
	p, hit, err := c.r.pool.FetchHit(pid)
	if err != nil {
		return nil, err
	}
	if hit {
		c.cost.Hits++
	} else {
		c.cost.Misses++
	}
	return p, nil
}

// Seek positions a cursor at the first entry with composite key >= kv.
func (t *Tree) Seek(kv KV) (*Cursor, error) { return t.Reader().Seek(kv) }

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.valid && c.idx < c.n }

// Key returns the current composite key. Valid must be true.
func (c *Cursor) Key() KV { return c.leaf.node().leafKey(c.idx) }

// Payload returns the current payload. Valid must be true.
func (c *Cursor) Payload() Payload { return *c.leaf.node().leafPayload(c.idx) }

// Next advances to the following entry, loading the next leaf when the
// current one is exhausted.
func (c *Cursor) Next() error {
	if !c.Valid() {
		return nil
	}
	c.idx++
	if c.idx >= c.n {
		return c.advanceLeaf()
	}
	return nil
}

// seek positions the cursor at the first entry >= kv: a descent from the
// root, then as many following leaves as it takes to find an entry.
func (c *Cursor) seek(kv KV) error {
	if err := c.descendFromRoot(kv); err != nil {
		return err
	}
	c.idx, _ = c.leaf.node().searchLeaf(kv)
	c.valid = true
	if c.idx >= c.n {
		// kv is past this leaf; advance into the next one.
		return c.advanceLeaf()
	}
	return nil
}

// descendFromRoot starts a traversal: it empties the stack and descends to
// the leaf whose key range covers kv.
func (c *Cursor) descendFromRoot(kv KV) error {
	c.stack = c.stack[:0]
	return c.descend(c.r.root, kv, false)
}

// descend walks from pid down to a leaf, pushing one frame per internal
// page and leaving the leaf's image in the cursor. At each level it takes
// the child covering kv, or the first child when leftmost is set.
func (c *Cursor) descend(pid store.PageID, kv KV, leftmost bool) error {
	for {
		p, err := c.fetch(pid)
		if err != nil {
			return err
		}
		if pageType(p) != internalType {
			c.leaf.load(p)
			c.n, c.idx = c.leaf.node().count(), 0
			return c.r.pool.Unpin(pid, false)
		}
		// Reuse a frame left by an earlier descent: growing the slice
		// within its capacity costs no 4 KB clear.
		if len(c.stack) < cap(c.stack) {
			c.stack = c.stack[:len(c.stack)+1]
		} else {
			c.stack = append(c.stack, pathFrame{})
		}
		top := &c.stack[len(c.stack)-1]
		top.image.load(p)
		if err := c.r.pool.Unpin(pid, false); err != nil {
			return err
		}
		top.child = 0
		if !leftmost {
			top.child = top.image.node().childIndex(kv)
		}
		pid = top.image.node().child(top.child)
	}
}

// advanceLeaf loads following leaves until one with entries is found or the
// tree is exhausted, leaving the cursor positioned at the first entry.
func (c *Cursor) advanceLeaf() error {
	for {
		ok, err := c.nextLeaf()
		if err != nil {
			return err
		}
		if !ok {
			c.valid = false
			return nil
		}
		if c.n > 0 {
			return nil
		}
	}
}

// nextLeaf replaces the leaf image with the next leaf's in key order by
// backtracking up the descent stack — whose images still hold every
// sibling's page id, so no parent is fetched again. It reports false when
// no leaf follows.
func (c *Cursor) nextLeaf() (bool, error) {
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		top.child++
		if top.child > top.image.node().count() {
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		if err := c.descend(top.image.node().child(top.child), KV{}, true); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// RangeScan calls fn for every entry with lo <= key <= hi, in order. fn
// returning false stops the scan early.
func (t *Tree) RangeScan(lo, hi KV, fn func(kv KV, payload Payload) bool) error {
	return t.Reader().RangeScan(lo, hi, fn)
}

// ScanLeaves visits every leaf page holding keys in [lo, hi] and calls fn
// for every entry on those leaves; see Reader.ScanLeaves.
func (t *Tree) ScanLeaves(lo, hi KV, fn func(kv KV, payload Payload) bool) error {
	return t.Reader().ScanLeaves(lo, hi, fn)
}
