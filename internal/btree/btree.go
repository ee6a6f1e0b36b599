// Package btree implements a disk-based B+-tree over the paged store in
// internal/store. It is the common substrate of the Bx-tree (internal/bxtree)
// and the PEB-tree (internal/core): "The PEB-tree is based on the Bx-tree,
// which in turn is based on the B+-tree" (Sec. 5.2).
//
// Keys are composite (uint64 index key, uint32 user id); payloads are fixed
// 40-byte records. All node accesses go through the buffer pool, so query
// I/O cost is observable as buffer misses, matching the paper's metric.
//
// Concurrency follows a single-writer/multi-reader discipline: mutations
// (Insert, Delete) require exclusive access, while any number of goroutines
// may read concurrently through Reader views (the buffer pool synchronizes
// its own bookkeeping). Callers enforce the discipline externally — see
// peb.DB, which holds a write lock across mutations and a read lock across
// queries. Additionally, Seal (see txn.go) switches the tree into
// copy-on-write mode, under which a Reader pinned at seal time stays valid
// across later mutations with no locking at all — the basis of pinned
// snapshots.
package btree

import (
	"fmt"

	"repro/internal/store"
)

// Tree is a disk-based B+-tree.
type Tree struct {
	pool      *store.BufferPool
	root      store.PageID
	height    int // 1 = root is a leaf
	size      int // total entries
	leafCount int // total leaf pages (Nl in the cost model)

	// Copy-on-write state (txn.go). When sealed, pages not in fresh are
	// immutable; mutations write fresh pages and retire the old ones.
	sealed  bool
	mutated bool // mutations since the last Seal
	version uint64
	fresh   map[store.PageID]struct{}
	retired []store.PageID

	// txn is the open transaction (nil outside one), tx the state every
	// transaction reuses.
	txn *Txn
	tx  Txn
}

// New creates an empty tree whose nodes live in pool.
func New(pool *store.BufferPool) (*Tree, error) {
	p, err := pool.NewPage()
	if err != nil {
		return nil, fmt.Errorf("btree: allocate root: %w", err)
	}
	p.Data()[0] = leafType
	id := p.ID()
	if err := pool.Unpin(id, true); err != nil {
		return nil, err
	}
	return &Tree{pool: pool, root: id, height: 1, leafCount: 1}, nil
}

// Size returns the number of entries.
func (t *Tree) Size() int { return t.size }

// Height returns the number of levels (1 = single leaf).
func (t *Tree) Height() int { return t.height }

// LeafCount returns the number of leaf pages; the cost model's Nl.
func (t *Tree) LeafCount() int { return t.leafCount }

// Pool exposes the underlying buffer pool (for I/O statistics).
func (t *Tree) Pool() *store.BufferPool { return t.pool }

// Get returns the payload stored under kv.
func (t *Tree) Get(kv KV) (Payload, bool, error) {
	p, ok, _, err := t.Reader().Get(kv)
	return p, ok, err
}

// Insert stores payload under kv, replacing any existing entry with the
// same composite key.
func (t *Tree) Insert(kv KV, payload Payload) error {
	t.mutated = true
	newRoot, split, sep, right, replaced, err := t.insertRec(t.root, kv, &payload)
	if err != nil {
		return err
	}
	t.root = newRoot
	if !replaced {
		t.size++
	}
	if !split {
		return nil
	}
	// Grow a new root above the old one.
	p, err := t.allocPage()
	if err != nil {
		return fmt.Errorf("btree: allocate new root: %w", err)
	}
	root := node(p.Data())
	root[0] = internalType
	root.setChild(0, t.root)
	root.putSep(0, sep, right)
	root.setCount(1)
	rootID := p.ID()
	if err := t.pool.Unpin(rootID, true); err != nil {
		return err
	}
	t.root = rootID
	t.height++
	return nil
}

// insertRec descends to the leaf for kv and inserts, editing each node's
// page where it lies. newPid is the id the node lives at afterwards —
// under copy-on-write a modified node moves to a fresh page, and the
// caller repoints its child link. On overflow the node splits and the
// separator plus new right sibling are reported upward.
func (t *Tree) insertRec(pid store.PageID, kv KV, payload *Payload) (newPid store.PageID, split bool, sep KV, right store.PageID, replaced bool, err error) {
	p, nd, err := t.fetchNode(pid)
	if err != nil {
		return pid, false, KV{}, store.InvalidPageID, false, err
	}

	if nd.typ() == leafType {
		idx, exact := nd.searchLeaf(kv)
		c := nd.count()
		if !exact && c == LeafCapacity {
			newPid, sep, right, err = t.splitLeaf(pid, p, idx, kv, payload)
			return newPid, err == nil, sep, right, false, err
		}
		p, newPid, err = t.editable(pid, p, c)
		if err != nil {
			return pid, false, KV{}, store.InvalidPageID, false, err
		}
		leaf := node(p.Data())
		if exact {
			leaf.setCount(c)
		} else {
			leaf.open(idx)
		}
		leaf.putLeaf(idx, kv, payload)
		err = t.pool.Unpin(newPid, true)
		return newPid, false, KV{}, store.InvalidPageID, exact, err
	}

	// Internal node.
	ci := nd.childIndex(kv)
	child := nd.child(ci)
	// Release the parent while recursing; re-fetch to apply child changes.
	if err := t.pool.Unpin(pid, false); err != nil {
		return pid, false, KV{}, store.InvalidPageID, false, err
	}
	newChild, csplit, csep, cright, creplaced, err := t.insertRec(child, kv, payload)
	if err != nil {
		return pid, false, KV{}, store.InvalidPageID, false, err
	}
	if !csplit && newChild == child {
		// Nothing to record at this level.
		return pid, false, KV{}, store.InvalidPageID, creplaced, nil
	}

	p, nd, err = t.fetchNode(pid)
	if err != nil {
		return pid, false, KV{}, store.InvalidPageID, creplaced, err
	}
	// The child set cannot have changed (single-threaded), so ci is stable.
	c := nd.count()
	if csplit && c == InternalCapacity {
		newPid, sep, right, err = t.splitInternal(pid, p, ci, newChild, csep, cright)
		return newPid, err == nil, sep, right, creplaced, err
	}
	p, newPid, err = t.editable(pid, p, c)
	if err != nil {
		return pid, false, KV{}, store.InvalidPageID, creplaced, err
	}
	in := node(p.Data())
	in.setChild(ci, newChild)
	if csplit {
		in.open(ci)
		in.putSep(ci, csep, cright)
	} else {
		in.setCount(c)
	}
	err = t.pool.Unpin(newPid, true)
	return newPid, false, KV{}, store.InvalidPageID, creplaced, err
}

// splitLeaf inserts (kv, payload) at idx into the full leaf p, page pid, by
// splitting it (see split).
func (t *Tree) splitLeaf(pid store.PageID, p *store.Page, idx int, kv KV, payload *Payload) (store.PageID, KV, store.PageID, error) {
	var over overflow
	all := node(over[:])
	copy(all, node(p.Data()).prefix(LeafCapacity))
	all.open(idx)
	all.putLeaf(idx, kv, payload)
	return t.split(pid, p, all)
}

// splitInternal repoints child ci of the full internal node p, page pid, at
// newChild and inserts separator sep with right sibling right after it, by
// splitting the node (see split).
func (t *Tree) splitInternal(pid store.PageID, p *store.Page, ci int, newChild store.PageID, sep KV, right store.PageID) (store.PageID, KV, store.PageID, error) {
	var over overflow
	all := node(over[:])
	copy(all, node(p.Data()).prefix(InternalCapacity))
	all.setChild(ci, newChild)
	all.open(ci)
	all.putSep(ci, sep, right)
	return t.split(pid, p, all)
}

// split finishes a node split: all is node pid's content with one entry
// past its capacity, staged in an overflow image. The upper half is copied
// into a new right sibling and the lower half stays on the node's page. A
// leaf reports the sibling's first key as the separator; an internal node
// moves its middle separator up, the child after it becoming the sibling's
// leftmost. It reports the node's page afterwards, the separator and the
// sibling's page.
func (t *Tree) split(pid store.PageID, p *store.Page, all node) (store.PageID, KV, store.PageID, error) {
	c := all.count()
	mid := c / 2
	leaf := all.typ() == leafType
	first, sep, what := mid, KV{}, "leaf"
	if leaf {
		sep = all.leafKey(mid)
	} else {
		first, sep, what = mid+1, all.sep(mid), "internal"
	}
	rp, err := t.allocPage()
	if err != nil {
		_ = t.pool.Unpin(pid, false)
		return pid, KV{}, store.InvalidPageID, fmt.Errorf("btree: allocate %s: %w", what, err)
	}
	r := node(rp.Data())
	r[0] = all.typ()
	copy(r[headerSize:], all.entries(first, c))
	r.setCount(c - first)
	if !leaf {
		r.setChild(0, all.child(mid+1))
	}
	right := rp.ID()
	if err := t.pool.Unpin(right, true); err != nil {
		_ = t.pool.Unpin(pid, false)
		return pid, KV{}, store.InvalidPageID, err
	}
	p, newPid, err := t.redirect(pid, p)
	if err != nil {
		return pid, KV{}, store.InvalidPageID, err
	}
	left := node(p.Data())
	copy(left, all.prefix(mid))
	left.setCount(mid)
	if leaf {
		t.leafCount++
	}
	return newPid, sep, right, t.pool.Unpin(newPid, true)
}

// fetchNode pins node pid for an edit. A page that is neither a leaf nor an
// internal node, or counts more entries than its kind holds, is refused:
// the edits index entries by the count.
func (t *Tree) fetchNode(pid store.PageID) (*store.Page, node, error) {
	p, err := t.pool.Fetch(pid)
	if err != nil {
		return nil, nil, err
	}
	nd := node(p.Data())
	capacity := LeafCapacity
	switch nd.typ() {
	case leafType:
	case internalType:
		capacity = InternalCapacity
	default:
		_ = t.pool.Unpin(pid, false)
		return nil, nil, fmt.Errorf("btree: page %d has unknown type %d", pid, nd.typ())
	}
	if c := nd.count(); c > capacity {
		_ = t.pool.Unpin(pid, false)
		return nil, nil, fmt.Errorf("btree: page %d claims %d entries (cap %d)", pid, c, capacity)
	}
	return p, nd, nil
}
