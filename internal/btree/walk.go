package btree

import (
	"fmt"

	"repro/internal/store"
)

// WalkPages traverses the tree top-down and returns every reachable page
// id. Unlike Check it is defensive: it is meant to run against pages that
// may be arbitrary garbage (a corrupt or mismatched checkpoint), so every
// structural property is validated *before* a node is decoded — node type,
// entry count against the page capacity, child ids against maxPage, cycles,
// and leaf depth against the tree's height — and, once the walk is done,
// the leaves it met against the tree's LeafCount (the cost model's Nl,
// which a checkpoint's meta merely claims). A violation is reported as an
// error instead of an out-of-range panic deep in the node codec.
//
// maxPage, when non-zero, is the highest page id the backing store holds;
// any reference beyond it is corruption. Recovery runs the walk to
// validate a checkpoint's image before decoding it (core.OpenChecked), and
// the pages it returns are the image's: an allocated page outside them is
// dead.
func (t *Tree) WalkPages(maxPage store.PageID) ([]store.PageID, error) {
	return t.Reader().WalkPages(maxPage)
}

// WalkPages is the reachability walk on a fixed view of the tree (see
// Tree.WalkPages for the validation it performs): a Reader is pinned at
// its creation, so the walk observes exactly that image.
func (r *Reader) WalkPages(maxPage store.PageID) ([]store.PageID, error) {
	visited := make(map[store.PageID]bool)
	// The leaf count is as unverified as the root: it may size the result
	// only up to what the store can hold.
	hint := r.leafCount
	if maxPage > 0 {
		hint = min(hint, int(maxPage))
	}
	out := make([]store.PageID, 0, hint*2)
	leaves := 0
	var walk func(pid store.PageID, depth int) error
	walk = func(pid store.PageID, depth int) error {
		if pid == store.InvalidPageID {
			return fmt.Errorf("btree: invalid page id at depth %d", depth)
		}
		if maxPage > 0 && pid > maxPage {
			return fmt.Errorf("btree: page %d beyond store of %d pages", pid, maxPage)
		}
		if visited[pid] {
			return fmt.Errorf("btree: page %d reachable twice", pid)
		}
		if depth > r.height {
			return fmt.Errorf("btree: node %d at depth %d exceeds height %d", pid, depth, r.height)
		}
		visited[pid] = true
		out = append(out, pid)

		p, err := r.pool.Fetch(pid)
		if err != nil {
			return err
		}
		var children []store.PageID
		typ, n := pageType(p), pageCount(p)
		switch typ {
		case leafType:
			if n > LeafCapacity {
				err = fmt.Errorf("btree: leaf %d claims %d entries (cap %d)", pid, n, LeafCapacity)
			} else if depth != r.height {
				err = fmt.Errorf("btree: leaf %d at depth %d, height is %d", pid, depth, r.height)
			}
			leaves++
		case internalType:
			if n > InternalCapacity {
				err = fmt.Errorf("btree: internal %d claims %d separators (cap %d)", pid, n, InternalCapacity)
			} else if depth == r.height {
				err = fmt.Errorf("btree: internal %d at leaf depth %d", pid, depth)
			} else {
				children = append(children, readInternal(p).children...)
			}
		default:
			err = fmt.Errorf("btree: page %d has unknown type %d", pid, typ)
		}
		if uerr := r.pool.Unpin(pid, false); err == nil {
			err = uerr
		}
		if err != nil {
			return err
		}
		for _, c := range children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if r.height < 1 {
		return nil, fmt.Errorf("btree: invalid height %d", r.height)
	}
	if err := walk(r.root, 1); err != nil {
		return nil, err
	}
	if leaves != r.leafCount {
		return nil, fmt.Errorf("btree: walk met %d leaves, tree claims %d", leaves, r.leafCount)
	}
	return out, nil
}
