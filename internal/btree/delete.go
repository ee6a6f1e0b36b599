package btree

import (
	"fmt"

	"repro/internal/store"
)

// Delete removes the entry with the given composite key. It returns false
// if no such entry exists. Underfull nodes are rebalanced by redistribution
// with a sibling or by merging, and the root collapses when it has a single
// child, so the tree keeps B+-tree occupancy invariants under the heavy
// delete+insert churn of moving-object updates.
func (t *Tree) Delete(kv KV) (bool, error) {
	t.mutated = true
	newRoot, found, _, err := t.deleteRec(t.root, kv)
	if err != nil {
		return false, err
	}
	t.root = newRoot
	if found {
		t.size--
	}
	// Collapse the root while it is an internal node with one child.
	for t.height > 1 {
		p, err := t.pool.Fetch(t.root)
		if err != nil {
			return found, err
		}
		root := node(p.Data())
		if root.typ() != internalType || root.count() > 0 {
			if err := t.pool.Unpin(t.root, false); err != nil {
				return found, err
			}
			break
		}
		child := root.child(0)
		if err := t.discardPinned(t.root); err != nil {
			return found, err
		}
		t.root = child
		t.height--
	}
	return found, nil
}

// deleteRec removes kv from the subtree rooted at pid, editing each node's
// page where it lies; only a rebalance (below) decodes nodes. newPid is
// the id the node lives at afterwards (copy-on-write may move it).
// underflow reports whether the node dropped below minimum occupancy; the
// caller rebalances.
func (t *Tree) deleteRec(pid store.PageID, kv KV) (newPid store.PageID, found, underflow bool, err error) {
	p, nd, err := t.fetchNode(pid)
	if err != nil {
		return pid, false, false, err
	}

	if nd.typ() == leafType {
		idx, exact := nd.searchLeaf(kv)
		if !exact {
			err = t.pool.Unpin(pid, false)
			return pid, false, false, err
		}
		c := nd.count()
		p, newPid, err = t.editable(pid, p, c)
		if err != nil {
			return pid, false, false, err
		}
		leaf := node(p.Data())
		leaf.remove(idx)
		if newPid != pid {
			// A fresh page is zero past its entries, as writeLeaf leaves it.
			clear(leaf.entries(c-1, c))
		}
		err = t.pool.Unpin(newPid, true)
		return newPid, true, c-1 < minLeafEntries, err
	}

	ci := nd.childIndex(kv)
	child := nd.child(ci)
	if err := t.pool.Unpin(pid, false); err != nil {
		return pid, false, false, err
	}

	newChild, found, childUnder, err := t.deleteRec(child, kv)
	if err != nil {
		return pid, false, false, err
	}
	if !childUnder && newChild == child {
		return pid, found, false, nil
	}

	p, nd, err = t.fetchNode(pid)
	if err != nil {
		return pid, found, false, err
	}
	if !childUnder {
		c := nd.count()
		p, newPid, err = t.editable(pid, p, c)
		if err != nil {
			return pid, found, false, err
		}
		in := node(p.Data())
		in.setChild(ci, newChild)
		in.setCount(c)
		err = t.pool.Unpin(newPid, true)
		return newPid, found, c < minInternalEntries, err
	}
	in := readInternal(p)
	in.children[ci] = newChild
	if err := t.rebalanceChild(&in, ci); err != nil {
		_ = t.pool.Unpin(pid, false)
		return pid, found, false, err
	}
	p, newPid, err = t.redirect(pid, p)
	if err != nil {
		return pid, found, false, err
	}
	writeInternal(p, in)
	underflow = len(in.seps) < minInternalEntries
	err = t.pool.Unpin(newPid, true)
	return newPid, found, underflow, err
}

// rebalanceChild restores occupancy of in.children[ci] by redistributing
// entries with an adjacent sibling or merging the pair. It mutates *in
// (the parent's separators/children); the caller writes the parent back.
// Sibling nodes rewritten under copy-on-write move to fresh pages, and the
// parent's child pointers are updated accordingly.
func (t *Tree) rebalanceChild(in *internalNode, ci int) error {
	// Normalize to the adjacent pair (li, li+1) with separator index li.
	li := ci
	if li == len(in.children)-1 {
		li = ci - 1
	}
	if li < 0 || len(in.children) < 2 {
		return nil // root's only child: nothing to rebalance against
	}
	leftID, rightID := in.children[li], in.children[li+1]

	lp, err := t.pool.Fetch(leftID)
	if err != nil {
		return err
	}
	rp, err := t.pool.Fetch(rightID)
	if err != nil {
		_ = t.pool.Unpin(leftID, false)
		return err
	}

	if pageType(lp) != pageType(rp) {
		_ = t.pool.Unpin(leftID, false)
		_ = t.pool.Unpin(rightID, false)
		return fmt.Errorf("btree: sibling type mismatch at pages %d/%d", leftID, rightID)
	}

	if pageType(lp) == leafType {
		le := readLeaf(lp)
		re := readLeaf(rp)
		if len(le)+len(re) <= LeafCapacity {
			// Merge right into left.
			merged := append(le, re...)
			lp, newLeft, err := t.redirect(leftID, lp)
			if err != nil {
				_ = t.pool.Unpin(rightID, false)
				return err
			}
			writeLeaf(lp, merged)
			if err := t.pool.Unpin(newLeft, true); err != nil {
				_ = t.pool.Unpin(rightID, false)
				return err
			}
			if err := t.discardPinned(rightID); err != nil {
				return err
			}
			t.leafCount--
			in.children[li] = newLeft
			in.seps = append(in.seps[:li], in.seps[li+1:]...)
			in.children = append(in.children[:li+1], in.children[li+2:]...)
			return nil
		}
		// Redistribute evenly; the new separator is right's first key.
		all := append(le, re...)
		mid := len(all) / 2
		lp, newLeft, err := t.redirect(leftID, lp)
		if err != nil {
			_ = t.pool.Unpin(rightID, false)
			return err
		}
		writeLeaf(lp, all[:mid])
		if err := t.pool.Unpin(newLeft, true); err != nil {
			_ = t.pool.Unpin(rightID, false)
			return err
		}
		rp, newRight, err := t.redirect(rightID, rp)
		if err != nil {
			return err
		}
		writeLeaf(rp, all[mid:])
		in.children[li] = newLeft
		in.children[li+1] = newRight
		in.seps[li] = all[mid].kv
		return t.pool.Unpin(newRight, true)
	}

	// Internal siblings: pull the parent separator down between them.
	ln := readInternal(lp)
	rn := readInternal(rp)
	combinedSeps := make([]KV, 0, len(ln.seps)+1+len(rn.seps))
	combinedSeps = append(combinedSeps, ln.seps...)
	combinedSeps = append(combinedSeps, in.seps[li])
	combinedSeps = append(combinedSeps, rn.seps...)
	combinedKids := make([]store.PageID, 0, len(ln.children)+len(rn.children))
	combinedKids = append(combinedKids, ln.children...)
	combinedKids = append(combinedKids, rn.children...)

	if len(combinedSeps) <= InternalCapacity {
		// Merge into the left node.
		lp, newLeft, err := t.redirect(leftID, lp)
		if err != nil {
			_ = t.pool.Unpin(rightID, false)
			return err
		}
		writeInternal(lp, internalNode{seps: combinedSeps, children: combinedKids})
		if err := t.pool.Unpin(newLeft, true); err != nil {
			_ = t.pool.Unpin(rightID, false)
			return err
		}
		if err := t.discardPinned(rightID); err != nil {
			return err
		}
		in.children[li] = newLeft
		in.seps = append(in.seps[:li], in.seps[li+1:]...)
		in.children = append(in.children[:li+1], in.children[li+2:]...)
		return nil
	}

	// Redistribute: the middle separator returns to the parent.
	mid := len(combinedSeps) / 2
	lp, newLeft, err := t.redirect(leftID, lp)
	if err != nil {
		_ = t.pool.Unpin(rightID, false)
		return err
	}
	writeInternal(lp, internalNode{
		seps:     append([]KV(nil), combinedSeps[:mid]...),
		children: append([]store.PageID(nil), combinedKids[:mid+1]...),
	})
	if err := t.pool.Unpin(newLeft, true); err != nil {
		_ = t.pool.Unpin(rightID, false)
		return err
	}
	rp, newRight, err := t.redirect(rightID, rp)
	if err != nil {
		return err
	}
	writeInternal(rp, internalNode{
		seps:     append([]KV(nil), combinedSeps[mid+1:]...),
		children: append([]store.PageID(nil), combinedKids[mid+1:]...),
	})
	in.children[li] = newLeft
	in.children[li+1] = newRight
	in.seps[li] = combinedSeps[mid]
	return t.pool.Unpin(newRight, true)
}
