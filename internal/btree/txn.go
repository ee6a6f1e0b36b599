package btree

import (
	"fmt"

	"repro/internal/store"
)

// Copy-on-write versioning.
//
// By default the tree rewrites node pages in place: that is the fastest
// path and exactly the paper's single-threaded behavior. Seal switches the
// tree into copy-on-write mode: every page that existed at seal time
// becomes immutable, and a mutation that would modify such a page instead
// writes a fresh page and repoints the parent (copying the whole root path
// in the worst case). A Reader taken at seal time therefore stays valid —
// bit for bit — across any number of subsequent mutations, which is what
// lets pinned snapshots run without holding any lock.
//
// Pages superseded by copy-on-write are "retired": still allocated (old
// readers reach them) but no longer part of the current tree. The owner
// collects them with TakeRetired and frees them (BufferPool.Release) once
// no reader pinned at or before their retirement version remains. Unseal
// drops back to in-place mutation when no pinned readers are left.
//
// Versioning: Seal returns a monotonically increasing version number. All
// pages retired while the tree is at version v carry the tag v; they may be
// referenced by any reader pinned at a version ≤ v, and are safe to free
// once every live pinned version is > v.

// Seal makes every currently reachable page immutable and returns the new
// version. Mutations after Seal copy-on-write. Sealing an already-sealed,
// unmodified tree returns the current version without bumping it, so
// back-to-back snapshots share one version.
func (t *Tree) Seal() uint64 {
	if t.sealed && !t.mutated {
		return t.version
	}
	t.sealed = true
	t.mutated = false
	if t.fresh == nil {
		t.fresh = make(map[store.PageID]struct{})
	}
	clear(t.fresh)
	t.version++
	return t.version
}

// Unseal returns the tree to in-place mutation. The caller asserts that no
// pinned Reader from any earlier version is still in use and that all
// retired pages have been collected.
func (t *Tree) Unseal() {
	t.sealed = false
	t.mutated = false
	clear(t.fresh)
}

// Sealed reports whether the tree is in copy-on-write mode.
func (t *Tree) Sealed() bool { return t.sealed }

// Version returns the current seal version (0 if never sealed).
func (t *Tree) Version() uint64 { return t.version }

// TakeRetired returns and clears the pages superseded since the last call.
// The caller owns freeing them once no pinned reader can reach them.
func (t *Tree) TakeRetired() []store.PageID {
	r := t.retired
	t.retired = nil
	return r
}

// writable reports whether the page may be rewritten in place: always when
// the tree is unsealed, otherwise only for pages allocated after the seal.
func (t *Tree) writable(pid store.PageID) bool {
	if !t.sealed {
		return true
	}
	_, ok := t.fresh[pid]
	return ok
}

// allocPage allocates a pinned page for new node content and registers it
// as fresh (writable in place until the next seal).
func (t *Tree) allocPage() (*store.Page, error) {
	p, err := t.pool.NewPage()
	if err != nil {
		return nil, err
	}
	if t.sealed {
		t.fresh[p.ID()] = struct{}{}
	}
	return p, nil
}

// redirect returns the pinned page that should receive the rewritten
// content of node pid, whose current page p the caller has fetched and
// decoded. In place (unsealed or fresh pid) it returns p and pid unchanged.
// Under copy-on-write it unpins p clean, allocates a fresh page, retires
// pid, and returns the new page: the caller must write the node there and
// report the moved id to its parent.
func (t *Tree) redirect(pid store.PageID, p *store.Page) (*store.Page, store.PageID, error) {
	if t.writable(pid) {
		return p, pid, nil
	}
	if err := t.pool.Unpin(pid, false); err != nil {
		return nil, store.InvalidPageID, err
	}
	np, err := t.allocPage()
	if err != nil {
		return nil, store.InvalidPageID, fmt.Errorf("btree: copy-on-write of page %d: %w", pid, err)
	}
	t.retired = append(t.retired, pid)
	return np, np.ID(), nil
}

// editable is redirect for an edit where the node lies: under
// copy-on-write it copies the occupied prefix the edit keeps — the header
// and the first keep entries of p — into the fresh page before it unpins
// p, and the caller edits the copy. The fresh page is zero past the copied
// bytes.
func (t *Tree) editable(pid store.PageID, p *store.Page, keep int) (*store.Page, store.PageID, error) {
	if t.writable(pid) {
		return p, pid, nil
	}
	np, err := t.allocPage()
	if err != nil {
		_ = t.pool.Unpin(pid, false)
		return nil, store.InvalidPageID, fmt.Errorf("btree: copy-on-write of page %d: %w", pid, err)
	}
	copy(np.Data(), node(p.Data()).prefix(keep))
	if err := t.pool.Unpin(pid, false); err != nil {
		_ = t.pool.Unpin(np.ID(), false)
		return nil, store.InvalidPageID, err
	}
	t.retired = append(t.retired, pid)
	return np, np.ID(), nil
}

// discardPinned removes node pid from the current tree: fresh pages are
// freed immediately (no reader can reference them), sealed pages are
// retired for deferred freeing. The caller must hold exactly one pin on the
// page; discardPinned consumes it in either branch.
func (t *Tree) discardPinned(pid store.PageID) error {
	if t.writable(pid) {
		if t.sealed {
			delete(t.fresh, pid)
		}
		return t.pool.FreePage(pid)
	}
	if err := t.pool.Unpin(pid, false); err != nil {
		return err
	}
	t.retired = append(t.retired, pid)
	return nil
}

// Txn brackets a batch of mutations so they can be rolled back as a unit.
// Begin seals the tree (pre-transaction pages become immutable), so a
// failed batch restores the exact pre-transaction tree: Rollback resets the
// metadata, frees every page the transaction allocated, and un-retires the
// pages the transaction superseded. Commit keeps the new state and leaves
// the retired pages for the owner to collect.
//
// A Txn covers only this tree's pages and counters; the caller rolls back
// its own bookkeeping (e.g. key maps) separately.
type Txn struct {
	t          *Tree
	meta       Meta
	retiredLen int
}

// Begin starts a transaction. The tree must not have another Txn open.
func (t *Tree) Begin() *Txn {
	t.Seal()
	return &Txn{t: t, meta: t.Meta(), retiredLen: len(t.retired)}
}

// Commit finalizes the transaction's mutations.
func (txn *Txn) Commit() {}

// Rollback restores the tree to its state at Begin. It returns the first
// error encountered while freeing transaction-allocated pages; even then
// the tree metadata is restored (a failed free only leaks a page).
func (txn *Txn) Rollback() error {
	t := txn.t
	t.root = txn.meta.Root
	t.height = txn.meta.Height
	t.size = txn.meta.Size
	t.leafCount = txn.meta.LeafCount
	// Pages superseded during the transaction are live again.
	t.retired = t.retired[:txn.retiredLen]
	// Pages allocated during the transaction are garbage. t.fresh holds
	// exactly those (Begin's seal cleared it), minus any already freed.
	var firstErr error
	for pid := range t.fresh {
		if err := t.pool.Release(pid); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	clear(t.fresh)
	// The restored state is exactly the sealed state, so a following Seal
	// need not bump the version.
	t.mutated = false
	return firstErr
}
