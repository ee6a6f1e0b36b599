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
//
// Only snapshots and checkpoints seal. A transaction (Txn, below) writes
// pages where a single mutation would and keeps before-images of the ones
// it edits in place, so a batch copies each page at most once per seal.

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

// writable reports whether no sealed version can reach page pid: always
// when the tree is unsealed, otherwise only for pages allocated after the
// seal.
func (t *Tree) writable(pid store.PageID) bool {
	if !t.sealed {
		return true
	}
	_, ok := t.fresh[pid]
	return ok
}

// inPlace reports whether node pid, whose page p the caller holds pinned,
// may be rewritten where it lies: when no sealed version can reach it and,
// inside a transaction, the transaction can undo the edit (Txn.claim).
func (t *Tree) inPlace(pid store.PageID, p *store.Page) bool {
	return t.writable(pid) && (t.txn == nil || t.txn.claim(pid, p))
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
	if t.txn != nil {
		t.txn.alloc[p.ID()] = struct{}{}
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
	if t.inPlace(pid, p) {
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
	if t.inPlace(pid, p) {
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

// discardPinned removes node pid from the current tree: a page no sealed
// version reaches is freed at once, a sealed page is retired for deferred
// freeing. Inside a transaction a page that predates it is freed only at
// Commit, so Rollback can bring it back. The caller must hold exactly one
// pin on the page; discardPinned consumes it in every branch.
func (t *Tree) discardPinned(pid store.PageID) error {
	if !t.writable(pid) {
		if err := t.pool.Unpin(pid, false); err != nil {
			return err
		}
		t.retired = append(t.retired, pid)
		return nil
	}
	if x := t.txn; x != nil {
		if _, ok := x.alloc[pid]; !ok {
			x.removed = append(x.removed, pid)
			return t.pool.Unpin(pid, false)
		}
		delete(x.alloc, pid)
	}
	if t.sealed {
		delete(t.fresh, pid)
	}
	return t.pool.FreePage(pid)
}

// Txn brackets a batch of mutations so they can be rolled back as a unit.
//
// A transaction writes pages exactly where a mutation outside one would:
// in place where no sealed version can reach them, copy-on-write
// elsewhere. So a batch copies a page at most once per seal, as single
// mutations do, and only snapshots and checkpoints seal. On its first edit
// of a page that predates it, the transaction keeps the page's
// before-image and a pin of its own on the page (claim); the pin keeps the
// page resident, so Rollback restores the image in memory and never reads
// the disk, which the fault that failed the batch may still be failing.
// Past a quarter of the pool's frames it keeps no more images and copies
// on write instead, so its pins never crowd out the pool.
//
// Rollback resets the metadata, restores the before-images, frees every
// page the transaction allocated and un-retires the pages it superseded.
// Commit drops the pins, frees the pages the transaction took out of the
// tree, and leaves the retired ones for the owner to collect.
//
// A Txn covers only this tree's pages and counters; the caller rolls back
// its own bookkeeping (e.g. key maps) separately. The tree reuses one Txn,
// its image buffers and its maps, for every transaction.
type Txn struct {
	t          *Tree
	meta       Meta
	mutated    bool
	retiredLen int
	// limit caps the before-images, a quarter of the pool's frames.
	limit int
	// alloc holds the pages allocated since Begin and still allocated.
	alloc map[store.PageID]struct{}
	// imaged holds the pages edited in place; images[:n] their pinned
	// frames and before-images, in claim order. images past n are buffers
	// kept for later transactions.
	imaged map[store.PageID]struct{}
	images []beforeImage
	n      int
	// removed lists the pages predating the transaction it took out of
	// the tree while no sealed version reaches them: Commit frees them.
	removed []store.PageID
}

// beforeImage is a page a transaction edits in place: its pinned frame and
// its content at the transaction's first edit.
type beforeImage struct {
	page *store.Page
	data *[store.PageSize]byte
}

// Begin starts a transaction. The tree must not have another Txn open.
func (t *Tree) Begin() *Txn {
	x := &t.tx
	if x.t == nil {
		x.t = t
		x.limit = t.pool.Capacity() / 4
		x.alloc = make(map[store.PageID]struct{})
		x.imaged = make(map[store.PageID]struct{})
	}
	x.meta, x.mutated, x.retiredLen = t.Meta(), t.mutated, len(t.retired)
	t.txn = x
	return x
}

// claim readies page pid, pinned by the caller as p, for an in-place edit
// the transaction can undo, and reports whether it may be edited in place.
// A page the transaction allocated or has imaged already needs nothing;
// another gets its before-image kept and the transaction's own pin while
// the images fit the budget. Past it, claim reports false and the caller
// copies on write.
func (x *Txn) claim(pid store.PageID, p *store.Page) bool {
	if _, ok := x.alloc[pid]; ok {
		return true
	}
	if _, ok := x.imaged[pid]; ok {
		return true
	}
	if x.n >= x.limit {
		return false
	}
	if x.n == len(x.images) {
		x.images = append(x.images, beforeImage{data: new([store.PageSize]byte)})
	}
	img := &x.images[x.n]
	x.n++
	img.page = p
	copy(img.data[:], p.Data())
	x.t.pool.Pin(p)
	x.imaged[pid] = struct{}{}
	return true
}

// Commit finalizes the transaction's mutations.
func (x *Txn) Commit() {
	t := x.t
	// Each image holds the pin claim took, so no Unpin can fail.
	_ = x.unpin(false)
	for _, pid := range x.removed {
		// A failed release leaks one disk page; the tree is unaffected.
		_ = t.pool.Release(pid)
		if t.sealed {
			delete(t.fresh, pid)
		}
	}
	x.end()
}

// Rollback restores the tree to its state at Begin. It returns the first
// error encountered while freeing transaction-allocated pages; even then
// the tree is restored (a failed free only leaks a page).
func (x *Txn) Rollback() error {
	t := x.t
	t.root = x.meta.Root
	t.height = x.meta.Height
	t.size = x.meta.Size
	t.leafCount = x.meta.LeafCount
	t.mutated = x.mutated
	// Pages superseded during the transaction are live again, and the
	// pages it edited in place get their content back.
	t.retired = t.retired[:x.retiredLen]
	firstErr := x.unpin(true)
	// Pages allocated during the transaction are garbage.
	for pid := range x.alloc {
		if err := t.pool.Release(pid); err != nil && firstErr == nil {
			firstErr = err
		}
		if t.sealed {
			delete(t.fresh, pid)
		}
	}
	x.end()
	return firstErr
}

// unpin drops the transaction's pins, first writing each before-image
// back when restore is set.
func (x *Txn) unpin(restore bool) error {
	var firstErr error
	for i := range x.images[:x.n] {
		img := &x.images[i]
		if restore {
			copy(img.page.Data(), img.data[:])
		}
		if err := x.t.pool.Unpin(img.page.ID(), restore); err != nil && firstErr == nil {
			firstErr = err
		}
		img.page = nil
	}
	return firstErr
}

// end closes the transaction and clears its state for the next one.
func (x *Txn) end() {
	x.t.txn = nil
	x.n = 0
	clear(x.alloc)
	clear(x.imaged)
	x.removed = x.removed[:0]
}
