// Package core implements the PEB-tree (Policy-Embedded Bx-tree), the
// paper's primary contribution (Sec. 5). The PEB-tree indexes moving users
// by a composite key that concatenates a time-partition id, a privacy-policy
// sequence value, and a Z-curve location value:
//
//	PEB key = [TID]₂ ⊕ [SV]₂ ⊕ [ZV]₂    (Eq. 5)
//
// Users who tend to be allowed to see each other's locations (compatible
// policies ⇒ nearby sequence values) and who are spatially close (nearby
// Z values) receive nearby keys and therefore land on nearby disk pages.
// The privacy-aware range query (PRQ, Sec. 5.3) and k-nearest-neighbor
// query (PkNN, Sec. 5.4) exploit this to prune by policy compatibility and
// location simultaneously.
//
// Concurrency: mutations (Insert, Delete, SetSV) require exclusive access.
// Queries execute on a View — a read-only snapshot obtained from
// Tree.View() — and any number of goroutines may query concurrently, as
// long as no mutation runs meanwhile. Callers enforce that
// single-writer/multi-reader discipline externally; peb.DB does it with a
// sync.RWMutex.
package core

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/bxtree"
	"repro/internal/motion"
	"repro/internal/policy"
	"repro/internal/store"
)

// Tree is a PEB-tree over a paged B+-tree.
type Tree struct {
	cfg      Config
	tree     *btree.Tree
	policies *policy.Store

	// svEnc holds each user's fixed-point sequence value; it is the output
	// of the offline policy-encoding phase (Sec. 5.1) that key generation
	// embeds into every index entry.
	svEnc map[motion.UserID]uint64

	cur   map[motion.UserID]btree.KV
	parts *bxtree.PartitionTracker

	// undo, when non-nil, records the prior state of every user the current
	// batch touches so ApplyBatch can roll back (batch.go).
	undo *batchUndo
}

// New creates an empty PEB-tree whose pages live in pool. policies supplies
// policy evaluation during queries; assignment supplies the sequence values
// computed by policy.AssignCommunities (the engine) or
// policy.AssignSequenceValues (Fig. 5).
func New(cfg Config, pool *store.BufferPool, policies *policy.Store, assignment policy.Assignment) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policies == nil {
		return nil, fmt.Errorf("core: nil policy store")
	}
	bt, err := btree.New(pool)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:      cfg,
		tree:     bt,
		policies: policies,
		svEnc:    make(map[motion.UserID]uint64, len(assignment.SV)),
		cur:      make(map[motion.UserID]btree.KV),
		parts:    bxtree.NewPartitionTracker(cfg.Base),
	}
	for uid, sv := range assignment.SV {
		if err := t.SetSV(motion.UserID(uid), sv); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// Policies returns the policy store the tree evaluates queries against.
func (t *Tree) Policies() *policy.Store { return t.policies }

// Size returns the number of indexed objects.
func (t *Tree) Size() int { return len(t.cur) }

// LeafCount returns the number of B+-tree leaf pages (the cost model's Nl).
func (t *Tree) LeafCount() int { return t.tree.LeafCount() }

// Pool returns the underlying buffer pool, for I/O accounting.
func (t *Tree) Pool() *store.BufferPool { return t.tree.Pool() }

// Pages returns every page id reachable from the tree's current root: the
// reference sweep the checkpoint ledger's tests hold the engine's
// bookkeeping against.
func (t *Tree) Pages() ([]store.PageID, error) { return t.tree.WalkPages(0) }

// SetSV registers or updates uid's sequence value. Policy encoding is an
// offline phase (Sec. 5.1); re-registering a user that is currently indexed
// is rejected — delete and re-insert to move an entry.
func (t *Tree) SetSV(uid motion.UserID, sv float64) error {
	if _, indexed := t.cur[uid]; indexed {
		return fmt.Errorf("core: cannot change SV of indexed user %d", uid)
	}
	enc, err := t.cfg.SV.Encode(sv)
	if err != nil {
		return err
	}
	t.touch(uid)
	t.svEnc[uid] = enc
	return nil
}

// SetPolicies swaps the policy store queries evaluate against. peb.DB calls
// it after a copy-on-write policy mutation; views taken before the swap
// keep their original store. The caller must hold exclusive access.
func (t *Tree) SetPolicies(p *policy.Store) error {
	if p == nil {
		return fmt.Errorf("core: nil policy store")
	}
	t.policies = p
	return nil
}

// Seal makes the current index state immutable for pinned views: later
// mutations copy-on-write instead of rewriting pages in place. Returns the
// new version (see btree.Tree.Seal).
func (t *Tree) Seal() uint64 { return t.tree.Seal() }

// Unseal returns to in-place mutation once no pinned views remain.
func (t *Tree) Unseal() { t.tree.Unseal() }

// Version returns the current seal version.
func (t *Tree) Version() uint64 { return t.tree.Version() }

// TakeRetired returns and clears the pages superseded by copy-on-write
// since the last call; the owner frees them (Pool().Release) once no pinned
// view can reach them.
func (t *Tree) TakeRetired() []store.PageID { return t.tree.TakeRetired() }

// SV returns uid's registered fixed-point sequence value.
func (t *Tree) SV(uid motion.UserID) (uint64, bool) {
	v, ok := t.svEnc[uid]
	return v, ok
}

// ForEachSV calls fn for every registered sequence value, in no order.
func (t *Tree) ForEachSV(fn func(uid motion.UserID, sv uint64)) {
	for uid, sv := range t.svEnc {
		fn(uid, sv)
	}
}

// keyFor computes the object's PEB key: position advanced to the label
// timestamp, Z-encoded, combined with the user's sequence value (Eq. 5).
func (t *Tree) keyFor(o motion.Object) (btree.KV, int64, error) {
	sv, ok := t.svEnc[o.UID]
	if !ok {
		return btree.KV{}, 0, fmt.Errorf("core: user %d has no sequence value", o.UID)
	}
	li := t.cfg.Base.LabelIndex(o.T)
	x, y := o.PositionAt(t.cfg.Base.LabelTime(li))
	zv := t.cfg.Base.CurveValue(x, y)
	key := t.cfg.Key(t.cfg.Base.PartitionOf(li), sv, zv)
	return btree.KV{Key: key, UID: uint32(o.UID)}, li, nil
}

// Insert adds or replaces the index entry for o.UID. The user must have a
// sequence value registered (SetSV or the construction-time assignment).
func (t *Tree) Insert(o motion.Object) error {
	kv, li, err := t.keyFor(o)
	if err != nil {
		return err
	}
	t.touch(o.UID)
	if old, ok := t.cur[o.UID]; ok {
		if err := t.removeEntry(o.UID, old); err != nil {
			return err
		}
	}
	if err := t.tree.Insert(kv, motion.EncodePayload(o)); err != nil {
		return fmt.Errorf("core: insert u%d: %w", o.UID, err)
	}
	t.cur[o.UID] = kv
	t.parts.Set(o.UID, li)
	return nil
}

// Update is a synonym for Insert that documents intent at call sites.
func (t *Tree) Update(o motion.Object) error { return t.Insert(o) }

// Delete removes uid's entry. Deleting an absent user is an error.
func (t *Tree) Delete(uid motion.UserID) error {
	kv, ok := t.cur[uid]
	if !ok {
		return fmt.Errorf("core: delete of unknown user %d", uid)
	}
	return t.removeEntry(uid, kv)
}

// Get returns uid's current object state.
func (t *Tree) Get(uid motion.UserID) (motion.Object, bool, error) {
	o, ok, _, err := t.View().Get(uid)
	return o, ok, err
}

func (t *Tree) removeEntry(uid motion.UserID, kv btree.KV) error {
	t.touch(uid)
	found, err := t.tree.Delete(kv)
	if err != nil {
		return fmt.Errorf("core: delete u%d: %w", uid, err)
	}
	if !found {
		return fmt.Errorf("core: entry for u%d missing from tree", uid)
	}
	t.parts.Remove(uid)
	delete(t.cur, uid)
	return nil
}
