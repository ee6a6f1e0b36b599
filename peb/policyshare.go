package peb

import (
	"errors"
	"sync"

	"repro/internal/policy"
)

// policyHandle is the policy store one DB, or several sharing it, reads
// through: the current store and the number of pins on it. A Snapshot and a
// checkpoint cut each pin the store they read
// without a lock; a mutation clones the current store while any pin on it
// stands, and otherwise changes it in place. Every mutation goes through
// mutate under mu, so a pin either lands before it, and the mutation goes to
// a copy, or after it completes.
//
// A store that a clone superseded is never mutated again, so pinning or
// unpinning one does nothing: the count follows only the current store.
type policyHandle struct {
	mu   sync.Mutex
	cur  *policy.Store
	pins int
}

func newPolicyHandle(s *policy.Store) *policyHandle {
	return &policyHandle{cur: s}
}

// pin marks s as read without a lock until the matching unpin.
func (h *policyHandle) pin(s *policy.Store) {
	h.mu.Lock()
	if s == h.cur {
		h.pins++
	}
	h.mu.Unlock()
}

// unpin releases a pin taken on s.
func (h *policyHandle) unpin(s *policy.Store) {
	h.mu.Lock()
	if s == h.cur && h.pins > 0 {
		h.pins--
	}
	h.mu.Unlock()
}

// mutate runs fn on the current store, after replacing it with an unpinned
// copy if anything pins it, and returns the store fn ran on.
func (h *policyHandle) mutate(fn func(*policy.Store) error) (*policy.Store, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.pins > 0 {
		h.cur, h.pins = h.cur.Clone(), 0
	}
	return h.cur, fn(h.cur)
}

// mutatePolicies runs fn on the policy store through the handle and points
// the tree at the store it ran on. The caller holds the write lock and
// republishes the view.
func (db *DB) mutatePolicies(fn func(*policy.Store) error) error {
	ps, err := db.pol.mutate(fn)
	if ps != db.policies {
		db.policies = ps
		_ = db.tree.SetPolicies(ps) // never nil
	}
	return err
}

// errBorrowedPolicies refuses a policy operation on a DB whose store is
// borrowed: the operation belongs on the DB that owns the store.
var errBorrowedPolicies = errors.New("peb: policies are borrowed from another DB; commit policy operations there")

// BorrowPolicies makes src's policy store the one db reads, in place of a
// store of its own: db's queries, snapshots and commit hooks read
// src's store, db's checkpoints write no policies file (the meta records
// that the store lives elsewhere), and db refuses policy operations — they
// commit, are logged and are checkpointed on src alone. A router holds its
// policies once this way: one engine owns them and every shard borrows.
//
// Call it again after every policy commit on src. A pin (a snapshot, a
// checkpoint build) may have sent the commit to a copy of the store, which
// db then reads instead, and db's commit hooks learn of the change: they
// fire once with PolicyChange set and nothing touched. The caller keeps
// db's unpinned reads — one-shot queries, Allows, commit hooks — from
// running while src commits a policy operation.
func (db *DB) BorrowPolicies(src *DB) error {
	src.mu.RLock()
	h, ps := src.pol, src.policies
	src.mu.RUnlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	db.borrowed, db.pol = true, h
	if ps != db.policies {
		db.policies = ps
		_ = db.tree.SetPolicies(ps) // never nil
		db.refreshView()
	}
	db.fireCommitLocked(nil, true, false)
	return nil
}
