package peb

import (
	"sync"

	"repro/internal/policy"
)

// policyHandle is the policy store one DB, or several sharing it, reads
// through: the current store and the number of pins on it. A Snapshot, a
// checkpoint cut and a replica bootstrap each pin the store they read
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
// the tree at the store it ran on: another DB sharing the handle may have
// cloned the store since this one last wrote. The caller holds the write
// lock and republishes the view.
func (db *DB) mutatePolicies(fn func(*policy.Store) error) error {
	ps, err := db.pol.mutate(fn)
	if ps != db.policies {
		db.policies = ps
		_ = db.tree.SetPolicies(ps) // never nil
	}
	return err
}

// SharePolicies points db at src's policy store, so the two hold one copy
// in memory instead of two. It returns ErrPoliciesDiffer, and shares
// nothing, unless both stores are Equal.
//
// Sharing changes nothing on disk: each DB still logs, checkpoints and
// replays every policy operation it commits, so the DBs must go on
// committing the same policy operations in the same order — as a router
// broadcasting them does. The second application of an operation finds it
// already in place (relations overwrite, AddPolicy deduplicates, nothing
// deletes) and changes nothing. The caller must also keep every read of one
// DB's policies — queries, Allows, commit hooks — from running while
// another DB sharing the store applies a policy operation; pinned readers
// (snapshots, checkpoint builds, replica bootstraps) are safe at any time.
// A later LoadPolicies gives db a store of its own again.
func (db *DB) SharePolicies(src *DB) error {
	src.mu.RLock()
	h, ps := src.pol, src.policies
	src.mu.RUnlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.pol == h {
		return nil
	}
	if !db.policies.Equal(ps) {
		return ErrPoliciesDiffer
	}
	db.pol, db.policies = h, ps
	_ = db.tree.SetPolicies(ps) // never nil
	db.refreshView()
	return nil
}
