package peb

import "repro/internal/policy"

// Split policy encoding, for shard routers. EncodePolicies computes a
// sequence-value assignment and rebuilds the index in one call; a sharded
// deployment wants the two halves apart, because the computation needs
// the policies, which one engine holds, while the rebuild is per shard:
// compute the assignment once — over the union of every shard's users —
// and install the shared result everywhere. Sharing one
// assignment also keeps the shards' keys mutually consistent when a user
// re-homes: the user's sequence value is the same on the new shard as it
// was on the old.

// PolicyEncoding is a computed sequence-value assignment (one band per
// community of the relation graph, as EncodePolicies computes it),
// detached from any index. Obtain one from
// ComputeEncoding, install it with InstallEncoding — on the same DB or on
// any DB reading the same policy store.
type PolicyEncoding struct {
	assignment policy.Assignment
}

// ComputeEncoding runs the offline policy-encoding phase over this DB's
// population — every user with a sequence value and every user its policy
// store names — plus extra, without touching the index. It is a read-only
// operation: commits keep flowing while it runs. The extra ids let a
// router fold in users this DB has never seen (users indexed on other
// shards), so the resulting encoding can be installed on every shard.
func (db *DB) ComputeEncoding(extra []UserID) (*PolicyEncoding, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	assignment, err := db.assignLocked(extra)
	if err != nil {
		return nil, err
	}
	return &PolicyEncoding{assignment: assignment}, nil
}

// InstallEncoding rebuilds the index under a precomputed encoding —
// EncodePolicies' second half. The encoding must cover every user this DB
// currently indexes (checked before anything is touched); an encoding from
// ComputeEncoding over a superset of this DB's users always does. The
// rebuild is logged like an EncodePolicies rebuild, so replay restores the
// installed assignment without recomputing it.
func (db *DB) InstallEncoding(enc *PolicyEncoding) error {
	return db.commit(opList{Pol: []polOp{{Kind: polOpEncode, Rebuild: encodeAssignment(enc.assignment)}}})
}
