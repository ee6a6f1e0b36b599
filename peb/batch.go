package peb

import "repro/internal/core"

// Batch stages mutations in memory for atomic application by DB.Apply.
// Staging methods never touch the database and never fail; validation
// happens at Apply time. A Batch is not safe for concurrent use (stage
// from one goroutine, or make one batch per goroutine); it is independent
// of any DB until applied and may be applied once or discarded.
//
// Why batch: a bulk load of N objects through per-call Upsert pays N write
// lock round-trips and republishes the query view N times. Apply takes the
// lock once, applies every staged mutation, and republishes once — and it
// is atomic: if any operation fails, the database is left exactly as it
// was, with no partial batch visible to any query (past, concurrent, or
// future).
type Batch struct {
	ops opList
}

// NewBatch returns an empty staging buffer.
func (db *DB) NewBatch() *Batch { return &Batch{} }

// Len returns the number of staged operations.
func (b *Batch) Len() int { return b.ops.len() }

// Upsert stages a movement update (see DB.Upsert).
func (b *Batch) Upsert(o Object) {
	b.ops.Idx = append(b.ops.Idx, core.BatchOp{Kind: core.OpUpsert, Obj: o})
}

// Remove stages deletion of a user's index entry (see DB.Remove). Removing
// a user with no index entry fails the whole batch at Apply time.
func (b *Batch) Remove(uid UserID) {
	b.ops.Idx = append(b.ops.Idx, core.BatchOp{Kind: core.OpRemove, UID: uid})
}

// DefineRelation stages a role relation (see DB.DefineRelation).
func (b *Batch) DefineRelation(owner, peer UserID, role Role) {
	b.ops.Pol = append(b.ops.Pol, polOp{Kind: polOpRelation, Own: owner, Peer: peer, Role: role})
}

// Grant stages a location-privacy policy (see DB.Grant).
func (b *Batch) Grant(owner UserID, role Role, locr Region, tint TimeInterval) {
	b.ops.Pol = append(b.ops.Pol, polOp{Kind: polOpGrant, Own: owner, Role: role, Locr: locr, Tint: tint})
}

// Apply applies every staged operation atomically: one write-lock
// acquisition, all-or-nothing semantics, one view republish. On error the
// database — index, policies, sequence values, and the published query
// view — is exactly as it was before Apply.
//
// Ordering: index operations take effect in staging order relative to each
// other, as do policy operations; the two groups are independent (policy
// changes influence queries, not the staged index keys), so their relative
// interleaving does not matter. As with DB.Grant/DefineRelation, applied
// policy changes take effect on new sequence values only after
// EncodePolicies.
func (db *DB) Apply(b *Batch) error {
	var ops opList
	if b != nil {
		ops = b.ops
	}
	return db.commit(ops)
}
