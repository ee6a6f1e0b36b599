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
	idx []core.BatchOp
	// pol holds the staged policy operations in chunks of doubling size
	// up to polChunk, each allocated at its full length: a bulk of policy
	// operations is staged without a growing slice's copies, and list
	// copies it once into the list commit takes.
	pol  [][]polOp
	npol int
}

// polChunk is the largest staging chunk of policy operations (~360 KB).
const polChunk = 4096

// NewBatch returns an empty staging buffer.
func (db *DB) NewBatch() *Batch { return &Batch{} }

// Len returns the number of staged operations.
func (b *Batch) Len() int { return len(b.idx) + b.npol }

// Upsert stages a movement update (see DB.Upsert).
func (b *Batch) Upsert(o Object) {
	b.idx = append(b.idx, core.BatchOp{Kind: core.OpUpsert, Obj: o})
}

// Remove stages deletion of a user's index entry (see DB.Remove). Removing
// a user with no index entry fails the whole batch at Apply time.
func (b *Batch) Remove(uid UserID) {
	b.idx = append(b.idx, core.BatchOp{Kind: core.OpRemove, UID: uid})
}

// DefineRelation stages a role relation (see DB.DefineRelation).
func (b *Batch) DefineRelation(owner, peer UserID, role Role) {
	b.stagePol(polOp{Kind: polOpRelation, Own: owner, Peer: peer, Role: role})
}

// Grant stages a location-privacy policy (see DB.Grant).
func (b *Batch) Grant(owner UserID, role Role, locr Region, tint TimeInterval) {
	b.stagePol(polOp{Kind: polOpGrant, Own: owner, Role: role, Locr: locr, Tint: tint})
}

// stagePol appends op to the last chunk, opening the next when it is full.
func (b *Batch) stagePol(op polOp) {
	n := len(b.pol)
	if n == 0 || len(b.pol[n-1]) == cap(b.pol[n-1]) {
		size := 1
		if n > 0 {
			size = min(2*cap(b.pol[n-1]), polChunk)
		}
		b.pol = append(b.pol, make([]polOp, 0, size))
		n++
	}
	b.pol[n-1] = append(b.pol[n-1], op)
	b.npol++
}

// list returns the staged operations as the opList commit takes, the
// policy operations copied once into a list of their final length (a
// single chunk is used as it is).
func (b *Batch) list() opList {
	l := opList{Idx: b.idx}
	switch len(b.pol) {
	case 0:
	case 1:
		l.Pol = b.pol[0]
	default:
		l.Pol = make([]polOp, 0, b.npol)
		for _, c := range b.pol {
			l.Pol = append(l.Pol, c...)
		}
	}
	return l
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
func (db *DB) Apply(b *Batch) error { return acknowledge(db.StageApply(b)) }

// StageApply is Apply up to the wait (see StageUpsert): the batch is
// applied and visible when it returns, and durable once the handle's Wait
// returns.
func (db *DB) StageApply(b *Batch) (Staged, error) {
	var ops opList
	if b != nil {
		ops = b.list()
	}
	return db.stage(ops)
}
