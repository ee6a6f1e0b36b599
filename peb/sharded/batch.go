package sharded

import (
	"fmt"

	"repro/peb"
)

// Batch stages mutations for atomic cross-shard application by DB.Apply.
// Like peb.Batch, staging never touches the database; unlike it, the
// staged operations may end up owned by several shards, and Apply then
// commits them with a prepare/commit protocol so the whole batch is
// all-or-nothing — in memory and across a crash — even though every shard
// logs independently. A Batch is not safe for concurrent use.
type Batch struct {
	ops []batchOp
}

type opKind uint8

const (
	opUpsert opKind = iota
	opRemove
	opRelation
	opGrant
)

type batchOp struct {
	kind opKind
	obj  Object
	uid  UserID
	own  UserID
	peer UserID
	role Role
	locr Region
	tint TimeInterval
}

// NewBatch returns an empty staging buffer.
func (db *DB) NewBatch() *Batch { return &Batch{} }

// Len returns the number of staged operations.
func (b *Batch) Len() int { return len(b.ops) }

// Upsert stages a movement update.
func (b *Batch) Upsert(o Object) {
	b.ops = append(b.ops, batchOp{kind: opUpsert, obj: o})
}

// Remove stages deletion of a user's index entry. Removing a user with no
// index entry fails the whole batch at Apply time.
func (b *Batch) Remove(uid UserID) {
	b.ops = append(b.ops, batchOp{kind: opRemove, uid: uid})
}

// DefineRelation stages a role relation (broadcast to every shard).
func (b *Batch) DefineRelation(owner, peer UserID, role Role) {
	b.ops = append(b.ops, batchOp{kind: opRelation, own: owner, peer: peer, role: role})
}

// Grant stages a location-privacy policy (broadcast to every shard).
func (b *Batch) Grant(owner UserID, role Role, locr Region, tint TimeInterval) {
	b.ops = append(b.ops, batchOp{kind: opGrant, own: owner, role: role, locr: locr, tint: tint})
}

// ownerTombstone marks a user the batch removes in the pending owner-map
// delta.
const ownerTombstone = -1

// Apply applies the batch atomically. The batch is split by owning shard —
// movement updates go to the shard owning the new position (plus an
// eviction from the previous owner when the user moves across a boundary),
// policy operations go to every shard — and then:
//
//   - a batch owned by a single shard commits directly through that
//     shard's atomic Apply;
//   - a batch spanning shards commits via two-phase commit: the
//     participants prepare concurrently (each validates and logs a
//     prepared record, one fsync per participant), the router logs the
//     commit decision in its own log — the transaction's single durable
//     commit point, one fsync — and the participants then apply their
//     sub-batches and log commit markers, which become durable with each
//     shard's next sync. A prepare failure aborts every participant that
//     prepared, leaving no trace of the batch, and the error names the
//     lowest failing shard slot.
//
// After a crash anywhere in the protocol, recovery resolves every
// participant to the same verdict (see peb.Options.TxnResolve), so the
// batch is all-or-nothing across shards. Without durability the same
// protocol runs without logs: atomicity holds in memory.
func (db *DB) Apply(b *Batch) error {
	db.smu.Lock()
	defer db.smu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if b == nil || len(b.ops) == 0 {
		return nil
	}

	// Split by owning shard. ownerDelta tracks the routing consequences in
	// batch order, so multi-step sequences on one user (upsert here, then
	// there) stage the right inserts and evictions.
	subs := make([]*peb.Batch, len(db.shards))
	for i := range subs {
		subs[i] = db.shards[i].NewBatch()
	}
	ownerDelta := make(map[UserID]int)
	ownerOf := func(uid UserID) (int, bool) {
		if d, ok := ownerDelta[uid]; ok {
			if d == ownerTombstone {
				return 0, false
			}
			return d, true
		}
		db.ownMu.Lock()
		idx, ok := db.owner[uid]
		db.ownMu.Unlock()
		return idx, ok
	}
	for i := range b.ops {
		op := &b.ops[i]
		switch op.kind {
		case opUpsert:
			target := db.shardOf(op.obj.X, op.obj.Y)
			cur, had := ownerOf(op.obj.UID)
			subs[target].Upsert(op.obj)
			if had && cur != target {
				subs[cur].Remove(op.obj.UID)
			}
			ownerDelta[op.obj.UID] = target
		case opRemove:
			cur, had := ownerOf(op.uid)
			if !had {
				return fmt.Errorf("sharded: apply: remove of unindexed user %d", op.uid)
			}
			subs[cur].Remove(op.uid)
			ownerDelta[op.uid] = ownerTombstone
		case opRelation:
			for _, sub := range subs {
				sub.DefineRelation(op.own, op.peer, op.role)
			}
		case opGrant:
			for _, sub := range subs {
				sub.Grant(op.own, op.role, op.locr, op.tint)
			}
		}
	}
	var parts []int
	for i, sub := range subs {
		if sub.Len() > 0 {
			parts = append(parts, i)
		}
	}
	committed, err := db.commitParts(parts, subs)
	if committed {
		db.applyOwnerDelta(ownerDelta)
	}
	return err
}

// commitParts atomically commits the staged per-shard sub-batches whose
// slots are listed in parts: a single participant commits through its
// shard's own atomic Apply, several commit via two-phase commit with the
// decision point in the router's log. Shared by Apply and the resharding
// migration loop (reshard.go), which moves objects between shards with
// exactly the same all-or-nothing guarantees as a user batch. The caller
// holds the write barrier.
//
// committed reports whether the batch is decided as committed (it can be
// true alongside a non-nil error: a participant's failed Commit fail-stops
// that shard's log, and its recovery applies the part, but the transaction
// itself is durably decided).
func (db *DB) commitParts(parts []int, subs []*peb.Batch) (committed bool, err error) {
	if len(parts) == 0 {
		return true, nil
	}

	// Single owner: the shard's own atomic Apply is all the protocol
	// needed.
	if len(parts) == 1 {
		if err := db.shards[parts[0]].Apply(subs[parts[0]]); err != nil {
			return false, err
		}
		db.noteWrite(parts[0])
		return true, nil
	}

	// Cross-shard: two-phase commit. The participants prepare
	// concurrently: under the write barrier they share nothing but each
	// shard's own log, so the round costs the slowest prepare, not the sum.
	txnID := db.allocTxn()
	prepared := make([]*peb.Prepared, len(parts))
	errs := make([]error, len(parts))
	scatter(len(parts), func(j int) {
		prepared[j], errs[j] = db.shards[parts[j]].PrepareApply(subs[parts[j]], txnID)
	})
	abortAll := func() {
		for _, p := range prepared {
			if p == nil {
				continue // this slot's prepare failed: nothing to abort
			}
			// A prepared participant applied nothing, so Abort only logs
			// its marker; an abort error means that shard is fail-stopped
			// (poisoned log) and will resolve to abort on reopen — the
			// verdict is the same either way.
			_ = p.Abort()
		}
	}
	for j, err := range errs {
		if err != nil {
			// The lowest failing slot names the failure, whichever
			// prepare finished first.
			abortAll()
			i := parts[j]
			db.events.Record("txn.abort", "cross-shard transaction aborted at prepare",
				"txn", txnID, "parts", len(parts), "shard", db.metas[i].id, "err", err)
			return false, fmt.Errorf("sharded: apply: shard %d: %w", i, err)
		}
	}
	if db.txnLog != nil {
		if err := db.logDecision(txnID, true); err != nil {
			// The commit decision's durability is UNKNOWN — its bytes may
			// have reached disk despite the error, and a future recovery
			// would then commit the transaction. Rolling the participants
			// back is safe only after durably retracting the decision.
			if aerr := db.logDecision(txnID, false); aerr != nil {
				// In doubt, both ways. Fail stop: the participants stay
				// prepared (nothing of the transaction applied; their
				// checkpoints cut below its record) and the router refuses
				// further work; restarting the process resolves every
				// shard to the same verdict from whatever the decision
				// log holds.
				db.closed = true
				db.events.Record("txn.indoubt", "decision log unwritable both ways; router fail-stopped",
					"txn", txnID, "parts", len(parts), "commit_err", err, "retract_err", aerr)
				return false, fmt.Errorf("sharded: transaction %d in doubt (commit decision: %v; retraction: %v) — restart to resolve", txnID, err, aerr)
			}
			abortAll()
			db.events.Record("txn.abort", "cross-shard transaction aborted at decision",
				"txn", txnID, "parts", len(parts), "err", err)
			return false, err
		}
	}
	var firstErr error
	for _, p := range prepared {
		if err := p.Commit(); err != nil && firstErr == nil {
			// The transaction IS committed (the decision log says so); the
			// failure only fail-stops that shard's log.
			firstErr = fmt.Errorf("sharded: apply: commit marker: %w", err)
		}
	}
	for _, i := range parts {
		db.noteWrite(i)
	}
	db.events.Record("txn.commit", "cross-shard transaction committed",
		"txn", txnID, "parts", len(parts))
	return true, firstErr
}

// applyOwnerDelta folds a committed batch's routing changes into the owner
// map.
func (db *DB) applyOwnerDelta(delta map[UserID]int) {
	db.ownMu.Lock()
	defer db.ownMu.Unlock()
	for uid, d := range delta {
		if d == ownerTombstone {
			delete(db.owner, uid)
		} else {
			db.owner[uid] = d
		}
	}
}
