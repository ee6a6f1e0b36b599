package peb

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy"
)

// Cross-shard two-phase commit: the participant side.
//
// A sharded deployment (peb/sharded) splits one logical batch across
// several DBs and needs the split to be all-or-nothing even across a
// crash, although each DB has its own write-ahead log. The protocol:
//
//	prepare  — the coordinator calls PrepareApply(sub, txnID) on every
//	           participant: the sub-batch is applied in memory and logged
//	           as a *prepared* record (TxnID + txnPrepared), fsynced per
//	           the durability level. A prepared record does not commit by
//	           itself: replay applies it only if its fate is known to be
//	           commit.
//	decide   — with every participant prepared, the coordinator makes the
//	           transaction durable in ITS decision log. That append is the
//	           transaction's single commit point.
//	finish   — the coordinator calls Commit on every Prepared handle
//	           (logging a txnCommitted marker), or — when any prepare
//	           failed — Abort on those already prepared, which restores
//	           the pre-transaction state exactly and logs a txnAborted
//	           marker.
//
// Recovery resolves a prepared record by scanning forward for its marker;
// a markerless prepared record (the process died mid-protocol) is resolved
// through Options.TxnResolve, which the coordinator points at its decision
// log. Either way every participant reaches the same verdict, so the
// transaction is all-or-nothing across shards.
//
// Two invariants keep the protocol sound:
//
//   - No checkpoint cut lands between a prepared record and its marker
//     (DB.lockExcludingPrepared): the cut image would bake in the applied
//     mutations while truncation dropped the prepared record, leaving a
//     later abort marker nothing to cancel.
//   - Transaction ids are never recycled while any log could still hold
//     the id (DB.MaxTxnID gives the coordinator each participant's
//     watermark), so a stale prepared record can never be resurrected by
//     a newer transaction's commit decision.
//
// The coordinator must serialize prepared windows against index rebuilds
// (EncodePolicies, LoadPolicies) and close: a rebuild swaps the tree under
// the undo state. peb/sharded holds its global barrier lock across both.

// txnUndo captures the pre-transaction state of everything a prepared
// batch touched: the first-touch object states, the sequence values staged
// for new users, the pre-clone policy store, and the scalars. Applying it
// restores the DB to a state indistinguishable from the transaction never
// having run — which is exactly what replay reconstructs when it skips an
// aborted prepared record.
type txnUndo struct {
	// applied flips once the batch is applied in memory: from then on a
	// failure (log append, sync) needs Abort, before it nothing does.
	applied bool
	// touched holds, per user the index operations wrote, the first-touch
	// state (Prev; nil: the user was absent) and the prepared state (Cur).
	touched            []CommitTouch
	freshSVs           []UserID
	addedUsers         []UserID
	prevNextSV         float64
	prevEncoded        bool
	prevPolicies       *policy.Store // non-nil only when the batch changed policies
	prevPoliciesPinned bool
}

// capture records the pre-apply state of everything the resolved ops are
// about to change (commit's stage 3; caller holds the write lock). A batch
// that changes policies pins the current store, so the policy phase writes
// a copy and prevPolicies stays the exact pre-transaction store.
func (u *txnUndo) capture(db *DB, ops opList, touched []CommitTouch, policyChange bool) {
	u.touched = touched
	u.prevNextSV = db.nextSV
	u.prevEncoded = db.encoded
	if policyChange {
		u.prevPolicies = db.policies
		u.prevPoliciesPinned = db.policiesPinned
		db.policiesPinned = true
	}
	note := func(uid UserID) {
		if !db.users[uid] { // a repeat is harmless: Abort deletes by key
			u.addedUsers = append(u.addedUsers, uid)
		}
	}
	for i := range ops.Idx {
		switch op := &ops.Idx[i]; op.Kind {
		case core.OpSetSV:
			u.freshSVs = append(u.freshSVs, op.UID)
		case core.OpUpsert:
			note(op.Obj.UID)
		}
	}
	for i := range ops.Pol {
		switch op := &ops.Pol[i]; op.Kind {
		case polOpRelation:
			note(op.Own)
			note(op.Peer)
		case polOpGrant:
			note(op.Own)
		}
	}
}

// Prepared is a participant's handle on an in-flight cross-shard
// transaction: the batch is applied and logged as prepared, and exactly
// one of Commit or Abort must be called to decide it. The handle is not
// safe for concurrent use.
type Prepared struct {
	db    *DB
	txnID uint64
	undo  txnUndo
	done  bool
}

// PrepareApply applies the batch atomically (exactly like Apply) but logs
// it as a *prepared* participant of cross-shard transaction txnID: the
// mutations are visible in memory immediately, yet recovery discards them
// unless the transaction's fate — a commit marker in this DB's log, or the
// coordinator's TxnResolve verdict — is commit. The caller must finish the
// returned handle with Commit or Abort; checkpoints wait for open prepared
// transactions, so an abandoned handle wedges the checkpoint pipeline.
//
// txnID must be non-zero, unique per transaction, and above every
// participant's MaxTxnID watermark. An error means the batch did not apply
// (this participant needs no abort); the returned handle is nil.
//
// The coordinator must be this DB's only writer for the life of the
// prepared window: the undo Abort applies restores first-touch state and
// a scalar sequence-value cursor, so an ordinary commit interleaved
// between PrepareApply and Commit/Abort would be silently reverted (and
// could later collide on sequence values). peb/sharded guarantees this by
// holding its global barrier lock across the whole protocol; other
// embedders must bring equivalent exclusion, as they must for rebuilds
// (EncodePolicies, LoadPolicies) and Close.
func (db *DB) PrepareApply(b *Batch, txnID uint64) (*Prepared, error) {
	if txnID == 0 {
		return nil, fmt.Errorf("peb: prepare: transaction id must be non-zero")
	}
	if b == nil || b.ops.len() == 0 {
		return nil, fmt.Errorf("peb: prepare: empty batch")
	}
	// Announce the prepared window before taking the write lock: a
	// checkpoint that observed pendingPrepared == 0 holds prepMu until it
	// owns the write lock, so this prepare either waits out the cut (its
	// record then lands beyond the cut's WAL mark) or completes before the
	// checkpoint looks (the cut then waits for the marker).
	db.prepMu.Lock()
	db.pendingPrepared++
	db.prepMu.Unlock()

	p := &Prepared{db: db, txnID: txnID}
	if err := db.commit(b.ops, txnID, &p.undo); err != nil {
		if !p.undo.applied {
			db.finishPrepared()
			return nil, err
		}
		// The batch is applied in memory but its prepared record failed to
		// append or to sync: its durability is unknown and the log is
		// poisoned. Undo in memory so this participant reports a clean
		// failure with nothing half-applied; if the record did reach disk,
		// recovery resolves it through the coordinator (which will not have
		// committed).
		_ = p.Abort()
		return nil, err
	}
	db.events.Record("txn.prepare", "participant prepared",
		"txn", txnID, "ops", b.ops.len())
	return p, nil
}

// finishPrepared closes a prepared window and wakes checkpoint cuts
// waiting for quiescence.
func (db *DB) finishPrepared() {
	db.prepMu.Lock()
	db.pendingPrepared--
	db.prepCond.Broadcast()
	db.prepMu.Unlock()
}

// Commit seals the transaction's fate as committed in this participant's
// log. The coordinator must already have made the decision durable in its
// own log: the marker is what lets this DB resolve the record locally on
// the next recovery without consulting the coordinator. A marker append
// failure poisons this DB's log (fail-stop), but the transaction stays
// committed — recovery falls back to TxnResolve.
func (p *Prepared) Commit() error {
	if p.done {
		return fmt.Errorf("peb: transaction %d already finished", p.txnID)
	}
	p.done = true
	db := p.db
	db.mu.Lock()
	tok, err := db.walAppendTxn(opList{}, p.txnID, txnCommitted)
	db.mu.Unlock()
	db.finishPrepared()
	db.events.Record("txn.commit", "participant committed", "txn", p.txnID)
	if err != nil {
		return err
	}
	return db.walSync(tok)
}

// Abort reverses the prepared batch exactly — objects return to their
// first-touch states, freshly staged sequence values are withdrawn, the
// policy store reverts to its pre-transaction clone, registered users are
// forgotten — and logs a txnAborted marker. The restored in-memory state
// matches what replay produces by skipping the prepared record, so log and
// memory stay equivalent.
func (p *Prepared) Abort() error {
	if p.done {
		return fmt.Errorf("peb: transaction %d already finished", p.txnID)
	}
	p.done = true
	db := p.db
	db.mu.Lock()
	err := db.abortPreparedLocked(p)
	tok, aerr := db.walAppendTxn(opList{}, p.txnID, txnAborted)
	db.mu.Unlock()
	db.finishPrepared()
	db.events.Record("txn.abort", "participant aborted", "txn", p.txnID)
	if err != nil {
		return err
	}
	if aerr != nil {
		// The in-memory state is rolled back but the marker did not reach
		// the (now poisoned) log. If the prepared record is durable,
		// recovery resolves it through the coordinator — which never
		// committed this transaction — so the outcome still matches.
		return aerr
	}
	return db.walSync(tok)
}

// abortPreparedLocked applies the undo under the write lock.
func (db *DB) abortPreparedLocked(p *Prepared) error {
	if db.closed {
		return ErrClosed
	}
	u := &p.undo
	inverse := make([]core.BatchOp, 0, len(u.touched))
	for _, tc := range u.touched {
		switch {
		case tc.Prev != nil:
			// Upsert restores the first-touch state whether the batch
			// replaced or removed the entry.
			inverse = append(inverse, core.BatchOp{Kind: core.OpUpsert, Obj: *tc.Prev})
		case tc.Cur != nil:
			inverse = append(inverse, core.BatchOp{Kind: core.OpRemove, UID: tc.UID})
		}
		// Absent before and absent now (the batch upserted and then removed
		// the user): nothing to restore.
	}
	if err := db.tree.ApplyBatch(inverse); err != nil {
		// The rollback itself failed (I/O): memory is ahead of what the log
		// will reconstruct. Fail stop — poison the log so no later commit
		// can persist a history diverging from memory.
		err = fmt.Errorf("peb: abort txn %d: rollback failed: %w", p.txnID, err)
		if db.wal != nil {
			db.wal.Poison(err)
		}
		db.refreshView()
		db.collectGarbage()
		return err
	}
	for _, uid := range u.freshSVs {
		_ = db.tree.UnsetSV(uid)
	}
	db.nextSV = u.prevNextSV
	db.encoded = u.prevEncoded
	if u.prevPolicies != nil {
		db.policies = u.prevPolicies
		_ = db.tree.SetPolicies(u.prevPolicies)
		// Snapshots opened during the prepared window pin the transaction's
		// clone, not the restored store; keep clone-on-write conservative
		// whenever any snapshot is live.
		db.policiesPinned = u.prevPoliciesPinned || len(db.snaps) > 0
	}
	for _, uid := range u.addedUsers {
		delete(db.users, uid)
	}
	db.refreshView()
	db.collectGarbage()
	if db.hooksActive() {
		// The rollback is itself a commit from a subscriber's point of view:
		// each touched user transitions from its prepared state back to its
		// pre-transaction state.
		back := make([]CommitTouch, len(u.touched))
		for i, tc := range u.touched {
			back[i] = CommitTouch{UID: tc.UID, Prev: tc.Cur, Cur: tc.Prev}
		}
		db.fireCommitLocked(back, u.prevPolicies != nil, false)
	}
	return nil
}

// MaxTxnID returns the largest cross-shard transaction id this DB has
// logged or replayed — the watermark above which a coordinator must
// allocate new ids so that no recycled id can match a stale prepared
// record still sitting in some participant's log.
func (db *DB) MaxTxnID() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.maxTxn
}
