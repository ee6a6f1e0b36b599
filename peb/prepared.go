package peb

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// Cross-shard two-phase commit: the participant side.
//
// A sharded deployment (peb/sharded) splits one logical batch across
// several DBs and needs the split to be all-or-nothing even across a
// crash, although each DB has its own write-ahead log. The protocol:
//
//	prepare  — the coordinator calls PrepareApply(sub, txnID) on every
//	           participant, concurrently: the sub-batch is validated
//	           against the current state and logged, resolved, as a
//	           *prepared* record (TxnID + txnPrepared), fsynced per the
//	           durability level. Nothing is applied. A prepared record does
//	           not commit by itself: replay applies it only if its fate is
//	           known to be commit.
//	decide   — with every participant prepared, the coordinator makes the
//	           transaction durable in ITS decision log. That append is the
//	           transaction's single commit point.
//	finish   — the coordinator calls Commit on every Prepared handle, which
//	           applies the batch and logs a txnCommitted marker, or — when
//	           any prepare failed — Abort on those already prepared, which
//	           only logs a txnAborted marker. Neither waits for its marker
//	           to be durable: the participant's next sync carries it.
//
// Recovery resolves a prepared record by scanning forward for its marker;
// a markerless prepared record (the process died mid-protocol, or before
// the marker's sync) is resolved through Options.TxnResolve, which the
// coordinator points at its decision log. Either way every participant
// reaches the same verdict, so the transaction is all-or-nothing across
// shards. An unsynced abort marker needs nothing more: an id with no
// commit record in the decision log resolves to abort.
//
// Two invariants keep the protocol sound:
//
//   - Between a prepared record and its marker the DB takes no other
//     commit, so the in-memory state is exactly the log below the record
//     (appliedHorizon). A checkpoint cut and a replica bootstrap start
//     there without waiting: the record stays in the log above them, and
//     replay applies or skips it by its verdict.
//   - Transaction ids are never recycled while any log could still hold
//     the id (DB.MaxTxnID gives the coordinator each participant's
//     watermark), so a stale prepared record can never be resurrected by
//     a newer transaction's commit decision.

// Prepared is a participant's handle on an in-flight cross-shard
// transaction: the batch is validated and logged as prepared, and exactly
// one of Commit or Abort must be called to decide it. The handle is not
// safe for concurrent use.
type Prepared struct {
	db    *DB
	txnID uint64
	ops   opList // resolved, and the participant's own copy: what Commit applies
	// seq and mark are the applied horizon just below the prepared record.
	seq  uint64
	mark store.SegPos
	done bool
}

// PrepareApply validates the batch exactly as Apply would and logs it as a
// *prepared* participant of cross-shard transaction txnID without applying
// it: queries, snapshots and commit hooks see the batch only once Commit
// applies it, and recovery replays the record only if the transaction's
// fate — a commit marker in this DB's log, or the coordinator's TxnResolve
// verdict — is commit. The caller must finish the returned handle with
// Commit or Abort.
//
// txnID must be non-zero, unique per transaction, and above every
// participant's MaxTxnID watermark. An error means nothing was prepared
// (this participant needs no abort); the returned handle is nil.
//
// Until the handle is finished the DB refuses every other commit and
// prepare: Commit applies the batch to the state it was validated against.
// The coordinator must therefore be this DB's only writer for the life of
// the prepared window; peb/sharded guarantees this by holding its global
// barrier lock across the whole protocol.
func (db *DB) PrepareApply(b *Batch, txnID uint64) (*Prepared, error) {
	if txnID == 0 {
		return nil, fmt.Errorf("peb: prepare: transaction id must be non-zero")
	}
	if b == nil || b.ops.len() == 0 {
		return nil, fmt.Errorf("peb: prepare: empty batch")
	}
	start := time.Now()
	db.mu.Lock()
	p, tok, err := db.prepareLocked(b.ops, txnID)
	db.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := db.walSync(tok); err != nil {
		// The log is poisoned and nothing was applied. If the record did
		// reach disk, recovery resolves it through the coordinator, which
		// will not have committed.
		db.mu.Lock()
		db.prepared = nil
		db.mu.Unlock()
		return nil, err
	}
	db.met.commit.ObserveDuration(time.Since(start))
	db.events.Record("txn.prepare", "participant prepared",
		"txn", txnID, "ops", b.ops.len())
	return p, nil
}

// prepareLocked is commit's stages 1–2 and a dry run of what applying
// could still refuse, then the prepared record — logged with the
// sequence-value cursor the batch will leave, as if it had been applied.
// The caller holds the write lock.
func (db *DB) prepareLocked(ops opList, txnID uint64) (*Prepared, store.WALToken, error) {
	if err := db.writable(); err != nil {
		return nil, 0, err
	}
	resolved, err := db.resolveOps(ops)
	if err != nil {
		return nil, 0, err
	}
	nextSV, err := db.checkIndexOps(resolved.Idx)
	if err != nil {
		return nil, 0, err
	}
	// The resolved groups may share db.opScratch or the caller's batch.
	p := &Prepared{db: db, txnID: txnID,
		ops: opList{Pol: slices.Clone(resolved.Pol), Idx: slices.Clone(resolved.Idx)}}
	p.seq, p.mark = db.appliedHorizon()
	tok, err := db.walAppendTxn(p.ops, nextSV, txnID, txnPrepared)
	if err != nil {
		return nil, 0, err
	}
	db.prepared = p
	return p, tok, nil
}

// checkIndexOps dry-runs a resolved index group for the failures applyOps
// could still meet on valid input — a remove of a user the list leaves
// unindexed at that point, a sequence value the key cannot encode — and
// returns the sequence-value cursor applying it leaves. Nothing is
// written. Commit must not fail on the batch for a reason replay would
// meet again.
func (db *DB) checkIndexOps(ops []core.BatchOp) (nextSV float64, err error) {
	nextSV = db.nextSV
	indexed := make(map[UserID]bool)
	for i := range ops {
		switch op := &ops[i]; op.Kind {
		case core.OpSetSV:
			if _, err := db.tree.Config().SV.Encode(op.SV); err != nil {
				return 0, err
			}
			nextSV = max(nextSV, op.SV)
		case core.OpUpsert:
			indexed[op.Obj.UID] = true
		case core.OpRemove:
			in, seen := indexed[op.UID]
			if !seen {
				if _, in, err = db.tree.Get(op.UID); err != nil {
					return 0, err
				}
			}
			if !in {
				return 0, fmt.Errorf("peb: remove of unindexed user %d", op.UID)
			}
			indexed[op.UID] = false
		}
	}
	return nextSV, nil
}

// appliedHorizon returns the log position the in-memory state stands at:
// the sequence number and byte mark just below the pending prepared
// record, whose operations are not applied yet, or the log's end when none
// is pending. Caller holds mu (either side).
func (db *DB) appliedHorizon() (uint64, store.SegPos) {
	if p := db.prepared; p != nil {
		return p.seq, p.mark
	}
	var mark store.SegPos
	if db.wal != nil {
		mark = db.wal.Mark()
	}
	return db.walSeq, mark
}

// Commit applies the prepared batch — commit's stages 3–5: capture for the
// hooks, applyOps, publish, fire the hooks — and logs a txnCommitted
// marker. The marker is durable no later than this DB's next sync; Commit
// does not wait for it. The coordinator's decision log is the commit
// point: the decision is durable before Commit is called, so a failure
// here cannot undo it — it poisons this DB's log (fail-stop) — and
// recovery replays the prepared record as committed, by its marker or,
// when the marker did not reach disk, through TxnResolve.
func (p *Prepared) Commit() error {
	return p.finish(txnCommitted, "txn.commit", "participant committed")
}

// Abort seals the transaction's fate as aborted: it logs a txnAborted
// marker and nothing else, since nothing of the batch was applied. Like
// Commit, it does not wait for the marker to be durable.
func (p *Prepared) Abort() error {
	return p.finish(txnAborted, "txn.abort", "participant aborted")
}

// finish logs the marker for state — after applying the batch, on commit.
// It does not wait for the marker to be durable: the shard's next sync
// carries it, and until then recovery reads the same verdict from the
// coordinator's resolver.
func (p *Prepared) finish(state uint8, event, msg string) error {
	if p.done {
		return fmt.Errorf("peb: transaction %d already finished", p.txnID)
	}
	p.done = true
	db := p.db
	db.mu.Lock()
	err := db.finishLocked(p, state)
	db.mu.Unlock()
	db.events.Record(event, msg, "txn", p.txnID)
	return err
}

// finishLocked closes the prepared window. The caller holds the write lock.
func (db *DB) finishLocked(p *Prepared, state uint8) error {
	db.prepared = nil
	if db.closed {
		return ErrClosed
	}
	if state == txnCommitted {
		policyChange, _ := opClasses(p.ops.Pol)
		if err := db.applyLocked(p.ops, policyChange, false); err != nil {
			err = fmt.Errorf("peb: commit txn %d: %w", p.txnID, err)
			if db.wal != nil {
				db.wal.Poison(err)
			}
			return err
		}
	}
	_, err := db.walAppendTxn(opList{}, db.nextSV, p.txnID, state)
	return err
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
