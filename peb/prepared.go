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
// several DBs, each with its own write-ahead log, and the participants'
// logs alone carry the verdict: a transaction is committed if and only if
// every participant named in its prepared record holds that record
// durably with no abort marker (HoldsTxn is one participant's vote).
//
//	prepare — PrepareApply(sub, txnID, parts) on every participant logs
//	          the resolved sub-batch as a *prepared* record naming them
//	          all, synced per the durability level; nothing is applied.
//	          The last prepare's sync is the commit point.
//	finish  — Commit applies the batch and logs a marker it does not wait
//	          for; Abort logs one and waits, since a durable abort marker
//	          is what makes a prepare that reached disk anyway lose.
//	settle  — a committed handle holds the log (retentionFloor) just
//	          below its record until Release: a peer still without its
//	          marker would read a dropped record as abort. The coordinator
//	          releases once every participant's marker is Durable.
//
// Recovery leaves a markerless prepared record pending (Pending) for the
// coordinator to finish by the rule. Between a prepared record and its
// marker the DB takes no other commit, so the record is the log's last and
// the in-memory state is exactly the log below it (appliedHorizon): a
// checkpoint cut starts there without waiting.
// Abort keeps that window open until its marker is durable, so a cut above
// a prepared record means it committed or its abort marker is on disk.
// Transaction ids are never recycled while any log could still hold one
// (MaxTxnID is each participant's watermark).

// Prepared is a participant's handle on an in-flight cross-shard
// transaction. Exactly one of Commit or Abort must be called to decide
// it; a committed handle then holds the log until Release. The handle is
// not safe for concurrent use.
type Prepared struct {
	db    *DB
	txnID uint64
	parts []int  // every participant, by the coordinator's stable ids
	ops   opList // resolved, and the participant's own copy: what Commit applies
	// seq and mark are the applied horizon just below the prepared record.
	seq    uint64
	mark   store.SegPos
	marker store.WALToken // the commit or abort marker, once logged
	done   bool
	failed error // why finish logged no marker, if it did not
}

// PrepareApply validates the batch exactly as Apply would and logs it as a
// *prepared* participant of cross-shard transaction txnID, whose
// participants are parts (stable ids the coordinator chooses, this DB's
// among them), without applying it: queries, snapshots and commit hooks
// see the batch only once Commit applies it, and recovery replays the
// record only if the transaction committed. The caller must finish the
// returned handle with Commit or Abort.
//
// txnID must be non-zero, unique per transaction, and above every
// participant's MaxTxnID watermark. An error means the batch was not
// prepared. The handle is then nil — unless the record was logged and only
// its sync failed: it may be on disk anyway, so the caller aborts the
// handle returned beside the error.
//
// Until the handle is finished the DB refuses every other commit and
// prepare: Commit applies the batch to the state it was validated against.
// The coordinator must therefore be this DB's only writer for the life of
// the prepared window; peb/sharded guarantees this by holding its global
// barrier lock across the whole protocol.
func (db *DB) PrepareApply(b *Batch, txnID uint64, parts []int) (*Prepared, error) {
	if txnID == 0 {
		return nil, fmt.Errorf("peb: prepare: transaction id must be non-zero")
	}
	if b == nil || b.Len() == 0 {
		return nil, fmt.Errorf("peb: prepare: empty batch")
	}
	start := time.Now()
	db.mu.Lock()
	p, tok, err := db.prepareLocked(b.list(), txnID, parts)
	db.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := db.walSync(tok); err != nil {
		return p, err // the log is poisoned; nothing was applied
	}
	db.met.commit.ObserveDuration(time.Since(start))
	db.events.Record("txn.prepare", "participant prepared",
		"txn", txnID, "ops", b.Len())
	return p, nil
}

// prepareLocked is commit's stages 1–2 and a dry run of what applying
// could still refuse, then the prepared record — logged with the
// sequence-value cursor the batch will leave, as if it had been applied.
// The caller holds the write lock.
func (db *DB) prepareLocked(ops opList, txnID uint64, parts []int) (*Prepared, store.WALToken, error) {
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
	p := &Prepared{db: db, txnID: txnID, parts: slices.Clone(parts),
		ops: opList{Pol: slices.Clone(resolved.Pol), Idx: slices.Clone(resolved.Idx)}}
	p.seq, p.mark = db.appliedHorizon()
	tok, err := db.walAppend(walRecord{NextSV: nextSV, Ops: p.ops,
		TxnID: txnID, TxnState: txnPrepared, Parts: p.parts})
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

// Pending returns the prepared transaction this DB waits on — one
// recovery left markerless, or one not finished since its prepare — or
// nil. Until it is finished the DB refuses every other commit.
func (db *DB) Pending() *Prepared {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.prepared
}

// HoldsTxn reports whether this DB holds transaction txnID's prepared
// record with no abort marker: pending, or committed as recovery found its
// log.
func (db *DB) HoldsTxn(txnID uint64) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if p := db.prepared; p != nil && p.txnID == txnID {
		return true
	}
	return db.recovered[txnID] == txnCommitted
}

// Txn returns the transaction's id and the stable ids of the participants
// its record names (not to be modified).
func (p *Prepared) Txn() (id uint64, parts []int) { return p.txnID, p.parts }

// Commit applies the prepared batch — commit's stages 3–5: capture for the
// hooks, applyOps, publish, fire the hooks — and logs a txnCommitted
// marker without waiting for it to be durable. Every prepare was durable,
// so the transaction is decided: a failure here poisons this DB's log
// (fail-stop), and recovery leaves the record pending to commit again.
func (p *Prepared) Commit() error { return p.finish(txnCommitted) }

// Abort logs a txnAborted marker — nothing of the batch was applied — and
// closes the prepared window once the marker is durable. An error means
// the marker may not have reached disk.
func (p *Prepared) Abort() error {
	err := p.finish(txnAborted)
	if err == nil {
		err = p.Sync()
	}
	db := p.db
	db.mu.Lock()
	if db.prepared == p {
		db.prepared = nil
	}
	db.mu.Unlock()
	db.events.Record("txn.abort", "participant aborted", "txn", p.txnID)
	return err
}

// finish logs the marker for state; a commit first closes the window,
// applies the batch and starts the handle's hold on the log.
func (p *Prepared) finish(state uint8) (err error) {
	if p.done {
		return fmt.Errorf("peb: transaction %d already finished", p.txnID)
	}
	p.done = true
	defer func() { p.failed = err }()
	db := p.db
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		db.prepared = nil
		return ErrClosed
	}
	if state == txnCommitted {
		db.prepared = nil
		policyChange, _ := opClasses(p.ops.Pol)
		if err := db.applyLocked(p.ops, policyChange, false); err != nil {
			err = fmt.Errorf("peb: commit txn %d: %w", p.txnID, err)
			if db.wal != nil {
				db.wal.Poison(err)
			}
			return err
		}
		db.hold(p, p.mark)
	}
	p.marker, err = db.walAppend(walRecord{NextSV: db.nextSV, TxnID: p.txnID, TxnState: state})
	return err
}

// Durable reports, without syncing, whether the handle's marker is durable
// by the DB's durability level.
func (p *Prepared) Durable() bool {
	db := p.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	// A closed DB synced its log on the way out.
	return p.done && p.failed == nil && (db.wal == nil || db.wal.Durable(p.marker))
}

// Sync waits until the handle's marker is durable.
func (p *Prepared) Sync() error {
	if !p.done {
		return fmt.Errorf("peb: transaction %d is not finished", p.txnID)
	}
	if p.failed != nil {
		return p.failed
	}
	return p.db.walSync(p.marker)
}

// Release ends a committed handle's hold on the log (a no-op otherwise).
func (p *Prepared) Release() { p.db.release(p) }

// MaxTxnID returns the largest cross-shard transaction id this DB has
// logged or replayed — the watermark above which a coordinator must
// allocate new ids so that no recycled id can match a stale prepared
// record still sitting in some participant's log.
func (db *DB) MaxTxnID() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.maxTxn
}
