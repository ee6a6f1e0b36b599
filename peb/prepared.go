package peb

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// Cross-shard commit: the participant side.
//
// A sharded deployment (peb/sharded) splits one logical batch across
// several DBs, each with its own write-ahead log. One participant — the
// coordinator — logs the whole transaction as a single record, and that
// record's fsync is the commit point:
//
//	prepare  — Prepare on every participant validates its sub-batch
//	           exactly as Apply would and resolves it into the form that
//	           is logged. Nothing is logged or applied, so a refused batch
//	           leaves no trace anywhere.
//	decide   — Coordinate on the coordinator's part logs one record that
//	           holds every participant's resolved part and sequence-value
//	           cursor, syncs it, and applies the coordinator's own part, all
//	           under the write lock: no checkpoint cuts between the record
//	           and its effect.
//	finish   — Commit on every other part applies it and logs a sub-record
//	           tagged with the transaction id, without syncing: the DB's
//	           next sync makes it durable.
//	settle   — the coordinator's handle holds its log (retentionFloor) just
//	           below its record until Release. The caller releases it once
//	           every sub-record is Durable.
//
// Every record carrying a transaction id raises the DB's watermark
// (MaxTxnID), and every checkpoint persists it. Transactions commit one at
// a time and each log and checkpoint is a prefix of its DB's history, so a
// participant holds transaction T if and only if its recovered watermark
// is at least T. Recovery reports the parts of every coordinator record
// still in the log (Coordinated); the caller redoes each on the
// participant that lacks it (Redo).
//
// The caller must be every participant's only writer from Prepare to the
// last Commit: the parts are applied to the state they were validated
// against. peb/sharded holds its barrier exclusively from Prepare to the
// last Commit; its routed writes stage under the barrier's shared side, so
// none lands in between, and wait for durability outside it. A part is
// validated against what its participant has applied, durable or not, and
// a redo replays it against what that participant recovered. So the caller
// must also not prepare a part that reads a user's commit before that
// commit is durable: peb/sharded holds a user's lock from staging a routed
// write to its durability, and takes the locks of a transaction's users
// before it prepares.

// txnPart is one participant's share of a cross-shard transaction, as the
// coordinator's record logs it: the participant's stable id (the
// coordinator's choice), its resolved operations and the sequence-value
// cursor applying them leaves.
type txnPart struct {
	ID     int
	NextSV float64
	Ops    opList
}

// Prepared is one participant's validated part of a cross-shard
// transaction. The handle is not safe for concurrent use.
type Prepared struct {
	db    *DB // nil for a part Coordinated reported, until Redo
	txnID uint64
	part  txnPart
	rec   Staged // the part's record, once Commit logged it
}

// Prepare validates the batch exactly as Apply would, as the part of the
// participant with stable id id, and resolves it into the form that is
// logged and applied. Nothing is logged or applied: an error leaves no
// trace, and a handle that is never committed needs no cleanup.
func (db *DB) Prepare(b *Batch, id int) (*Prepared, error) {
	if b == nil || b.Len() == 0 {
		return nil, fmt.Errorf("peb: prepare: empty batch")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	resolved, err := db.resolveOps(b.list())
	if err != nil {
		return nil, err
	}
	nextSV, err := db.checkIndexOps(resolved.Idx)
	if err != nil {
		return nil, err
	}
	// The resolved groups may share db.opScratch or the caller's batch.
	return &Prepared{db: db, part: txnPart{ID: id, NextSV: nextSV,
		Ops: opList{Pol: slices.Clone(resolved.Pol), Idx: slices.Clone(resolved.Idx)}}}, nil
}

// checkIndexOps dry-runs a resolved index group for the failures applyOps
// could still meet on valid input — a remove of a user the list leaves
// unindexed at that point, a sequence value the key cannot encode — and
// returns the sequence-value cursor applying it leaves. Nothing is
// written.
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

// Coordinate commits transaction txnID with p as the coordinator's part:
// it logs one record holding p and every part in others, waits until the
// record is durable — the commit point — and applies p. The handle then
// holds the log just below the record until Release, so the record
// outlives every checkpoint until each other part's record is durable.
//
// txnID must be non-zero and above every participant's MaxTxnID. An error
// is fail-stop: the record may be on disk or not, and only a recovery
// decides; the log is poisoned so nothing commits or checkpoints behind
// it.
func (p *Prepared) Coordinate(txnID uint64, others []*Prepared) error {
	if txnID == 0 {
		return fmt.Errorf("peb: coordinate: transaction id must be non-zero")
	}
	start := time.Now()
	parts := make([]txnPart, len(others))
	for i, o := range others {
		parts[i] = o.part
	}
	db := p.db
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	var floor store.SegPos
	if db.wal != nil {
		floor = db.wal.Mark()
	}
	p.txnID = txnID
	tok, err := db.walAppend(walRecord{NextSV: p.part.NextSV, Ops: p.part.Ops, TxnID: txnID, Parts: parts})
	if err != nil {
		return err
	}
	if db.wal != nil {
		// Synced under the lock: a checkpoint cut between the record and
		// the applied part would publish a horizon past a record whose
		// effect it lacks.
		if err := db.wal.Commit(tok); err != nil {
			return fmt.Errorf("peb: wal commit: %w", err)
		}
		db.hold(p, floor)
	}
	if err := p.applyLocked(); err != nil {
		return err
	}
	db.met.commit.ObserveDuration(time.Since(start))
	return nil
}

// Commit applies the part of decided transaction txnID — commit's stages
// 3–5 — and logs it tagged with txnID, without waiting for the record to
// be durable (Durable, Sync). An error poisons the log (fail-stop): a
// later record would claim, by the watermark, a transaction this DB
// lacks.
func (p *Prepared) Commit(txnID uint64) error {
	start := time.Now()
	db := p.db
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	p.txnID = txnID
	ops := p.part.Ops
	if err := p.applyLocked(); err != nil {
		return err
	}
	tok, err := db.walAppend(walRecord{NextSV: db.nextSV, Ops: ops, TxnID: txnID})
	if err != nil {
		return err
	}
	// The part's latency is observed here, not by a wait: the router
	// acknowledges the transaction at the coordinator's record, and a part
	// becomes durable with its DB's next sync.
	p.rec = Staged{db: db, wal: db.wal, tok: tok}
	db.met.commit.ObserveDuration(time.Since(start))
	return nil
}

// applyLocked applies the part and sets the sequence-value cursor it was
// validated to leave, then drops the operations. A failure poisons the
// log. The caller holds the write lock.
func (p *Prepared) applyLocked() error {
	db := p.db
	policyChange, _ := opClasses(p.part.Ops.Pol)
	if err := db.applyLocked(p.part.Ops, policyChange, false); err != nil {
		err = fmt.Errorf("peb: commit txn %d: %w", p.txnID, err)
		if db.wal != nil {
			db.wal.Poison(err)
		}
		return err
	}
	db.nextSV = p.part.NextSV
	p.part.Ops = opList{}
	return nil
}

// Txn returns the handle's transaction id (zero before it commits) and
// its participant's stable id.
func (p *Prepared) Txn() (txnID uint64, id int) { return p.txnID, p.part.ID }

// Durable reports, without syncing, whether the part's record is durable.
func (p *Prepared) Durable() bool { return p.rec.Durable() }

// Sync waits until the part's record is durable.
func (p *Prepared) Sync() error { return p.rec.Wait() }

// Release ends a coordinator handle's hold on the log (a no-op otherwise).
func (p *Prepared) Release() { p.db.release(p) }

// Coordinated returns the other participants' parts of every transaction
// whose coordinator record recovery found in this DB's log, in log order,
// and forgets them. Each part knows its transaction and participant (Txn);
// its participant lacks it if and only if that DB's MaxTxnID is below the
// transaction id.
func (db *DB) Coordinated() []*Prepared {
	db.mu.Lock()
	defer db.mu.Unlock()
	parts := db.coordinated
	db.coordinated = nil
	return parts
}

// Redo commits on db a part that Coordinated reported — db's own part of
// a transaction it lacks — and waits until its record is durable.
func (db *DB) Redo(p *Prepared) error {
	p.db = db
	if err := p.Commit(p.txnID); err != nil {
		return err
	}
	return p.Sync()
}

// MaxTxnID returns this DB's transaction watermark: the largest
// cross-shard transaction id it has logged, replayed or recovered from its
// checkpoint. A coordinator allocates new ids above every participant's.
func (db *DB) MaxTxnID() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.maxTxn
}
