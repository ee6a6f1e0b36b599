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
//	commit   — Commit on the coordinator's part logs one record that
//	           holds every participant's resolved part and sequence-value
//	           cursor, and starts the device writing it. It stages every
//	           part — applies it in memory under its DB's write lock,
//	           logging nothing and firing no hook — while the record is
//	           written, then syncs the record: the commit point. Each
//	           other part then finishes: it logs a sub-record tagged with
//	           the transaction id, without syncing (the DB's next sync
//	           makes it durable), fires its hooks and unlocks. Until then
//	           no checkpoint cuts and no hook sees an undecided part.
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
// end of Commit: the parts are applied to the state they were validated
// against. peb/sharded holds its barrier exclusively from Prepare to the
// end of Commit; its routed writes stage under the barrier's shared side, so
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
	// touched and policyChange describe the applied part to the commit
	// hooks, which fire once the transaction is decided.
	touched      []CommitTouch
	policyChange bool
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

// Commit commits transaction txnID with p as the coordinator's part and
// others as the other participants' parts, each prepared on its own DB:
//
//  1. it logs one record on p's DB holding every part, and asks the device
//     to start writing it (SegmentedWAL.Writeback);
//  2. it applies p, then each other part under that part's write lock, in
//     memory only: nothing is logged and no commit hook fires;
//  3. it waits until the record is durable — the commit point — and then
//     holds p's log just below the record until Release, so the record
//     outlives every checkpoint until each other part's record is durable;
//  4. each other part logs its sub-record, tagged with txnID and not
//     synced (Durable, Sync), fires its commit hooks and unlocks; then p
//     fires its own.
//
// Every participant's write lock is held from its part's apply to its
// sub-record, so no checkpoint cut and no commit hook sees an undecided
// part, and the record's device write overlaps the applies.
//
// txnID must be non-zero and above every participant's MaxTxnID. An error
// after the record's append is fail-stop: the record may be on disk or
// not, and only a recovery decides. Every log that may hold or lack the
// transaction is poisoned, so nothing commits or checkpoints behind it.
func (p *Prepared) Commit(txnID uint64, others []*Prepared) error {
	if txnID == 0 {
		return fmt.Errorf("peb: commit: transaction id must be non-zero")
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
	tok, err := db.walAppend(walRecord{NextSV: p.part.NextSV, Ops: p.part.Ops, TxnID: txnID, Parts: parts})
	if err != nil {
		return err
	}
	if db.wal != nil {
		// A hint: a failure costs only the head start, and the sync below
		// reports any fault of the device.
		_ = db.wal.Writeback(tok)
	}
	staged := 0
	err = p.stageLocked(txnID)
	for err == nil && staged < len(others) {
		o := others[staged]
		o.db.mu.Lock()
		if err = o.stageLocked(txnID); err != nil {
			err = fmt.Errorf("participant %d: %w", o.part.ID, err)
			o.db.mu.Unlock()
			break
		}
		staged++
	}
	if err == nil && db.wal != nil {
		if err = db.wal.Commit(tok); err != nil {
			err = fmt.Errorf("peb: wal commit: %w", err)
		}
	}
	if err != nil {
		p.poison(err)
		unlockStaged(others[:staged], err)
		return err
	}
	if db.wal != nil {
		db.hold(p, floor)
	}

	// Decided.
	for i, o := range others {
		if err := o.finishLocked(start); err != nil {
			err = fmt.Errorf("participant %d: %w", o.part.ID, err)
			unlockStaged(others[i:], err)
			return err
		}
		o.db.mu.Unlock()
	}
	p.part.Ops = opList{}
	db.fireCommitLocked(p.touched, p.policyChange, false)
	p.touched = nil
	db.met.commit.ObserveDuration(time.Since(start))
	return nil
}

// unlockStaged releases staged parts a failed commit leaves unlogged,
// poisoning each one's log first: the part is applied in memory, and a
// checkpoint of it would claim a transaction its log and watermark lack.
func unlockStaged(staged []*Prepared, err error) {
	for _, o := range staged {
		o.poison(err)
		o.db.mu.Unlock()
	}
}

// stageLocked applies the part of transaction txnID in memory and sets the
// sequence-value cursor it was validated to leave: commit's stages 3–5
// but the hooks, which wait for the decision (finishLocked). A failure
// poisons the log. The caller holds the write lock.
func (p *Prepared) stageLocked(txnID uint64) error {
	db := p.db
	if db.closed {
		return ErrClosed
	}
	p.txnID = txnID
	p.policyChange, _ = opClasses(p.part.Ops.Pol)
	touched, err := db.applyQuietLocked(p.part.Ops)
	if err != nil {
		err = fmt.Errorf("peb: commit txn %d: %w", txnID, err)
		p.poison(err)
		return err
	}
	p.touched = touched
	db.nextSV = p.part.NextSV
	return nil
}

// finishLocked completes a staged part of a decided transaction: it logs
// the part tagged with its transaction id, without waiting for the record
// to be durable (Durable, Sync), and fires the commit hooks. An append
// failure poisons the log: a later record would claim, by the watermark,
// a transaction this DB lacks. The caller holds the write lock.
func (p *Prepared) finishLocked(start time.Time) error {
	db := p.db
	tok, err := db.walAppend(walRecord{NextSV: db.nextSV, Ops: p.part.Ops, TxnID: p.txnID})
	if err != nil {
		return err
	}
	p.part.Ops = opList{}
	// The part's latency is observed here, not by a wait: the router
	// acknowledges the transaction at the coordinator's record, and a part
	// becomes durable with its DB's next sync.
	p.rec = Staged{db: db, wal: db.wal, tok: tok}
	db.fireCommitLocked(p.touched, p.policyChange, false)
	p.touched = nil
	db.met.commit.ObserveDuration(time.Since(start))
	return nil
}

// poison fails the part's log with err (a no-op without one).
func (p *Prepared) poison(err error) {
	if p.db.wal != nil {
		p.db.wal.Poison(err)
	}
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
// a transaction it lacks: it stages the part, finishes it and waits until
// its record is durable.
func (db *DB) Redo(p *Prepared) error {
	start := time.Now()
	p.db = db
	db.mu.Lock()
	err := p.stageLocked(p.txnID)
	if err == nil {
		err = p.finishLocked(start)
	}
	db.mu.Unlock()
	if err != nil {
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
